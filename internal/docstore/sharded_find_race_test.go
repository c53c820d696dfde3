package docstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardedFindRacesWriter drives the index-backed sharded scan path
// concurrently with a writer mutating the same collection — the shape
// of a next-height validation query racing a block commit's appliers.
// The race detector is the primary assertion; semantically, every
// document a query returns must actually match its filter (a torn
// index hit must never surface a non-matching document).
func TestShardedFindRacesWriter(t *testing.T) {
	s := NewStore()
	defer s.Close()
	c := s.Collection("utxos")
	c.CreateIndex("owner")
	c.CreateIndex("spent")

	const owners = 8
	const docsPerOwner = 64
	var wg sync.WaitGroup
	wg.Add(1 + owners)
	go func() {
		defer wg.Done()
		for i := 0; i < owners*docsPerOwner; i++ {
			key := fmt.Sprintf("u%04d", i)
			owner := fmt.Sprintf("o%d", i%owners)
			if err := c.Insert(key, map[string]any{"owner": owner, "spent": false, "n": float64(i)}); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := update(c, key, func(doc map[string]any) error {
					doc["spent"] = true
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for o := 0; o < owners; o++ {
		owner := fmt.Sprintf("o%d", o)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for _, doc := range c.Find(And(Eq("owner", owner), Eq("spent", false))) {
					if doc["owner"] != owner {
						t.Errorf("sharded find returned owner %v, want %v", doc["owner"], owner)
						return
					}
					if doc["spent"] != false {
						t.Errorf("sharded find returned spent doc %v", doc)
						return
					}
				}
				c.count(Eq("owner", owner))
			}
		}()
	}
	wg.Wait()

	// Quiesced: the index-backed path must now agree with a full scan.
	for o := 0; o < owners; o++ {
		owner := fmt.Sprintf("o%d", o)
		got := len(c.Find(Eq("owner", owner)))
		want := 0
		c.mu.RLock()
		c.be.Scan(func(_ string, doc map[string]any) bool {
			if doc["owner"] == owner {
				want++
			}
			return true
		})
		c.mu.RUnlock()
		if got != want {
			t.Errorf("owner %s: indexed find %d docs, scan %d", owner, got, want)
		}
	}
}
