package docstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestPlannedReadsRaceWriter drives every planned access shape — a
// point driving an And, a range, a many-valued point, and ordered
// iteration — concurrently with a
// writer mutating the same collection, on both backends: the shape of
// marketplace queries racing a block commit. The race detector is the
// primary assertion; semantically, every returned document must match
// its filter (a torn index hit must never surface a non-match).
func TestPlannedReadsRaceWriter(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("utxos")
		c.CreateIndex("owner")
		c.CreateOrderedIndex("amount")
		c.CreateOrderedIndex("spent")

		const owners = 4
		const docs = 512
		var wg sync.WaitGroup
		wg.Add(1 + owners)
		go func() {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				key := fmt.Sprintf("u%04d", i)
				if err := c.Insert(key, map[string]any{
					"owner":  fmt.Sprintf("o%d", i%owners),
					"amount": float64(i % 100),
					"spent":  false,
				}); err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0:
					if err := update(c, key, func(doc map[string]any) error {
						doc["spent"] = true
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := c.Upsert(fmt.Sprintf("u%04d", i/2), map[string]any{}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		for o := 0; o < owners; o++ {
			owner := fmt.Sprintf("o%d", o)
			lo, hi := float64(o*10), float64(o*10+40)
			go func() {
				defer wg.Done()
				for r := 0; r < 40; r++ {
					for _, doc := range c.Find(And(Eq("owner", owner), Eq("spent", false))) {
						if doc["owner"] != owner || doc["spent"] != false {
							t.Errorf("point returned non-match %v", doc)
							return
						}
					}
					for _, doc := range c.Find(And(Gte("amount", lo), Lt("amount", hi))) {
						amt := doc["amount"].(float64)
						if amt < lo || amt >= hi {
							t.Errorf("range returned amount %v outside [%v,%v)", amt, lo, hi)
							return
						}
					}
					for _, doc := range c.Find(In("owner", owner, "o0")) {
						if doc["owner"] != owner && doc["owner"] != "o0" {
							t.Errorf("many-valued point returned non-match %v", doc)
							return
						}
					}
					prev := -1.0
					for _, doc := range c.findOrdered(Eq("spent", false), "amount", false, 16) {
						amt := doc["amount"].(float64)
						if amt < prev {
							t.Errorf("ordered iteration went backwards: %v after %v", amt, prev)
							return
						}
						prev = amt
					}
				}
			}()
		}
		wg.Wait()

		// Quiesced: every planned shape must agree with the full scan.
		for _, f := range []Filter{
			And(Eq("owner", "o1"), Eq("spent", false)),
			And(Gte("amount", 10), Lt("amount", 50)),
			In("owner", "o2", "o0"),
			Eq("spent", true),
		} {
			if planned, scanned := c.Find(f), c.FindScan(f); len(planned) != len(scanned) {
				t.Errorf("quiesced: plan %s found %d docs, scan %d", c.Explain(f), len(planned), len(scanned))
			}
		}
	})
}
