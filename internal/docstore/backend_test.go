package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smartchaindb/internal/storage"
)

// forEachBackend runs the sub-test over both storage backends so the
// docstore contract is pinned to the interface, not the memory
// implementation.
func forEachBackend(t *testing.T, fn func(t *testing.T, s *Store)) {
	t.Run("memory", func(t *testing.T) { fn(t, NewStore()) })
	t.Run("disk", func(t *testing.T) {
		eng, err := storage.Open(t.TempDir(), storage.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		s := NewStoreWith(eng)
		t.Cleanup(func() { s.Close() })
		fn(t, s)
	})
}

func TestBackendsAgreeOnCoreOperations(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("txs")
		c.CreateIndex("op")
		for i := 0; i < 8; i++ {
			if err := c.Insert(fmt.Sprintf("k%d", i), map[string]any{
				"op": []any{"CREATE", "TRANSFER"}[i%2].(string), "i": float64(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Insert("k0", nil); !errors.As(err, new(*ErrDuplicateKey)) {
			t.Fatalf("duplicate insert: %v", err)
		}
		if err := c.Upsert("k3", map[string]any{"op": "RETURN", "i": 3.0}); err != nil {
			t.Fatal(err)
		}
		if err := update(c, "k4", func(d map[string]any) error {
			d["op"] = "BID"
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := c.count(Eq("op", "CREATE")); got != 3 {
			t.Errorf("CREATE count = %d, want 3", got)
		}
		if got := c.count(Eq("op", "BID")); got != 1 {
			t.Errorf("BID count = %d, want 1", got)
		}
		if got := c.count(Eq("op", "RETURN")); got != 1 {
			t.Errorf("RETURN count = %d, want 1", got)
		}
		wantKeys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
		if got := c.Keys(); !reflect.DeepEqual(got, wantKeys) {
			t.Errorf("keys = %v, want %v", got, wantKeys)
		}
		docs := c.Find(Eq("op", "TRANSFER"))
		if len(docs) != 3 {
			t.Fatalf("TRANSFER docs = %d, want 3", len(docs))
		}
		// Returned documents are copies, never aliases of stored state.
		docs[0]["op"] = "mutated"
		if got := c.count(Eq("op", "mutated")); got != 0 {
			t.Error("Find leaked a reference into the store")
		}
	})
}

// TestDiskStoreReopenPreservesDocstoreState checks the full docstore
// view (documents, iteration order, index-backed queries) survives a
// close/reopen of the disk backend.
func TestDiskStoreReopenPreservesDocstoreState(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWith(eng)
	c := s.Collection("txs")
	for i := 0; i < 12; i++ {
		if err := c.Insert(fmt.Sprintf("t%02d", i), map[string]any{
			"operation": []string{"CREATE", "BID", "TRANSFER"}[i%3],
			"n":         float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Upsert("t07", map[string]any{"operation": "RETURN", "n": 7.0}); err != nil {
		t.Fatal(err)
	}
	wantKeys := c.Keys()
	wantDocs := c.Find(nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStoreWith(eng2)
	defer s2.Close()
	c2 := s2.Collection("txs")
	c2.CreateIndex("operation") // rebuilt over recovered documents
	if got := c2.Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("keys after reopen = %v, want %v", got, wantKeys)
	}
	if got := c2.Find(nil); !reflect.DeepEqual(got, wantDocs) {
		t.Fatalf("docs after reopen differ:\ngot  %v\nwant %v", got, wantDocs)
	}
	if got := c2.count(Eq("operation", "BID")); got != 3 {
		t.Errorf("indexed count after reopen = %d, want 3", got)
	}
}

// TestStoreCollectionCreateRace hammers the lazy create of one
// collection name from concurrent inserts, point reads and finds; run
// under -race it pins the store's create critical section: every
// caller gets the one collection, and every insert lands in it.
func TestStoreCollectionCreateRace(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		const goroutines = 8
		const iters = 200
		var wg sync.WaitGroup
		inserts := 0
		for g := 0; g < goroutines; g++ {
			for i := 0; i < iters; i++ {
				if (g+i)%3 == 0 {
					inserts++
				}
			}
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					switch (g + i) % 3 {
					case 0:
						if err := s.Collection("contended").Insert(fmt.Sprintf("g%d-i%d", g, i), map[string]any{"g": float64(g)}); err != nil {
							panic(err)
						}
					case 1:
						s.Collection("contended").Get(fmt.Sprintf("g%d-i%d", g, i-1))
					default:
						s.Collection("contended").Find(nil)
					}
				}
			}(g)
		}
		wg.Wait()
		c := s.Collection("contended")
		keys := c.Keys()
		if len(keys) != inserts {
			t.Fatalf("%d documents survived %d inserts", len(keys), inserts)
		}
		for _, key := range keys {
			if _, err := c.Get(key); err != nil {
				t.Fatalf("inserted key %s unreadable: %v", key, err)
			}
		}
	})
}
