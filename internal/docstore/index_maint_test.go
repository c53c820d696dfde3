package docstore

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smartchaindb/internal/storage"
)

// indexProbes are the planned queries the maintenance tests re-check
// after every mutation: a hash point, an ordered point, a range, an
// And driving on each of its two indexes, and a many-valued point.
func indexProbes() []Filter {
	return []Filter{
		Eq("op", "A"),
		Eq("v", 5),
		And(Gte("v", 3), Lt("v", 8)),
		And(Eq("op", "B"), Gte("v", 1)),
		And(Gte("v", 9), Eq("op", "A")),
		In("tags", "hot", "t3"),
		Contains("tags", "hot"),
	}
}

func checkPlannedAgainstScan(t *testing.T, c *Collection, stage string) {
	t.Helper()
	for _, f := range indexProbes() {
		if ex := c.Explain(f); strings.Contains(ex, "full-scan") {
			t.Fatalf("%s: probe not planned: %s", stage, ex)
		}
		if planned, scanned := c.Find(f), c.FindScan(f); !reflect.DeepEqual(planned, scanned) {
			t.Fatalf("%s: planned %v != scanned %v (plan %s)", stage, planned, scanned, c.Explain(f))
		}
	}
}

// TestIndexMaintenanceThroughMutations drives ordered and hash indexes
// through Insert/Upsert/Update and checks the planned paths
// stay consistent with the full scan at every step, on both backends.
func TestIndexMaintenanceThroughMutations(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("docs")
		c.CreateIndex("op")
		c.CreateOrderedIndex("v")
		c.CreateIndex("tags")
		for i := 0; i < 16; i++ {
			doc := map[string]any{
				"op": []any{"A", "B"}[i%2], "v": float64(i % 10),
			}
			if i%3 == 0 {
				doc["tags"] = []any{"hot", fmt.Sprintf("t%d", i)}
			}
			if err := c.Insert(fmt.Sprintf("k%02d", i), doc); err != nil {
				t.Fatal(err)
			}
		}
		checkPlannedAgainstScan(t, c, "after insert")

		// Update: move documents across index values (scalar and array).
		for i := 0; i < 16; i += 4 {
			if err := update(c, fmt.Sprintf("k%02d", i), func(doc map[string]any) error {
				doc["v"] = float64(9 - i%10)
				doc["op"] = "B"
				delete(doc, "tags")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		checkPlannedAgainstScan(t, c, "after update")

		// Upsert: replace one document, create another.
		if err := c.Upsert("k01", map[string]any{"op": "A", "v": float64(7), "tags": []any{"hot"}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Upsert("k99", map[string]any{"op": "B", "v": float64(3)}); err != nil {
			t.Fatal(err)
		}
		checkPlannedAgainstScan(t, c, "after upsert")

		// Vacate — replace with an empty document, in no index — a
		// multikey document among others.
		for _, key := range []string{"k03", "k06", "k99"} {
			if err := c.Upsert(key, map[string]any{}); err != nil {
				t.Fatal(err)
			}
		}
		checkPlannedAgainstScan(t, c, "after vacate")
	})
}

// TestIndexesRebuiltOnReopen pins the disk-backend contract: indexes
// are not persisted, but re-creating them over the recovered documents
// yields identical planned results, plans, and ordered iteration.
func TestIndexesRebuiltOnReopen(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWith(eng)
	c := s.Collection("docs")
	c.CreateIndex("op")
	c.CreateOrderedIndex("v")
	c.CreateIndex("tags")
	for i := 0; i < 24; i++ {
		doc := map[string]any{"op": []any{"A", "B"}[i%2], "v": float64((i * 7) % 12)}
		if i%3 == 0 {
			doc["tags"] = []any{"hot"}
		}
		if err := c.Insert(fmt.Sprintf("k%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	var wantFinds [][]map[string]any
	for _, f := range indexProbes() {
		wantFinds = append(wantFinds, c.Find(f))
	}
	wantOrdered := c.findOrdered(Eq("op", "A"), "v", true, 0)
	wantPlans := make([]string, len(indexProbes()))
	for i, f := range indexProbes() {
		wantPlans[i] = c.Explain(f)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStoreWith(eng2)
	defer s2.Close()
	c2 := s2.Collection("docs")
	c2.CreateIndex("op")
	c2.CreateOrderedIndex("v")
	c2.CreateIndex("tags")
	checkPlannedAgainstScan(t, c2, "after reopen")
	for i, f := range indexProbes() {
		if got := c2.Find(f); !reflect.DeepEqual(got, wantFinds[i]) {
			t.Errorf("reopen changed results for %s", c2.Explain(f))
		}
		if got := c2.Explain(f); got != wantPlans[i] {
			t.Errorf("reopen changed plan: %s -> %s", wantPlans[i], got)
		}
	}
	if got := c2.findOrdered(Eq("op", "A"), "v", true, 0); !reflect.DeepEqual(got, wantOrdered) {
		t.Errorf("reopen changed ordered iteration: %v != %v", got, wantOrdered)
	}
}
