package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randOrderedDoc generates documents that exercise every branch of
// ordered-index key extraction: scalar order values, multikey ([]any)
// values, docs missing the order path entirely, and ties — plus a few
// secondary fields for filtered variants.
func randOrderedDoc(rng *rand.Rand) map[string]any {
	doc := map[string]any{
		"kind": fmt.Sprintf("t%d", rng.Intn(3)),
		"n":    float64(rng.Intn(50)),
	}
	switch rng.Intn(10) {
	case 0: // no order key at all
	case 1, 2: // multikey
		vals := make([]any, 1+rng.Intn(3))
		for i := range vals {
			vals[i] = float64(rng.Intn(12))
		}
		doc["rank"] = vals
	case 3: // string-typed order value
		doc["rank"] = fmt.Sprintf("s%02d", rng.Intn(12))
	default: // scalar, deliberately small domain to force ties
		doc["rank"] = float64(rng.Intn(12))
	}
	return doc
}

// TestFindOrderedMatchesScan is the differential property test pinning
// the indexed ordered read to the brute-force scan: for random document
// sets under interleaved inserts, replaces, and vacates, both
// paths must return byte-identical results for every combination of
// direction, limit, and filter — on both backends.
func TestFindOrderedMatchesScan(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		rng := rand.New(rand.NewSource(7))
		c := s.Collection("docs")
		c.CreateOrderedIndex("rank")
		c.CreateIndex("kind")

		filters := []struct {
			name string
			f    Filter
		}{
			{"nil", nil},
			{"eq-kind", Eq("kind", "t1")},
			{"range-n", And(Gte("n", 10.0), Lte("n", 35.0))},
		}
		check := func(round int) {
			t.Helper()
			for _, desc := range []bool{false, true} {
				for _, limit := range []int{0, 1, 3, 7, 1000} {
					for _, flt := range filters {
						want := c.findOrderedScan(flt.f, "rank", desc, limit)
						got := c.findOrdered(flt.f, "rank", desc, limit)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d desc=%v limit=%d filter=%s:\nindexed = %v\nscan    = %v",
								round, desc, limit, flt.name, got, want)
						}
					}
				}
			}
		}

		live := []string{}
		for round := 0; round < 12; round++ {
			// Mutate: a batch of inserts plus some replaces and vacates
			// (an empty document, in no index) of existing keys, so
			// version chains and index lifespans churn.
			for i := 0; i < 15; i++ {
				key := fmt.Sprintf("r%02d-%02d", round, i)
				mustInsert(t, c, key, randOrderedDoc(rng))
				live = append(live, key)
			}
			for i := 0; i < 5 && len(live) > 0; i++ {
				key := live[rng.Intn(len(live))]
				if rng.Intn(2) == 0 {
					if err := c.Upsert(key, randOrderedDoc(rng)); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := c.Upsert(key, map[string]any{}); err != nil {
						t.Fatal(err)
					}
					for j, k := range live {
						if k == key {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				}
			}
			check(round)

			// Every other round, seal the churn as a block so later
			// rounds read through multi-height version chains.
			if round%2 == 1 {
				bk := s.Backend()
				h := bk.Visible() + 1
				bk.BeginBlock(h)
				mustInsert(t, c, fmt.Sprintf("blk-%02d", round), randOrderedDoc(rng))
				live = append(live, fmt.Sprintf("blk-%02d", round))
				bk.SealBlock(h)
				check(round)
			}
		}
	})
}
