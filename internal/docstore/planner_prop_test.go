package docstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"smartchaindb/internal/obs"
)

// The planner/scan differential property: for random documents and
// random filter trees — over indexed and unindexed paths, hash and
// ordered indexes, scalar and multikey values — the planned path must
// return byte-identical results, in identical insertion order, to the
// forced full scan. It runs over both storage backends, and keeps
// checking while documents mutate underneath the indexes.

// propPaths are the queryable dot paths. op/tags carry hash indexes,
// n/m.x ordered ones; u stays unindexed so filters mix planned and
// residual terms.
var propPaths = []string{"op", "n", "tags", "m.x", "u"}

func propDoc(rng *rand.Rand) map[string]any {
	doc := make(map[string]any)
	if rng.Intn(10) > 0 {
		doc["op"] = fmt.Sprintf("OP%d", rng.Intn(4))
	}
	if rng.Intn(10) > 0 {
		// Mixed classes on the ordered path: numbers and strings.
		if rng.Intn(4) == 0 {
			doc["n"] = fmt.Sprintf("s%02d", rng.Intn(30))
		} else {
			doc["n"] = float64(rng.Intn(50))
		}
	}
	if rng.Intn(3) > 0 {
		tags := make([]any, rng.Intn(3)+1)
		for i := range tags {
			tags[i] = fmt.Sprintf("t%d", rng.Intn(6))
		}
		doc["tags"] = tags
	}
	if rng.Intn(2) == 0 {
		doc["m"] = map[string]any{"x": float64(rng.Intn(20))}
	}
	if rng.Intn(2) == 0 {
		doc["u"] = float64(rng.Intn(10))
	}
	return doc
}

func propArg(rng *rand.Rand, path string) any {
	switch path {
	case "op":
		return fmt.Sprintf("OP%d", rng.Intn(5))
	case "tags":
		return fmt.Sprintf("t%d", rng.Intn(7))
	case "n":
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("s%02d", rng.Intn(30))
		}
		return float64(rng.Intn(50))
	case "m.x":
		return float64(rng.Intn(22))
	default:
		return float64(rng.Intn(12))
	}
}

func propFilter(rng *rand.Rand, depth int) Filter {
	if depth > 0 && rng.Intn(3) == 0 {
		n := rng.Intn(2) + 2
		subs := make([]Filter, n)
		for i := range subs {
			subs[i] = propFilter(rng, depth-1)
		}
		if rng.Intn(2) == 0 {
			return And(subs...)
		}
		return Not(subs[0])
	}
	path := propPaths[rng.Intn(len(propPaths))]
	switch rng.Intn(6) {
	case 0:
		return Eq(path, propArg(rng, path))
	case 1:
		return Gte(path, propArg(rng, path))
	case 2:
		return Lt(path, propArg(rng, path))
	case 3:
		return Lte(path, propArg(rng, path))
	case 4:
		args := make([]any, rng.Intn(4))
		for i := range args {
			args[i] = propArg(rng, path)
		}
		return In(path, args...)
	default:
		return Contains(path, propArg(rng, path))
	}
}

func TestPlannerScanDifferentialProperty(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		rng := rand.New(rand.NewSource(0xD1FF))
		c := s.Collection("docs")
		c.CreateIndex("op")
		c.CreateOrderedIndex("n")
		c.CreateIndex("tags")
		c.CreateOrderedIndex("m.x")

		live := 0
		insert := func(n int) {
			for i := 0; i < n; i++ {
				if err := c.Insert(fmt.Sprintf("d%05d", live), propDoc(rng)); err != nil {
					t.Fatal(err)
				}
				live++
			}
		}
		mutate := func(n int) {
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("d%05d", rng.Intn(live))
				switch rng.Intn(3) {
				case 0:
					_ = c.Upsert(key, map[string]any{}) // vacated: in no index
				case 1:
					_ = update(c, key, func(doc map[string]any) error {
						for k, v := range propDoc(rng) {
							doc[k] = v
						}
						if rng.Intn(3) == 0 {
							delete(doc, propPaths[rng.Intn(len(propPaths)-1)])
						}
						return nil
					})
				default:
					_ = c.Upsert(key, propDoc(rng))
				}
			}
		}

		check := func(round int) {
			for i := 0; i < 80; i++ {
				f := propFilter(rng, 2)
				// Explain renders the plan Find runs.
				if ex, plan := c.Explain(f), c.Plan(f).String(); ex != plan {
					t.Fatalf("round %d: Explain = %s, Plan = %s", round, ex, plan)
				}
				planned, scanned := c.Find(f), c.FindScan(f)
				pb, err := json.Marshal(planned)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := json.Marshal(scanned)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pb, sb) {
					t.Fatalf("round %d: plan %q diverged from scan\nplanned: %d docs %s\nscanned: %d docs %s",
						round, c.Explain(f), len(planned), pb, len(scanned), sb)
				}
				if pc, sc := c.count(f), len(scanned); pc != sc {
					t.Fatalf("round %d: plan %q Count = %d, scan = %d", round, c.Explain(f), pc, sc)
				}
			}
		}

		insert(300)
		check(0)
		for round := 1; round <= 4; round++ {
			mutate(60)
			insert(20)
			check(round)
		}
	})
}

// oneIndexPerRead runs read, a planned read of f, and checks that it
// touched exactly one index: one docstore.index_uses.* count, and one
// docstore.index_probes per key its plan probes (none for a range). A
// full-scan or none plan touches no index and is not checked.
func oneIndexPerRead(reg *obs.Registry, c *Collection, f Filter, read func()) error {
	plan := c.Plan(f)
	if plan.Kind == AccessFullScan || plan.Kind == AccessNone {
		read()
		return nil
	}
	before := reg.Snapshot().Counters
	read()
	after := reg.Snapshot().Counters
	var uses uint64
	for name, n := range after {
		if strings.HasPrefix(name, "docstore.index_uses.") {
			uses += n - before[name]
		}
	}
	probes := after["docstore.index_probes"] - before["docstore.index_probes"]
	if uses != 1 || probes != uint64(len(plan.keys)) {
		return fmt.Errorf("plan %s: %d index uses and %d probes, want 1 and %d", plan, uses, probes, len(plan.keys))
	}
	return nil
}

// TestPlannedReadTouchesOneIndex: whatever the filter, a planned read
// drives on one index and makes one probe per key it asks that index
// for — an And over two indexed paths included.
func TestPlannedReadTouchesOneIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1DE))
	s := NewStore()
	defer s.Close()
	c := s.Collection("docs")
	c.CreateIndex("op")
	c.CreateOrderedIndex("n")
	c.CreateIndex("tags")
	c.CreateOrderedIndex("m.x")
	for i := 0; i < 300; i++ {
		if err := c.Insert(fmt.Sprintf("d%05d", i), propDoc(rng)); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.New()
	s.SetObs(reg)
	filters := []Filter{
		And(Eq("op", "OP1"), Eq("tags", "t2")),
		And(Eq("op", "OP1"), Gte("n", 11)),
		And(In("tags", "t1", "t2", "t3"), Eq("op", "OP2")),
	}
	for i := 0; i < 400; i++ {
		filters = append(filters, propFilter(rng, 2))
	}
	for _, f := range filters {
		if err := oneIndexPerRead(reg, c, f, func() { c.Find(f) }); err != nil {
			t.Fatal(err)
		}
	}
}
