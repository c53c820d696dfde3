package docstore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
)

var unspent = Where{Path: "spent", Value: false}

// A partial index holds a document exactly while its current version
// matches the predicate. An output spent at height h leaves the
// unspent-owner index at h — reads below h still find it there — and
// comes back when it is unspent again; an output never unspent is
// never indexed, and an update that keeps a document outside the
// predicate does no index work. Once the retention window passes a
// closing height, the sweep retires the span.
func TestPartialIndexFollowsItsPredicate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		bk := s.Backend()
		bk.SetRetain(3)
		c := s.Collection("utxos")
		c.CreateIndexWhere("owner", false, unspent)
		c.CreateIndexWhere("amount", true, unspent)
		owner, amount := c.indexMap()["owner"], c.indexMap()["amount"]
		block := func(h int64, fn func()) {
			t.Helper()
			bk.BeginBlock(h)
			fn()
			bk.SealBlock(h)
			s.SweepIndexes()
		}
		set := func(key, field string, v any) {
			t.Helper()
			if err := c.Update(key, func(doc map[string]any) error {
				doc[field] = v
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}

		block(1, func() {
			mustInsert(t, c, "u1", map[string]any{"owner": "a", "amount": 5.0, "spent": false})
			mustInsert(t, c, "u2", map[string]any{"owner": "a", "amount": 6.0, "spent": true})
		})
		block(2, func() { set("u1", "spent", true) })
		block(3, func() { set("u1", "spent", false) })
		mine := And(Eq("owner", "a"), Eq("spent", false))
		for _, at := range []struct {
			h    int64
			want []string
		}{{1, []string{"u1"}}, {2, nil}, {3, []string{"u1"}}, {storage.HeightLatest, []string{"u1"}}} {
			if got := owner.lookupEq("s:a", at.h); !slices.Equal(got, at.want) {
				t.Errorf("owner index at height %d holds %v, want %v", at.h, got, at.want)
			}
			if got, scan := c.findKeysAt(at.h, mine), c.scanKeysAt(at.h, mine); !slices.Equal(got, scan) || !slices.Equal(got, at.want) {
				t.Errorf("unspent outputs of a at height %d: planned %v, scan %v, want %v", at.h, got, scan, at.want)
			}
		}

		block(4, func() {
			queued := core(amount).closed.len()
			set("u2", "amount", 7.0)
			if got := amount.estimateEq("f:7"); got != 0 || core(amount).closed.len() != queued {
				t.Errorf("re-pricing a spent output touched the unspent-amount index: estimate %d, %d spans queued (was %d)", got, core(amount).closed.len(), queued)
			}
		})

		// u1's first span closed at 2; the floor passes it at block 5.
		block(5, func() {})
		if n := closedSpanCount(owner); n != 0 {
			t.Errorf("%d closed spans left after the floor passed them", n)
		}
		block(6, func() { set("u1", "spent", true) })
		for h := int64(7); h <= 9; h++ {
			block(h, func() {})
		}
		if got := spanLists(owner); len(got) != 0 {
			t.Errorf("a spent output is still posted once the window passed its spend: %v", got)
		}
	})
}

// partialFixture is a transactions-shaped collection: a full operation
// index, and a capability index and an ordered timestamp index over
// REQUESTs only.
func partialFixture(t *testing.T) *Collection {
	t.Helper()
	c := NewStore().Collection("txs")
	c.CreateIndex("op")
	req := Where{Path: "op", Value: "REQUEST"}
	c.CreateIndexWhere("caps", false, req)
	c.CreateIndexWhere("ts", true, req)
	for i, op := range []string{"REQUEST", "BID", "REQUEST", "BID", "TRANSFER", "REQUEST"} {
		mustInsert(t, c, fmt.Sprintf("t%d", i), map[string]any{"op": op, "caps": []any{"cnc"}, "ts": float64(10 - i)})
	}
	return c
}

// The planner uses a partial index only for a filter whose top-level
// And holds the predicate; under any other filter the index is missing
// documents the filter may match. FindOrdered follows the same rule,
// falling back to its scan.
func TestPartialIndexServesOnlyFiltersThatImplyIt(t *testing.T) {
	c := partialFixture(t)
	reg := obs.New()
	c.setObs(reg)
	scans := reg.Counter("docstore.full_scans")
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		// The predicate conjunct rides along: every candidate of the
		// partial index satisfies it, so it is not probed.
		{And(Eq("op", "REQUEST"), Contains("caps", "cnc")), `point(caps contains "cnc")[3]`},
		// A nested And's conjuncts count; the predicate is left unprobed
		// only beside a leaf of its own And.
		{And(Eq("op", "REQUEST"), And(Gt("ts", 0), Contains("caps", "cnc"))), `intersect[3](point(op eq "REQUEST")[3], intersect[3](point(caps contains "cnc")[3], range(ts >0)[3]))`},
		{Contains("caps", "cnc"), `full-scan(partial index on "caps" needs op == "REQUEST")`},
		{And(Eq("op", "BID"), Contains("caps", "cnc")), `point(op eq "BID")[2]`},
		{Or(Eq("op", "REQUEST"), Contains("caps", "cnc")), `full-scan(unindexable or-branch: partial index on "caps" needs op == "REQUEST")`},
		{And(Not(Eq("op", "BID")), Contains("caps", "cnc")), "full-scan(no indexed conjunct)"},
	} {
		if got := c.Explain(tc.f); got != tc.want {
			t.Errorf("Explain = %s, want %s", got, tc.want)
		}
		if got, want := c.FindKeys(tc.f), c.scanKeysAt(storage.HeightLatest, tc.f); !slices.Equal(got, want) {
			t.Errorf("%s: planned %v, scan %v", tc.want, got, want)
		}
	}

	for _, tc := range []struct {
		op   string
		scan bool
	}{{"REQUEST", false}, {"BID", true}} {
		before := scans.Value()
		got := c.FindOrdered(Eq("op", tc.op), "ts", true, 0)
		if scanned := scans.Value() != before; scanned != tc.scan {
			t.Errorf("FindOrdered of %s by ts scanned the collection: %v, want %v", tc.op, scanned, tc.scan)
		}
		if want := c.findOrderedScan(Eq("op", tc.op), "ts", true, 0); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("FindOrdered of %s by ts: %v, the scan %v", tc.op, got, want)
		}
	}
}

// A shape key carries the literal of an Eq on a predicate path: a
// filter asking for spent outputs neither replays the tape an unspent
// query recorded nor uses the unspent-owner index, while another owner
// under the same predicate still hits. Creating the partial index
// bumps the predicate path's epoch.
func TestPlanCacheKeysPredicateLiterals(t *testing.T) {
	c := NewStore().Collection("utxos")
	reg := obs.New()
	c.setObs(reg)
	hits := reg.Counter("docstore.plan_cache.hits")
	epoch := c.plans.epochOf([]string{"spent"})
	c.CreateIndexWhere("owner", false, unspent)
	if c.plans.epochOf([]string{"spent"}) == epoch {
		t.Error("creating an index partial on spent left spent's plan epoch")
	}
	for i, spent := range []bool{false, true, false, true} {
		mustInsert(t, c, fmt.Sprintf("u%d", i), map[string]any{"owner": "x", "spent": spent})
	}

	if got := c.Plan(And(Eq("owner", "x"), Eq("spent", false))).String(); got != `point(owner eq "x")[2]` {
		t.Fatalf("unspent outputs of x plan as %s", got)
	}
	before := hits.Value()
	spentOnes := And(Eq("owner", "x"), Eq("spent", true))
	if got := c.Plan(spentOnes).String(); got != "full-scan(no indexed conjunct)" {
		t.Errorf("spent outputs of x plan as %s", got)
	}
	if hits.Value() != before {
		t.Error("the spent query replayed the unspent query's tape")
	}
	if got, want := c.FindKeys(spentOnes), []string{"u1", "u3"}; !slices.Equal(got, want) {
		t.Errorf("spent outputs of x: %v, want %v", got, want)
	}
	before = hits.Value()
	c.Plan(And(Eq("owner", "y"), Eq("spent", false)))
	if hits.Value() != before+1 {
		t.Error("another owner's unspent query missed the cache")
	}
}

// bandFixture indexes items.v, which every document reaches once.
func bandFixture(t *testing.T) *Collection {
	t.Helper()
	c := NewStore().Collection("docs")
	c.CreateOrderedIndex("items.v")
	for i := 1; i <= 20; i++ {
		mustInsert(t, c, fmt.Sprintf("d%02d", i), map[string]any{"items": []any{map[string]any{"v": float64(i)}}})
	}
	return c
}

// While no document reaches two values at a path, an And of
// comparisons there is one bounded range; comparisons no single value
// can satisfy together plan to none.
func TestBandOnSingleValuedPath(t *testing.T) {
	c := bandFixture(t)
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{And(Gte("items.v", 5), Lte("items.v", 10)), "range(items.v >=5 <=10)[6]"},
		{And(Gt("items.v", 5), Lt("items.v", 10), Gte("items.v", 7)), "range(items.v >=7 <10)[3]"},
		{And(Lte("items.v", 10), Lt("items.v", 10), Gt("items.v", 8)), "range(items.v >8 <10)[1]"},
		{And(Gte("items.v", 10), Lte("items.v", 5)), "none"},
		{And(Gte("items.v", 5), Lte("items.v", "z")), "none"},
	} {
		if got := c.Explain(tc.f); got != tc.want {
			t.Errorf("Explain = %s, want %s", got, tc.want)
		}
		if got, want := c.FindKeys(tc.f), c.scanKeysAt(storage.HeightLatest, tc.f); !slices.Equal(got, want) {
			t.Errorf("%s: planned %v, scan %v", tc.want, got, want)
		}
	}
}

// The first document to reach two values at the path ends the merging
// for good, and bumps the path's plan epoch: the tape recorded for the
// one-range plan is not replayed into the two-range one.
func TestPlanCacheMultikeyFlip(t *testing.T) {
	c := bandFixture(t)
	reg := obs.New()
	c.setObs(reg)
	misses := reg.Counter("docstore.plan_cache.misses")
	f := And(Gte("items.v", 5), Lte("items.v", 10))
	c.Plan(f)
	c.Plan(f)

	mustInsert(t, c, "straddle", map[string]any{"items": []any{map[string]any{"v": 3.0}, map[string]any{"v": 20.0}}})
	before := misses.Value()
	got := c.Plan(f).String()
	if misses.Value() != before+1 {
		t.Error("the plan after the path turned multikey replayed a tape recorded before")
	}
	if want := c.Explain(f); got != want || want != "intersect[11](range(items.v <=10)[11], range(items.v >=5)[17])" {
		t.Errorf("after the flip, Plan = %s and Explain = %s, want two ranges", got, want)
	}
	if keys := c.FindKeys(f); !slices.Contains(keys, "straddle") || !slices.Equal(keys, c.scanKeysAt(storage.HeightLatest, f)) {
		t.Errorf("band after the flip found %v", keys)
	}
}
