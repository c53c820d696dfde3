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
			if err := update(c, key, func(doc map[string]any) error {
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
			if got := owner.lookupEq(strValue("a"), at.h); !slices.Equal(got, at.want) {
				t.Errorf("owner index at height %d holds %v, want %v", at.h, got, at.want)
			}
			if got, scan := c.keysAt(at.h, mine), c.scanKeysAt(at.h, mine); !slices.Equal(got, scan) || !slices.Equal(got, at.want) {
				t.Errorf("unspent outputs of a at height %d: planned %v, scan %v, want %v", at.h, got, scan, at.want)
			}
		}
		// The literal decides: spent outputs of a cannot use the index
		// that holds only unspent ones.
		spentOfA := And(Eq("owner", "a"), Eq("spent", true))
		for _, tc := range []struct {
			f    Filter
			want string
		}{{mine, `point(owner eq "a")`}, {spentOfA, "full-scan(no indexed conjunct)"}} {
			if got := c.Explain(tc.f); got != tc.want {
				t.Errorf("Explain = %s, want %s", got, tc.want)
			}
		}
		if got := c.findKeys(spentOfA); !slices.Equal(got, []string{"u2"}) {
			t.Errorf("spent outputs of a: %v, want [u2]", got)
		}

		block(4, func() {
			queued := core(amount).closed.len()
			set("u2", "amount", 7.0)
			if got := amount.lookupEq(numValue(7), storage.HeightLatest); len(got) != 0 || core(amount).closed.len() != queued {
				t.Errorf("re-pricing a spent output touched the unspent-amount index: it holds %v, %d spans queued (was %d)", got, core(amount).closed.len(), queued)
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
// documents the filter may match, and the next servable conjunct
// drives. The ordered read follows the same rule, falling back to its
// scan.
func TestPartialIndexServesOnlyFiltersThatImplyIt(t *testing.T) {
	c := partialFixture(t)
	reg := obs.New()
	c.setObs(reg)
	scans := reg.Counter("docstore.full_scans")
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		// The partial index's path written first drives; the predicate
		// is residual. Written the other way round, the predicate's own
		// index drives.
		{And(Contains("caps", "cnc"), Eq("op", "REQUEST")), `point(caps contains "cnc")`},
		{And(Eq("op", "REQUEST"), Contains("caps", "cnc")), `point(op eq "REQUEST")`},
		// A nested And's conjuncts count, in written order.
		{And(And(Gte("ts", 0), Contains("caps", "cnc")), Eq("op", "REQUEST")), `range(ts >=0)`},
		{Contains("caps", "cnc"), `full-scan(partial index on "caps" needs op == "REQUEST")`},
		{And(Contains("caps", "cnc"), Eq("op", "BID")), `point(op eq "BID")`},
		{And(Not(Eq("op", "BID")), Contains("caps", "cnc")), "full-scan(no indexed conjunct)"},
	} {
		if got := c.Explain(tc.f); got != tc.want {
			t.Errorf("Explain = %s, want %s", got, tc.want)
		}
		if got, want := c.findKeys(tc.f), c.scanKeysAt(storage.HeightLatest, tc.f); !slices.Equal(got, want) {
			t.Errorf("%s: planned %v, scan %v", tc.want, got, want)
		}
	}

	for _, tc := range []struct {
		op   string
		scan bool
	}{{"REQUEST", false}, {"BID", true}} {
		before := scans.Value()
		got := c.findOrdered(Eq("op", tc.op), "ts", true, 0)
		if scanned := scans.Value() != before; scanned != tc.scan {
			t.Errorf("FindOrdered of %s by ts scanned the collection: %v, want %v", tc.op, scanned, tc.scan)
		}
		if want := c.findOrderedScan(Eq("op", tc.op), "ts", true, 0); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("FindOrdered of %s by ts: %v, the scan %v", tc.op, got, want)
		}
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
// can satisfy together plan to none. The first document to reach two
// values ends the merging for good: the band then drives on its first
// comparison alone, the rest residual, and finds that document.
func TestBandOnSingleValuedPath(t *testing.T) {
	c := bandFixture(t)
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{And(Gte("items.v", 5), Lte("items.v", 10)), "range(items.v >=5 <=10)"},
		{And(Gte("items.v", 5), Lt("items.v", 10), Gte("items.v", 7)), "range(items.v >=7 <10)"},
		{And(Lte("items.v", 10), Lt("items.v", 10), Gte("items.v", 8)), "range(items.v >=8 <10)"},
		{And(Gte("items.v", 10), Lte("items.v", 5)), "none"},
		{And(Gte("items.v", 5), Lte("items.v", "z")), "none"},
	} {
		if got := c.Explain(tc.f); got != tc.want {
			t.Errorf("Explain = %s, want %s", got, tc.want)
		}
		if got, want := c.findKeys(tc.f), c.scanKeysAt(storage.HeightLatest, tc.f); !slices.Equal(got, want) {
			t.Errorf("%s: planned %v, scan %v", tc.want, got, want)
		}
	}

	mustInsert(t, c, "straddle", map[string]any{"items": []any{map[string]any{"v": 3.0}, map[string]any{"v": 20.0}}})
	f := And(Gte("items.v", 5), Lte("items.v", 10))
	if got, want := c.Explain(f), "range(items.v >=5)"; got != want {
		t.Errorf("after the path turned multikey, the band plans as %s, want %s", got, want)
	}
	if keys := c.findKeys(f); !slices.Contains(keys, "straddle") || !slices.Equal(keys, c.scanKeysAt(storage.HeightLatest, f)) {
		t.Errorf("band after the path turned multikey found %v", keys)
	}
}
