package docstore

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"smartchaindb/internal/obs"
)

// plannerFixture builds a small collection with one hash index (op),
// one ordered index (n), and one multikey hash index (tags); "u" stays
// unindexed.
func plannerFixture(t *testing.T) *Collection {
	t.Helper()
	s := NewStore()
	t.Cleanup(func() { s.Close() })
	c := s.Collection("docs")
	c.CreateIndex("op")
	c.CreateOrderedIndex("n")
	c.CreateIndex("tags")
	docs := []map[string]any{
		{"op": "A", "n": 1, "tags": []any{"x", "y"}, "u": 10},
		{"op": "B", "n": 5, "tags": []any{"y"}, "u": 20},
		{"op": "A", "n": 9, "tags": []any{"z"}, "u": 30},
		{"op": "C", "n": "str", "u": 40},
		{"op": "B", "n": 12, "tags": []any{"x"}, "u": 50},
	}
	for i, d := range docs {
		if err := c.Insert(string(rune('a'+i)), d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// opaque is a Filter from outside the package: the planner knows only
// that it matches, so it scans.
type opaque struct{}

func (opaque) Matches(map[string]any) bool { return true }

func TestExplainShapes(t *testing.T) {
	c := plannerFixture(t)
	cases := []struct {
		name   string
		filter Filter
		want   string // the Explain rendering
	}{
		{"eq-point", Eq("op", "A"), `point(op eq "A")`},
		{"contains-point", Contains("tags", "y"), `point(tags contains "y")`},
		{"in-point", In("op", "A", "C"), `point(op in 2 values)`},
		// Gt, Ne and Or are written with the operators that remain:
		// x > 4 as x >= 4 and not x == 4, a disjunction by De Morgan.
		{"gt-range", And(Gte("n", 4), Not(Eq("n", 4))), `range(n >=4)`},
		{"lt-range", Lt("n", 5), `range(n <5)`},
		{"lte-range", Lte("n", 5), `range(n <=5)`},
		{"string-range", Gte("n", "a"), `range(n >="a")`},
		{"and-first-servable-drives", And(Eq("op", "B"), Gte("n", 0)), `point(op eq "B")`},
		{"and-prunes-unindexed", And(Eq("op", "A"), Eq("u", 10)), `point(op eq "A")`},
		{"and-skips-unindexed", And(Eq("u", 10), Eq("op", "A")), `point(op eq "A")`},
		{"and-empty", And(Eq("op", "A"), In("op")), "none"},
		{"or-indexable", Not(And(Not(Eq("op", "C")), Not(Gte("n", 10)))), "full-scan(negation)"},
		{"or-unindexable", Not(And(Not(Eq("op", "A")), Not(Eq("u", 10)))), "full-scan(negation)"},
		{"not", Not(Eq("op", "A")), "full-scan(negation)"},
		{"ne", Not(Eq("op", "B")), "full-scan(negation)"},
		{"unindexed", Eq("u", 10), `full-scan(no index on "u")`},
		{"hash-cannot-range", Gte("op", "A"), `full-scan(hash index on "op" cannot answer gte)`},
		{"nil", nil, "full-scan(match-all)"},
		{"opaque", opaque{}, "full-scan(opaque filter)"},
		{"empty-in", In("op"), "none"},
		{"incomparable-range", Gte("n", true), "none"},
		{"contains-all", And(Contains("tags", "x"), Contains("tags", "y")), `point(tags contains "x")`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.Explain(tc.filter); got != tc.want {
				t.Errorf("Explain = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestAndDrivesOnFirstServableConjunct pins the access rule: the
// written order decides which index drives, not the candidate counts.
// op=C is rarer than n>=0, yet written second it is a residual check;
// either way the results are the scan's.
func TestAndDrivesOnFirstServableConjunct(t *testing.T) {
	c := plannerFixture(t)
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{And(Gte("n", 0), Eq("op", "C")), `range(n >=0)`},
		{And(Eq("op", "C"), Gte("n", 0)), `point(op eq "C")`},
		{And(Eq("u", 40), Contains("tags", "x"), Eq("op", "A")), `point(tags contains "x")`},
	} {
		if got := c.Explain(tc.f); got != tc.want {
			t.Errorf("Explain = %s, want %s", got, tc.want)
		}
		if !reflect.DeepEqual(c.Find(tc.f), c.FindScan(tc.f)) {
			t.Errorf("%s: planned find differs from the scan", tc.want)
		}
	}
}

// TestExplainFreshAcrossSameShapeArgs: a plan probes its own argument,
// whatever filter of the same shape compiled before it.
func TestExplainFreshAcrossSameShapeArgs(t *testing.T) {
	c := plannerFixture(t)
	c.Plan(Eq("op", "A"))
	if got := c.Explain(Eq("op", "C")); got != `point(op eq "C")` {
		t.Fatalf(`Explain(op eq "C") = %s`, got)
	}
	if got := c.findKeys(Eq("op", "C")); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf(`findKeys(op eq "C") after a compile of "A" = %v, want [d]`, got)
	}
}

// TestPlansFollowIndexDDL: every plan compiles against the indexes of
// its moment. A filter that full-scanned gains a point lookup once its
// path is indexed, and at every step the results are the scan's.
func TestPlansFollowIndexDDL(t *testing.T) {
	c := plannerFixture(t)
	step := func(name string, f Filter, plan string, keys ...string) {
		t.Helper()
		if got := c.Explain(f); got != plan {
			t.Errorf("%s: plan = %s, want %s", name, got, plan)
		}
		if got := c.findKeys(f); !reflect.DeepEqual(got, keys) {
			t.Errorf("%s: keys = %v, want %v", name, got, keys)
		}
		if !reflect.DeepEqual(c.Find(f), c.FindScan(f)) {
			t.Errorf("%s: planned find differs from the scan", name)
		}
	}
	onU, both := Eq("u", 10), And(Eq("u", 10), Gte("n", 0))
	step("before CreateIndex(u)", onU, `full-scan(no index on "u")`, "a")
	step("before CreateIndex(u)", both, `range(n >=0)`, "a")
	c.CreateIndex("u")
	step("after CreateIndex(u)", onU, `point(u eq 10)`, "a")
	step("after CreateIndex(u)", both, `point(u eq 10)`, "a")
}

// TestPlannedResultsMatchScan spot-checks that every plan shape
// returns exactly what the full scan returns, in insertion order.
func TestPlannedResultsMatchScan(t *testing.T) {
	c := plannerFixture(t)
	filters := []Filter{
		Eq("op", "A"),
		Contains("tags", "y"),
		In("op", "A", "C"),
		Gte("n", 5),
		Lt("n", 5),
		And(Eq("op", "B"), Gte("n", 0)),
		And(Gte("n", 0), Eq("op", "B")),
		And(Gte("n", 2), Lte("n", 10)),
		And(Contains("tags", "x"), Contains("tags", "y")),
		Gte("n", "a"), // string class only: numeric n must not leak in
		In("op"),
	}
	for _, f := range filters {
		ex := c.Explain(f)
		if strings.Contains(ex, "full-scan") {
			t.Errorf("filter unexpectedly unplanned: %s", ex)
			continue
		}
		planned, scanned := c.Find(f), c.FindScan(f)
		if !reflect.DeepEqual(planned, scanned) {
			t.Errorf("plan %s: planned %v != scanned %v", ex, planned, scanned)
		}
	}
}

// TestMultikeyRangeIntersection pins the reason comparisons on one
// multikey path are never merged into a single bounded scan: through
// an intermediate array, a document can satisfy Gte AND Lte with two
// different values that both lie outside the merged band. The first
// comparison drives and the other is residual.
func TestMultikeyRangeIntersection(t *testing.T) {
	s := NewStore()
	defer s.Close()
	c := s.Collection("docs")
	c.CreateOrderedIndex("items.v")
	item := func(vs ...any) map[string]any {
		arr := make([]any, len(vs))
		for i, v := range vs {
			arr[i] = map[string]any{"v": v}
		}
		return map[string]any{"items": arr}
	}
	if err := c.Insert("straddle", item(3, 20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("inside", item(7)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("outside", item(1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    Filter
		want string
	}{
		{And(Gte("items.v", 5), Lte("items.v", 10)), "range(items.v >=5)"},
		{And(Lte("items.v", 10), Gte("items.v", 5)), "range(items.v <=10)"},
	} {
		if got := c.Explain(tc.f); got != tc.want {
			t.Errorf("Explain = %s, want %s", got, tc.want)
		}
		if keys := c.findKeys(tc.f); !reflect.DeepEqual(keys, []string{"straddle", "inside"}) {
			t.Errorf("%s: multikey band keys = %v, want [straddle inside]", tc.want, keys)
		}
		if !reflect.DeepEqual(c.Find(tc.f), c.FindScan(tc.f)) {
			t.Errorf("%s: planned band differs from scan", tc.want)
		}
	}
}

// TestFullScanCounter pins the observable: planned queries leave the
// obs registry's full-scan counter flat, unplannable ones bump it,
// the planner's decisions land in the plan-kind counters, and every
// compile counts once in docstore.plan_cache.misses (the name the
// benchmark reads plans by).
func TestFullScanCounter(t *testing.T) {
	c := plannerFixture(t)
	reg := obs.New()
	c.setObs(reg)
	scans, plans := reg.Counter("docstore.full_scans"), reg.Counter("docstore.plan_cache.misses")
	base := scans.Value()
	c.Find(Eq("op", "A"))
	c.count(And(Eq("op", "B"), Gte("n", 0)))
	c.findKeys(And(Lt("n", 3), Eq("op", "A")))
	c.snapshot().BorrowFindOrdered(Eq("op", "A"), "n", true, 0) // walks the index; compiles nothing
	if got := scans.Value(); got != base {
		t.Fatalf("planned queries executed %d full scans", got-base)
	}
	if got := plans.Value(); got != 3 {
		t.Fatalf("three planned reads counted %d compiles", got)
	}
	if reg.Counter("docstore.plan.point").Value() != 2 || reg.Counter("docstore.plan.range").Value() != 1 {
		t.Fatal("point and range plans not counted")
	}
	if reg.Counter("docstore.index_probes").Value() == 0 {
		t.Fatal("index probes not counted")
	}
	c.Find(Not(Eq("op", "C")))
	if got := scans.Value(); got != base+1 {
		t.Fatalf("full-scan counter = %d, want %d", got, base+1)
	}
	if got := plans.Value(); got != 4 {
		t.Fatalf("four reads counted %d compiles", got)
	}
	if reg.Counter("docstore.plan.full_scan").Value() == 0 {
		t.Fatal("full-scan plans not counted")
	}
}

func TestFindOrdered(t *testing.T) {
	c := plannerFixture(t)
	vals := func(docs []map[string]any) []any {
		out := make([]any, len(docs))
		for i, d := range docs {
			out[i] = d["n"]
		}
		return out
	}
	// Ascending: numbers before the string class, insertion order ties.
	// (The memory backend stores the inserted ints verbatim.)
	asc := c.findOrdered(nil, "n", false, 0)
	if got, want := vals(asc), []any{1, 5, 9, 12, "str"}; !reflect.DeepEqual(got, want) {
		t.Errorf("asc = %v, want %v", got, want)
	}
	// Descending with filter and limit.
	desc := c.findOrdered(Eq("op", "B"), "n", true, 1)
	if got, want := vals(desc), []any{12}; !reflect.DeepEqual(got, want) {
		t.Errorf("desc limit = %v, want %v", got, want)
	}
	// The no-index fallback must agree with the indexed path: "u"
	// holds 10..50 in insertion order, so descending by u walks the
	// docs backwards.
	fallback := c.findOrdered(nil, "u", true, 3)
	if got, want := vals(fallback), []any{12, "str", 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("fallback desc n-values = %v, want %v", got, want)
	}
}

// TestFindOrderedMultikeyDedup: a document indexed under several
// values must stream exactly once, at its first value in walk order.
func TestFindOrderedMultikeyDedup(t *testing.T) {
	s := NewStore()
	defer s.Close()
	c := s.Collection("docs")
	c.CreateOrderedIndex("v")
	if err := c.Insert("multi", map[string]any{"v": []any{1, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("mid", map[string]any{"v": 5}); err != nil {
		t.Fatal(err)
	}
	got := c.findOrdered(nil, "v", false, 0)
	if len(got) != 2 {
		t.Fatalf("multikey doc duplicated: %d results", len(got))
	}
	if !reflect.DeepEqual(got[0]["v"], []any{1, 9}) || !reflect.DeepEqual(got[1]["v"], 5) {
		t.Errorf("order = %v", got)
	}
	// Matches the scan+sort fallback semantics (min value when asc).
	if fb := c.findOrderedScan(nil, "v", false, 0); !reflect.DeepEqual(got, fb) {
		t.Errorf("indexed %v != fallback %v", got, fb)
	}
}

// TestInSetMatchesLinearSemantics pins the hash-set fast path of In
// against the linear valuesEqual reference: NaN members match nothing,
// -0 and +0 are one value, and a non-scalar member falls back to the
// linear scan without changing scalar results.
func TestInSetMatchesLinearSemantics(t *testing.T) {
	nan := math.NaN()
	doc := func(v any) map[string]any { return map[string]any{"v": v} }
	if In("v", nan).Matches(doc(nan)) {
		t.Error("In(NaN) matched a NaN value; NaN equals nothing")
	}
	if !In("v", -0.0, "x").Matches(doc(0.0)) || !In("v", 0.0).Matches(doc(-0.0)) {
		t.Error("-0 and +0 must be the same In member")
	}
	// A non-scalar member forces the linear path; scalar members still match.
	mixed := In("v", []any{"weird"}, 3)
	if !mixed.Matches(doc(3.0)) || mixed.Matches(doc(4.0)) {
		t.Error("linear fallback diverged on scalar members")
	}
}
