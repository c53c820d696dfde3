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

func TestExplainShapes(t *testing.T) {
	c := plannerFixture(t)
	cases := []struct {
		name   string
		filter Filter
		want   string // prefix of the Explain rendering
	}{
		{"eq-point", Eq("op", "A"), `point(op eq "A")[2]`},
		{"contains-point", Contains("tags", "y"), `point(tags contains "y")[2]`},
		{"in-point", In("op", "A", "C"), `point(op in 2 values)[3]`},
		{"gt-range", Gt("n", 4), `range(n >4)[3]`},
		{"lte-range", Lte("n", 5), `range(n <=5)[2]`},
		{"string-range", Gte("n", "a"), `range(n >="a")[1]`},
		{"and-intersect", And(Eq("op", "B"), Gt("n", 0)), `intersect[2](point(op eq "B")[2], range(n >0)[4])`},
		{"and-prunes-unindexed", And(Eq("op", "A"), Eq("u", 10)), `point(op eq "A")[2]`},
		{"or-union", Or(Eq("op", "C"), Gt("n", 10)), `union[2](point(op eq "C")[1], range(n >10)[1])`},
		{"or-unindexable", Or(Eq("op", "A"), Eq("u", 10)), `full-scan(unindexable or-branch: no index on "u")`},
		{"not", Not(Eq("op", "A")), "full-scan(negation)"},
		{"ne", Ne("op", "A"), `full-scan(index on "op" cannot answer ne)`},
		{"exists", Exists("op", true), `full-scan(index on "op" cannot answer exists)`},
		{"unindexed", Eq("u", 10), `full-scan(no index on "u")`},
		{"hash-cannot-range", Gt("op", "A"), `full-scan(hash index on "op" cannot answer gt)`},
		{"match-all", All(), "full-scan(match-all)"},
		{"nil", nil, "full-scan(match-all)"},
		{"empty-in", In("op"), "none"},
		{"bad-regex", Regex("op", "("), "none"},
		{"incomparable-range", Gt("n", true), "none"},
		{"contains-all", ContainsAll("tags", "x", "y"), `intersect[2](point(tags contains "x")[2], point(tags contains "y")[2])`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.Explain(tc.filter); got != tc.want {
				t.Errorf("Explain = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestIntersectDrivingIndex pins the selectivity choice: the smaller
// candidate set leads the intersect regardless of conjunct order.
func TestIntersectDrivingIndex(t *testing.T) {
	c := plannerFixture(t)
	ex := c.Explain(And(Gt("n", 0), Eq("op", "C"))) // op=C is rarer than n>0
	if !strings.HasPrefix(ex, `intersect[1](point(op eq "C")[1], `) {
		t.Errorf("driving index not the most selective: %s", ex)
	}
}

// TestExplainFreshAcrossSameShapeArgs: a plan's estimates are its own
// argument's, whatever filter of the same shape compiled before it.
func TestExplainFreshAcrossSameShapeArgs(t *testing.T) {
	c := plannerFixture(t)
	// Compile Eq(op, "A") (cardinality 2), then Explain "C"
	// (cardinality 1): the rendering carries C's estimate, not A's.
	c.Plan(Eq("op", "A"))
	if got := c.Explain(Eq("op", "C")); got != `point(op eq "C")[1]` {
		t.Fatalf(`Explain(op eq "C") = %s, want live estimate [1]`, got)
	}
	// And the reverse order: compile the rarer value, Explain the
	// denser one.
	c.Plan(Eq("n", 5))
	if got := c.Explain(Eq("op", "A")); got != `point(op eq "A")[2]` {
		t.Fatalf(`Explain(op eq "A") = %s, want live estimate [2]`, got)
	}
}

// TestPlansFollowIndexDDL: every plan compiles against the indexes of
// its moment. A filter that full-scanned gains a point lookup once its
// path is indexed, one that used an index falls back to a scan once the
// index is dropped, and at every step the results are the scan's.
func TestPlansFollowIndexDDL(t *testing.T) {
	c := plannerFixture(t)
	step := func(name string, f Filter, plan string, keys ...string) {
		t.Helper()
		if got := c.Explain(f); got != plan {
			t.Errorf("%s: plan = %s, want %s", name, got, plan)
		}
		if got := c.FindKeys(f); !reflect.DeepEqual(got, keys) {
			t.Errorf("%s: keys = %v, want %v", name, got, keys)
		}
		if !reflect.DeepEqual(c.Find(f), c.FindScan(f)) {
			t.Errorf("%s: planned find differs from the scan", name)
		}
	}
	onU, both, onOp := Eq("u", 10), And(Gt("n", 0), Eq("u", 10)), Eq("op", "A")
	step("before CreateIndex(u)", onU, `full-scan(no index on "u")`, "a")
	c.CreateIndex("u")
	step("after CreateIndex(u)", onU, `point(u eq 10)[1]`, "a")
	step("after CreateIndex(u)", both, `intersect[1](point(u eq 10)[1], range(n >0)[4])`, "a")

	if !c.DropIndex("op") {
		t.Fatal("DropIndex(op) = false, index exists")
	}
	step("after DropIndex(op)", onOp, `full-scan(no index on "op")`, "a", "c")
	if c.DropIndex("op") {
		t.Fatal("second DropIndex(op) = true, index already gone")
	}
	if c.DropIndex("nonexistent") {
		t.Fatal("DropIndex(nonexistent) = true")
	}
	if !c.DropIndex("u") {
		t.Fatal("DropIndex(u) = false, index exists")
	}
	step("after DropIndex(u)", both, `range(n >0)[4]`, "a")
}

// TestPlannedResultsMatchScan spot-checks that every plan shape
// returns exactly what the full scan returns, in insertion order.
func TestPlannedResultsMatchScan(t *testing.T) {
	c := plannerFixture(t)
	filters := []Filter{
		Eq("op", "A"),
		Contains("tags", "y"),
		In("op", "A", "C"),
		Gt("n", 4),
		And(Eq("op", "B"), Gt("n", 0)),
		And(Gte("n", 2), Lte("n", 10)),
		Or(Eq("op", "C"), Gt("n", 10)),
		ContainsAll("tags", "x", "y"),
		Gte("n", "a"), // string class only: numeric n must not leak in
		In("op"),
		Regex("op", "("),
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
// path are never merged into a single bounded scan: through an
// intermediate array, a document can satisfy Gte AND Lte with two
// different values that both lie outside the merged band.
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
	f := And(Gte("items.v", 5), Lte("items.v", 10))
	keys := c.FindKeys(f)
	if !reflect.DeepEqual(keys, []string{"straddle", "inside"}) {
		t.Errorf("multikey band keys = %v, want [straddle inside]", keys)
	}
	if !reflect.DeepEqual(c.Find(f), c.FindScan(f)) {
		t.Error("planned band differs from scan")
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
	c.Count(And(Eq("op", "B"), Gt("n", 0)))
	c.FindKeys(Or(Eq("op", "C"), Lt("n", 3)))
	c.FindOrdered(Eq("op", "A"), "n", true, 0) // walks the index; compiles nothing
	if got := scans.Value(); got != base {
		t.Fatalf("planned queries executed %d full scans", got-base)
	}
	if got := plans.Value(); got != 3 {
		t.Fatalf("three planned reads counted %d compiles", got)
	}
	if reg.Counter("docstore.plan.point").Value() == 0 {
		t.Fatal("point plans not counted")
	}
	if reg.Counter("docstore.index_probes").Value() == 0 {
		t.Fatal("index probes not counted")
	}
	c.Find(Eq("u", 10))
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
	asc := c.FindOrdered(nil, "n", false, 0)
	if got, want := vals(asc), []any{1, 5, 9, 12, "str"}; !reflect.DeepEqual(got, want) {
		t.Errorf("asc = %v, want %v", got, want)
	}
	// Descending with filter and limit.
	desc := c.FindOrdered(Eq("op", "B"), "n", true, 1)
	if got, want := vals(desc), []any{12}; !reflect.DeepEqual(got, want) {
		t.Errorf("desc limit = %v, want %v", got, want)
	}
	// The no-index fallback must agree with the indexed path: "u"
	// holds 10..50 in insertion order, so descending by u walks the
	// docs backwards.
	fallback := c.FindOrdered(nil, "u", true, 3)
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
	got := c.FindOrdered(nil, "v", false, 0)
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

func TestAnalyze(t *testing.T) {
	n := Analyze(And(Eq("a", 1), Or(Gt("b", 2), Not(Contains("c", "x")))))
	if n.Kind != KindAnd || len(n.Children) != 2 {
		t.Fatalf("root = %+v", n)
	}
	if leaf := n.Children[0]; leaf.Kind != KindField || leaf.Op != OpEq || leaf.Path != "a" || leaf.Arg != 1.0 {
		t.Errorf("eq leaf = %+v", leaf)
	}
	or := n.Children[1]
	if or.Kind != KindOr || len(or.Children) != 2 {
		t.Fatalf("or = %+v", or)
	}
	if or.Children[1].Kind != KindNot || or.Children[1].Children[0].Op != OpContains {
		t.Errorf("not = %+v", or.Children[1])
	}
	if got := Analyze(nil); got.Kind != KindAll {
		t.Errorf("nil analyzes to %+v", got)
	}
	type opaque struct{ Filter }
	if got := Analyze(opaque{}); got.Kind != KindOpaque {
		t.Errorf("foreign filter analyzes to %+v", got)
	}
}
