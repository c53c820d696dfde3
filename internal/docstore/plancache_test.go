package docstore

import (
	"math/rand"
	"reflect"
	"testing"

	"smartchaindb/internal/obs"
)

// randomFilter builds filters over the plannerFixture paths, mixing
// indexed and unindexed leaves, every operator the planner handles,
// and nested boolean structure — the shape space the cache keys on.
func randomFilter(rng *rand.Rand, depth int) Filter {
	if depth > 0 && rng.Float64() < 0.4 {
		n := 2 + rng.Intn(2)
		fs := make([]Filter, n)
		for i := range fs {
			fs[i] = randomFilter(rng, depth-1)
		}
		switch rng.Intn(3) {
		case 0:
			return And(fs...)
		case 1:
			return Or(fs...)
		default:
			return Not(fs[0])
		}
	}
	paths := []string{"op", "n", "tags", "u"}
	path := paths[rng.Intn(len(paths))]
	vals := []any{"A", "B", "C", 1, 5, 9, 12, "str", 10, "x", "y"}
	v := vals[rng.Intn(len(vals))]
	switch rng.Intn(6) {
	case 0:
		return Eq(path, v)
	case 1:
		return Gt(path, v)
	case 2:
		return Lte(path, v)
	case 3:
		return In(path, vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
	case 4:
		return All()
	default:
		return Eq(path, v)
	}
}

// TestPlanCacheReplayMatchesFreshCompile pins the cache's core
// contract: a replayed compile renders byte-identical to the recording
// one (same access kinds, same drive order, same estimates) and
// executes to the same result set as an index-free scan.
func TestPlanCacheReplayMatchesFreshCompile(t *testing.T) {
	c := plannerFixture(t)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		f := randomFilter(rng, 2)
		first := c.Plan(f).String() // records on miss (or replays an earlier shape)
		for rep := 0; rep < 2; rep++ {
			if got := c.Plan(f).String(); got != first {
				t.Fatalf("filter %d rep %d: plan drifted under cache:\nfirst: %s\nthen:  %s", i, rep, first, got)
			}
		}
		if got, want := c.Find(f), c.FindScan(f); !sameDocSet(got, want) {
			t.Fatalf("filter %d (%s): cached plan results diverge from scan", i, first)
		}
	}
}

// TestPlanCacheHitBindsCurrentArgs: two filters sharing a shape share
// a tape, but the hit's closures must bind the *current* argument —
// the property that makes the cache correctness-neutral.
func TestPlanCacheHitBindsCurrentArgs(t *testing.T) {
	c := plannerFixture(t)
	reg := obs.New()
	c.setObs(reg)
	hits := reg.Counter("docstore.plan_cache.hits")

	a := c.FindKeys(Eq("op", "A"))
	base := hits.Value()
	b := c.FindKeys(Eq("op", "B")) // same shape, different value: a hit
	if hits.Value() == base {
		t.Fatal("same-shape filter did not hit the plan cache")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatalf("cached plan returned the recording filter's rows: %v vs %v", a, b)
	}
	if want := c.FindKeys(Eq("op", "B")); !reflect.DeepEqual(b, want) {
		t.Fatalf("hit keys = %v, want %v", b, want)
	}
}

// TestPlanCacheInvalidation: index DDL must invalidate — a shape that
// full-scanned gains an index and replans, a shape that used an index
// loses it and falls back, and repeated compiles stay stable between
// invalidations.
func TestPlanCacheInvalidation(t *testing.T) {
	c := plannerFixture(t)
	reg := obs.New()
	c.setObs(reg)
	invals := reg.Counter("docstore.plan_cache.invalidations")

	f := Eq("u", 10)
	if got := c.Plan(f).String(); got != `full-scan(no index on "u")` {
		t.Fatalf("pre-index plan = %s", got)
	}
	c.Plan(f) // warm the cache with the full-scan shape

	base := invals.Value()
	c.CreateIndex("u")
	if invals.Value() != base+1 {
		t.Fatalf("CreateIndex bumped invalidations by %d, want 1", invals.Value()-base)
	}
	if got := c.Plan(f).String(); got != `point(u eq 10)[1]` {
		t.Fatalf("post-index plan = %s (stale cached plan?)", got)
	}
	if got, want := c.FindKeys(f), []string{"a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-index keys = %v, want %v", got, want)
	}

	g := Eq("op", "A")
	c.Plan(g)
	c.Plan(g) // cached as point(op ...)
	if !c.DropIndex("op") {
		t.Fatal("DropIndex(op) = false, index exists")
	}
	if got := c.Plan(g).String(); got != `full-scan(no index on "op")` {
		t.Fatalf("post-drop plan = %s (stale cached plan?)", got)
	}
	if got, want := c.FindKeys(g), []string{"a", "c"}; !sameKeySet(got, want) {
		t.Fatalf("post-drop keys = %v, want %v", got, want)
	}
	if c.DropIndex("op") {
		t.Fatal("second DropIndex(op) = true, index already gone")
	}
	if c.DropIndex("nonexistent") {
		t.Fatal("DropIndex(nonexistent) = true")
	}
}

// TestPlanCacheCounters: misses on first compile of a shape, hits on
// repeats, and distinct shapes (different arg class, different list
// length, different structure) miss independently.
func TestPlanCacheCounters(t *testing.T) {
	c := plannerFixture(t)
	reg := obs.New()
	c.setObs(reg)
	hits := reg.Counter("docstore.plan_cache.hits")
	misses := reg.Counter("docstore.plan_cache.misses")

	c.Plan(Eq("op", "A"))
	if hits.Value() != 0 || misses.Value() != 1 {
		t.Fatalf("after first compile: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	c.Plan(Eq("op", "Z"))
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("after same shape: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	c.Plan(Eq("op", 7)) // different arg class: new shape
	if misses.Value() != 2 {
		t.Fatalf("different arg class did not miss: misses=%d", misses.Value())
	}
	c.Plan(In("op", "A", "B"))
	c.Plan(In("op", "A", "B", "C")) // different list length: new shape
	if misses.Value() != 4 {
		t.Fatalf("IN list lengths shared a shape: misses=%d", misses.Value())
	}
}

// TestExplainFreshAcrossSameShapeArgs: Explain must report live
// estimates no matter which same-shape argument warmed the cache —
// the tape replay that serves Find would otherwise leak the recording
// argument's cardinality into the rendering (and make the output
// depend on compile order, which showed up as a flaky
// plan-stability-across-reopen test at the ledger layer).
func TestExplainFreshAcrossSameShapeArgs(t *testing.T) {
	c := plannerFixture(t)
	// Warm the Eq(op, string) shape with "A" (cardinality 2) via the
	// replaying hot path, then Explain "C" (cardinality 1): the
	// rendering must carry C's own estimate, not A's taped one.
	c.Plan(Eq("op", "A"))
	if got := c.Explain(Eq("op", "C")); got != `point(op eq "C")[1]` {
		t.Fatalf(`Explain(op eq "C") = %s, want live estimate [1]`, got)
	}
	// And the reverse order: warm with the rarer value, Explain the
	// denser one.
	c.Plan(Eq("n", 5))
	if got := c.Explain(Eq("op", "A")); got != `point(op eq "A")[2]` {
		t.Fatalf(`Explain(op eq "A") = %s, want live estimate [2]`, got)
	}
}

// TestPlanCacheEpochRace: a put recorded against a pre-invalidation
// path epoch must be refused — the tape may describe dropped indexes.
// A put whose paths were untouched by the DDL is accepted.
func TestPlanCacheEpochRace(t *testing.T) {
	var pc planCache
	key := []byte("shape")
	paths := []string{"u"}
	stamp := pc.epochOf(paths)
	pc.invalidatePath("u") // DDL on u lands while the recording compile runs
	pc.put(key, paths, stamp, []int{1, 2, 3})
	if _, ok := pc.get(key, pc.epochOf(paths)); ok {
		t.Fatal("stale-epoch tape was cached")
	}
	// A recording against the current epoch is accepted.
	now := pc.epochOf(paths)
	pc.put(key, paths, now, []int{4})
	if vals, ok := pc.get(key, now); !ok || len(vals) != 1 || vals[0] != 4 {
		t.Fatalf("current-epoch tape not served: %v %v", vals, ok)
	}
	// DDL on an unrelated path leaves the entry valid...
	pc.invalidatePath("other")
	if _, ok := pc.get(key, pc.epochOf(paths)); !ok {
		t.Fatal("unrelated DDL invalidated the entry")
	}
	// ...while DDL on a referenced path moves its stamp and misses.
	pc.invalidatePath("u")
	if _, ok := pc.get(key, pc.epochOf(paths)); ok {
		t.Fatal("entry from an older path epoch served after DDL on its path")
	}
	// A put recorded concurrently with an unrelated DDL also lands.
	key2, paths2 := []byte("shape2"), []string{"op", "n"}
	stamp2 := pc.epochOf(paths2)
	pc.invalidatePath("u")
	pc.put(key2, paths2, stamp2, []int{7})
	if vals, ok := pc.get(key2, pc.epochOf(paths2)); !ok || vals[0] != 7 {
		t.Fatal("unrelated mid-compile DDL refused a valid recording")
	}
}

// TestPlanCacheCrossDDLWarmth is the cross-DDL differential: index DDL
// on one path must replan every shape referencing that path (including
// full-scan shapes on a previously-unindexed path) while shapes over
// untouched paths stay warm — and every query result stays identical
// to the index-free scan across each DDL step.
func TestPlanCacheCrossDDLWarmth(t *testing.T) {
	c := plannerFixture(t)
	reg := obs.New()
	c.setObs(reg)
	hits := reg.Counter("docstore.plan_cache.hits")
	misses := reg.Counter("docstore.plan_cache.misses")

	fOp := Eq("op", "A") // indexed path "op"
	fN := Gt("n", 4)     // ordered-indexed path "n"
	fU := Eq("u", 10)    // unindexed path "u": full-scan shape
	all := []Filter{fOp, fN, fU}
	check := func(step string) {
		t.Helper()
		for _, f := range all {
			if got, want := c.Find(f), c.FindScan(f); !sameDocSet(got, want) {
				t.Fatalf("%s: cached plan diverges from scan for %v", step, f)
			}
		}
	}
	for _, f := range all {
		c.Plan(f) // warm every shape
	}
	check("warm")

	// DDL on "u" (create an index where none existed): the full-scan
	// shape on u must miss and replan to a point lookup; op and n
	// shapes must stay warm.
	h0, m0 := hits.Value(), misses.Value()
	c.CreateIndex("u")
	c.Plan(fOp)
	c.Plan(fN)
	if hits.Value() != h0+2 || misses.Value() != m0 {
		t.Fatalf("unrelated shapes went cold after CreateIndex(u): hits %d→%d misses %d→%d",
			h0, hits.Value(), m0, misses.Value())
	}
	if got := c.Plan(fU).String(); got != `point(u eq 10)[1]` {
		t.Fatalf("post-index plan on u = %s (stale full-scan tape?)", got)
	}
	if misses.Value() != m0+1 {
		t.Fatalf("shape on u did not replan after CreateIndex(u): misses %d→%d", m0, misses.Value())
	}
	check("create-u")

	// DDL on "op" (drop): the op shape falls back to a full scan; the
	// n and u shapes stay warm.
	h1, m1 := hits.Value(), misses.Value()
	if !c.DropIndex("op") {
		t.Fatal("DropIndex(op) = false")
	}
	c.Plan(fN)
	c.Plan(fU)
	if hits.Value() != h1+2 || misses.Value() != m1 {
		t.Fatalf("unrelated shapes went cold after DropIndex(op): hits %d→%d misses %d→%d",
			h1, hits.Value(), m1, misses.Value())
	}
	if got := c.Plan(fOp).String(); got != `full-scan(no index on "op")` {
		t.Fatalf("post-drop plan on op = %s (stale indexed tape?)", got)
	}
	check("drop-op")

	// A compound shape referencing both a touched and an untouched
	// path must miss when either of its paths moves.
	fBoth := And(Gt("n", 4), Eq("u", 10))
	c.Plan(fBoth)
	mm := misses.Value()
	c.DropIndex("u")
	c.Plan(fBoth)
	if misses.Value() != mm+1 {
		t.Fatal("compound shape referencing a dropped path did not replan")
	}
	check("drop-u")
}

func sameDocSet(a, b []map[string]any) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, d := range a {
		for i, e := range b {
			if !used[i] && reflect.DeepEqual(d, e) {
				used[i] = true
				continue outer
			}
		}
		return false
	}
	return true
}

func sameKeySet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]int, len(a))
	for _, k := range a {
		set[k]++
	}
	for _, k := range b {
		set[k]--
	}
	for _, n := range set {
		if n != 0 {
			return false
		}
	}
	return true
}
