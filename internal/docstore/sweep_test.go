package docstore

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
)

// sweepExamined runs Store.SweepIndexes and reports how many span
// lists it examined, read off docstore.index_sweep_spans; the store
// needs a registry (SetObs) for there to be a counter.
func sweepExamined(s *Store) int {
	before := s.sweepSpans.Value()
	s.SweepIndexes()
	return int(s.sweepSpans.Value() - before)
}

// core opens up either index kind for the tests below.
func core(ix secondaryIndex) *indexCore {
	switch x := ix.(type) {
	case *hashIndex:
		return &x.indexCore
	case *orderedIndex:
		return &x.indexCore
	}
	panic("unknown index kind")
}

// closedSpanCount counts the closed spans an index still holds.
func closedSpanCount(ix secondaryIndex) int {
	n := 0
	for _, sl := range spanLists(ix) {
		for _, sp := range sl {
			if sp.died != spanOpen {
				n++
			}
		}
	}
	return n
}

// Index lifespan GC is tied to the retention floor advancing at block
// seal: closed spans survive exactly as long as a snapshot could read
// them, and Store.SweepIndexes drops them the moment the floor passes
// their death height — no mutation-count threshold involved.
func TestSweepIndexesFollowsFloor(t *testing.T) {
	be := storage.NewMemory()
	be.SetRetain(1) // floor == visible: every sealed block expires the last
	s := NewStoreWith(be)
	s.SetObs(obs.New())
	c := s.Collection("t")
	c.CreateIndex("v")
	c.CreateOrderedIndex("w")

	for h := int64(1); h <= 5; h++ {
		be.BeginBlock(h)
		key := fmt.Sprintf("doc-%d", h)
		if err := c.Insert(key, map[string]any{"v": float64(h), "w": float64(h)}); err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
		// Close the previous block's spans: the update moves both
		// indexed values, ending one lifespan per index.
		if h > 1 {
			prev := fmt.Sprintf("doc-%d", h-1)
			if err := update(c, prev, func(doc map[string]any) error {
				doc["v"] = float64(-h)
				doc["w"] = float64(-h)
				return nil
			}); err != nil {
				t.Fatalf("update %s: %v", prev, err)
			}
		}
		be.SealBlock(h)

		// Before the sweep the block's closed spans are queued; after
		// it, everything below the floor is gone. With retain=1 the
		// floor sits at h, so every span closed this block sweeps.
		if want := min(h-1, 1) * 2; int64(sweepExamined(s)) != want {
			t.Fatalf("after seal %d: sweep did not examine %d span lists", h, want)
		}
		for path, ix := range c.indexMap() {
			if q, dead := core(ix).closed.len(), closedSpanCount(ix); q != 0 || dead != 0 {
				t.Fatalf("after seal %d: index %s holds %d queued, %d closed spans, want none (floor %d)", h, path, q, dead, be.Floor())
			}
		}
	}

	// The live entries are untouched by the sweeps.
	if got := len(c.Find(Eq("v", float64(5)))); got != 1 {
		t.Fatalf("doc-5 lookup after sweeps: %d docs, want 1", got)
	}
}

// A sweep the floor has not caught up with must leave closed spans
// above it alone: they stay queued, and readable, until the floor
// actually advances past their death.
func TestSweepIndexesStableFloorKeepsSpans(t *testing.T) {
	be := storage.NewMemory()
	be.SetRetain(100) // wide window: floor stays far behind
	s := NewStoreWith(be)
	s.SetObs(obs.New())
	c := s.Collection("t")
	c.CreateIndex("v")
	hash := c.indexMap()["v"].(*hashIndex)

	be.BeginBlock(1)
	if err := c.Insert("a", map[string]any{"v": "x"}); err != nil {
		t.Fatal(err)
	}
	be.SealBlock(1)
	be.BeginBlock(2)
	if err := update(c, "a", func(doc map[string]any) error { doc["v"] = "y"; return nil }); err != nil {
		t.Fatal(err)
	}
	be.SealBlock(2)

	if n := sweepExamined(s); n != 0 { // floor is still below the death height
		t.Fatalf("sweep under a wide window examined %d span lists, want 0", n)
	}
	if q, dead := hash.closed.len(), closedSpanCount(hash); q != 1 || dead != 1 {
		t.Fatalf("%d queued, %d closed spans after sweep under a wide window, want 1 and 1 (retained for snapshots)", q, dead)
	}
	// The historical read the retained span serves still works.
	if keys := hash.lookupEq(strValue("x"), 1); len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("lookupEq at h=1 = %v, want [a]", keys)
	}
}

// A store that never seals a block never sweeps, so its indexes must
// not accumulate lifespans on their own: a span closing at or below
// the floor (stamp and floor are both 0 here) is dropped where it
// closes, and an update that leaves an indexed value alone closes
// nothing.
func TestUnsealedStoreKeepsOneSpanPerLiveValue(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("t")
		c.CreateIndex("flag")
		c.CreateOrderedIndex("n")
		c.CreateIndex("fixed")
		mustInsert(t, c, "k", map[string]any{"flag": false, "n": 0.0, "fixed": "x", "free": 0.0})
		for i := 1; i <= 10000; i++ {
			if err := update(c, "k", func(doc map[string]any) error {
				doc["flag"] = i%2 == 1
				doc["n"] = float64(i % 3)
				doc["free"] = float64(i)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for path, ix := range c.indexMap() {
			lists := spanLists(ix)
			if len(lists) != 1 {
				t.Errorf("index %s holds %d (value, document) pairs, want 1: %v", path, len(lists), lists)
			}
			for k, sl := range lists {
				if len(sl) != 1 || !sl.open() {
					t.Errorf("index %s, %v: spans %v, want one open span", path, k, sl)
				}
			}
			if q := core(ix).closed.len(); q != 0 {
				t.Errorf("index %s queues %d closed spans on a store that never sweeps", path, q)
			}
		}
		if got := c.Find(And(Eq("flag", false), Eq("n", 1.0), Eq("fixed", "x"))); len(got) != 1 {
			t.Errorf("planned read after the updates found %d documents, want 1", len(got))
		}
	})
}

// The queue is a FIFO because a backend's stamp heights never run
// backwards. Pin that where it is defined, on both backends, through
// every way the clock moves: standalone writes, blocks, a catch-up
// block at or below the visible height, and a retention change.
func TestStampHeightsNeverDecrease(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		bk := s.Backend()
		last := bk.StampHeight()
		check := func(when string) {
			t.Helper()
			if h := bk.StampHeight(); h < last {
				t.Fatalf("%s: stamp height fell from %d to %d", when, last, h)
			} else {
				last = h
			}
		}
		r := rand.New(rand.NewSource(1))
		next := bk.Visible() + 1
		for i := 0; i < 200; i++ {
			h := next
			if r.Intn(5) == 0 {
				h = max(1, next-1-int64(r.Intn(3))) // catch-up replay of a sealed height
			} else {
				next++
			}
			check("before block")
			bk.BeginBlock(h)
			check("in block")
			if r.Intn(4) == 0 {
				bk.SetRetain(int64(1 + r.Intn(8)))
			}
			bk.SealBlock(h)
			check("after seal")
		}
	})
}

// diffPath is one indexed path of the differential test with the
// values its documents draw from.
type diffPath struct {
	path    string
	ordered bool
	domain  []any
	where   Where
}

func diffPaths() []diffPath {
	strs := func(prefix string) []any {
		out := make([]any, 4)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	nums := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	return []diffPath{
		{path: "a", domain: strs("a")},
		{path: "n", ordered: true, domain: nums(6)},
		{path: "tags", domain: strs("t")},
		{path: "nums", ordered: true, domain: nums(6)},
		{path: "sub.x", ordered: true, domain: nums(6)},
		// Nearly unique, like a timestamp: most values hold one
		// document, and now and then two collide.
		{path: "ts", ordered: true, domain: nums(64)},
	}
}

func diffDoc(r *rand.Rand) map[string]any {
	pick := func(domain []any, n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = domain[r.Intn(len(domain))]
		}
		return out
	}
	p := diffPaths()
	doc := map[string]any{
		"a":    p[0].domain[r.Intn(4)],
		"n":    p[1].domain[r.Intn(6)],
		"tags": pick(p[2].domain, r.Intn(4)),
		"nums": pick(p[3].domain, r.Intn(3)),
		"sub": []any{
			map[string]any{"x": p[4].domain[r.Intn(6)], "y": float64(r.Intn(100))},
			map[string]any{"x": p[4].domain[r.Intn(6)]},
		},
		"u": float64(r.Intn(1000)),
	}
	if r.Intn(6) == 0 {
		delete(doc, "a")
	}
	doc["ts"] = p[5].domain[r.Intn(len(p[5].domain))]
	return doc
}

// TestIncrementalSweepMatchesFullWalk drives a collection — hash and
// ordered indexes over scalar, multikey, nested and nearly unique
// paths — through a seeded random stream of inserts, updates of an
// indexed field, of an unindexed field and of one array element,
// upserts and vacates (an empty document, in no index), in sealed
// blocks and between them, at three
// retention windows. Beside it runs a twin of every index in the
// reference posting layout (postings_test.go), kept the way indexes
// were kept before: every replacement is a remove plus an add whether
// or not the value moved, and garbage is collected by the full walk.
// After every seal the two must answer every probe alike at every
// supported height, and hold the same (value, document) pairs with the
// same visibility — the spans themselves differ, since an unchanged
// value no longer splits its span. The stream must take the compact
// postings through every layout they have: a value's first document
// inline, the move to a map at the second, back down to one, a
// document that left a value and came back inside the window, and a
// key vacated and filled again.
func TestIncrementalSweepMatchesFullWalk(t *testing.T) {
	for _, retain := range []int64{1, 3, 8} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, s *Store) {
				runSweepDifferential(t, s, retain)
			})
		})
	}
}

func runSweepDifferential(t *testing.T, s *Store, retain int64) {
	bk := s.Backend()
	bk.SetRetain(retain)
	c := s.Collection("docs")
	paths := diffPaths()
	twins := map[string]*refIndex{}
	for _, p := range paths {
		if p.ordered {
			c.CreateOrderedIndex(p.path)
		} else {
			c.CreateIndex(p.path)
		}
		twins[p.path] = newRefIndex(p.path)
	}
	var seen layouts
	vacated, refilled := map[string]bool{}, false
	r := rand.New(rand.NewSource(retain))
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}

	mutate := func() {
		key := keys[r.Intn(len(keys))]
		old, had := c.Borrow(key)
		h := bk.StampHeight()
		var err error
		switch op := r.Intn(7); {
		case !had:
			err = c.Insert(key, diffDoc(r))
		case len(old) == 0:
			refilled = refilled || vacated[key]
			err = c.Upsert(key, diffDoc(r))
		case op == 0:
			err = c.Upsert(key, diffDoc(r))
		case op == 1:
			err = update(c, key, func(doc map[string]any) error {
				doc["a"] = paths[0].domain[r.Intn(4)] // may pick the value it has
				doc["n"] = paths[1].domain[r.Intn(6)]
				return nil
			})
		case op == 2:
			err = update(c, key, func(doc map[string]any) error {
				doc["u"] = doc["u"].(float64) + 1
				return nil
			})
		// Ops 3 and 4 change values below the top level, which the
		// closure shares with the version it replaces: each clones the
		// list (and the element) it changes and assigns the clone.
		case op == 3:
			err = update(c, key, func(doc map[string]any) error {
				if tags := slices.Clone(doc["tags"].([]any)); len(tags) > 0 {
					tags[r.Intn(len(tags))] = paths[2].domain[r.Intn(4)]
					doc["tags"] = tags
				}
				nums := slices.Clone(doc["nums"].([]any))
				if len(nums) > 3 {
					nums = nums[:1]
				}
				doc["nums"] = append(nums, paths[3].domain[r.Intn(6)])
				return nil
			})
		case op == 4:
			err = update(c, key, func(doc map[string]any) error {
				subs := slices.Clone(doc["sub"].([]any))
				i := r.Intn(2)
				sub := maps.Clone(subs[i].(map[string]any))
				if r.Intn(2) == 0 {
					sub["x"] = paths[4].domain[r.Intn(6)]
				} else {
					sub["y"] = float64(r.Intn(100)) // off the indexed path
				}
				subs[i] = sub
				doc["sub"] = subs
				return nil
			})
		case op == 5:
			next := deepCopyMap(old)
			next["u"] = float64(r.Intn(1000))
			err = c.Upsert(key, next)
		default:
			vacated[key] = true
			err = c.Upsert(key, map[string]any{})
		}
		if err != nil {
			t.Fatal(err)
		}
		next, has := c.Borrow(key)
		for _, tw := range twins {
			if had {
				tw.remove(key, old, h)
			}
			if has {
				tw.add(key, next, h)
			}
		}
	}

	for h := int64(1); h <= 40; h++ {
		for i := r.Intn(3); i > 0; i-- {
			mutate() // outside a block: stamped with the visible height
		}
		bk.BeginBlock(h)
		for i := r.Intn(8); i > 0; i-- {
			mutate()
		}
		bk.SealBlock(h)
		s.SweepIndexes()
		floor, visible := bk.Floor(), bk.Visible()
		for _, p := range paths {
			ref := twins[p.path]
			ref.sweepFullWalk(floor)
			compareIndexes(t, c, p, ref, floor, visible)
			seen.observe(c.indexMap()[p.path])
		}
		if t.Failed() {
			t.Fatalf("indexes diverged after block %d (floor %d)", h, floor)
		}
	}
	// A closed span outlives its block only in a window wider than one.
	if !seen.inline || !seen.run || !seen.compacted || !seen.refilled || (retain > 1 && !seen.older) || !refilled {
		t.Errorf("the stream missed a posting layout: inline %v, run %v, compacted run %v, vacated and refilled slot %v, older span %v, refill %v",
			seen.inline, seen.run, seen.compacted, seen.refilled, seen.older, refilled)
	}
}

// compareIndexes holds c's index on p to ref at every height in
// [floor, visible] and in the writer view.
func compareIndexes(t *testing.T, c *Collection, p diffPath, ref *refIndex, floor, visible int64) {
	t.Helper()
	got := c.indexMap()[p.path]
	heights := []int64{storage.HeightLatest}
	for h := floor; h <= visible; h++ {
		heights = append(heights, h)
	}
	sorted := func(keys []string) []string {
		out := append([]string{}, keys...)
		sort.Strings(out)
		return out
	}

	// The queue holds exactly the deaths the floor has not reached, in
	// the order they fall due.
	q := core(got).closed
	for i := q.head; i < len(q.recs); i++ {
		if d := q.recs[i].died; d <= floor || d > visible {
			t.Errorf("%s: queued span died at %d outside (floor %d, visible %d]", p.path, d, floor, visible)
		}
		if i > q.head && q.recs[i].died < q.recs[i-1].died {
			t.Errorf("%s: queue out of order at %d: %v", p.path, i, q.recs[q.head:])
		}
	}
	if queued, dead := q.len(), closedSpanCount(got); queued != dead {
		t.Errorf("%s: %d closed spans, %d queued", p.path, dead, queued)
	}

	gotLists, refLists := spanLists(got), ref.spanLists()
	for k := range refLists {
		if _, ok := gotLists[k]; !ok {
			t.Errorf("%s: pair %v only in the reference", p.path, k)
		}
	}
	for k, sl := range gotLists {
		rl, ok := refLists[k]
		if !ok {
			t.Errorf("%s: pair %v not in the reference", p.path, k)
			continue
		}
		for _, h := range heights {
			if sl.aliveAt(h) != rl.aliveAt(h) {
				t.Errorf("%s: pair %v at height %d: alive %v, reference %v (%v vs %v)", p.path, k, h, sl.aliveAt(h), rl.aliveAt(h), sl, rl)
			}
		}
	}

	for _, v := range p.domain {
		k, _ := ordValueOf(v)
		rk, _ := indexKeyFmt(v)
		for _, h := range heights {
			if g, w := sorted(got.lookupEq(k, h)), sorted(ref.lookupEq(rk, h)); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: lookupEq(%v, %d) = %v, reference %v", p.path, v, h, g, w)
			}
		}
	}

	gotOrd, ok := got.(*orderedIndex)
	if !ok {
		return
	}
	for _, rng := range []ordRange{
		{class: ordClassNumber},
		{class: ordClassNumber, hasLo: true, lo: numValue(2)},
		{class: ordClassNumber, hasLo: true, lo: numValue(1), hasHi: true, hi: numValue(4)},
		{class: ordClassNumber, hasHi: true, hi: numValue(3), hiStrict: true},
	} {
		for _, h := range heights {
			if g, w := sorted(gotOrd.lookupRange(rng, h)), sorted(ref.lookupRange(rng, h)); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: lookupRange(%s, %d) = %v, reference %v", p.path, rng, h, g, w)
			}
		}
	}
	for _, h := range heights {
		for _, desc := range []bool{false, true} {
			gc := gotOrd.groups(desc)
			for i, w := range append(ref.groups(h, desc), nil) {
				g, more := gc.next(h)
				if more != (i < len(ref.entries)) || !reflect.DeepEqual(sorted(g), sorted(w)) {
					t.Errorf("%s: value group %d at %d (desc %v) diverges: %v (more %v), reference %v", p.path, i, h, desc, g, more, w)
					break
				}
			}
			f, limit := Gte("n", 2), 0
			if desc {
				limit = 3
			}
			if g, w := c.borrowOrderedAt(h, f, p.path, desc, limit), c.findOrderedScanAt(h, f, p.path, desc, limit); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
				t.Errorf("%s: FindOrdered at %d (desc %v, limit %d) = %v, scan %v", p.path, h, desc, limit, g, w)
			}
		}
	}
}

// The cost of a sweep is a count, not a timing: with one document
// changed per block, a post-seal sweep examines the span lists that
// change closed — however many documents the indexes hold.
func TestSweepExaminesOnlyWhatTheBlockClosed(t *testing.T) {
	const docs = 50000
	s := NewStore()
	s.SetObs(obs.New())
	bk := s.Backend()
	c := s.Collection("utxos")
	c.CreateIndex("owner")
	c.CreateIndex("asset_id")
	c.CreateOrderedIndex("spent")
	c.CreateOrderedIndex("amount")
	indexes := len(c.indexMap())
	for i := 0; i < docs; i++ {
		mustInsert(t, c, fmt.Sprintf("u%05d", i), map[string]any{
			"owner": []any{fmt.Sprintf("o%d", i%97)}, "asset_id": fmt.Sprintf("a%d", i%13),
			"amount": float64(i % 1000), "spent": false, "spent_by": "",
		})
	}
	start := bk.Visible()
	total := 0
	for h := start + 1; h <= start+40; h++ {
		bk.BeginBlock(h)
		// A mark-spent: one value of one index moves.
		if err := update(c, fmt.Sprintf("u%05d", int(h-start)*1000), func(doc map[string]any) error {
			doc["spent"], doc["spent_by"] = true, "tx"
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		bk.SealBlock(h)
		n := sweepExamined(s)
		if n > indexes {
			t.Fatalf("sweep after block %d examined %d span lists over %d documents, want at most %d", h, n, docs, indexes)
		}
		total += n
	}
	// Everything that closed inside the run and has left the window
	// was examined once: the sweep is not skipping work either.
	if want := 40 - int(storage.DefaultRetainHeights) + 1; total != want {
		t.Fatalf("sweeps examined %d span lists in all, want %d", total, want)
	}
}

// TestUpdateIndexWorkFollowsChangedPaths: replacing a document costs
// index work in the indexes whose value moved and nothing in the
// others — a mark-spent over the four utxos indexes allocates what it
// would with the spent index alone, and the comparison that decides it
// allocates nothing.
func TestUpdateIndexWorkFollowsChangedPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	unspent := map[string]any{
		"owner": []any{"o1", "o2"}, "asset_id": "a1", "amount": 7.0, "spent": false, "spent_by": "",
		"nested": map[string]any{"deep": []any{map[string]any{"x": 1.0}}},
	}
	spent := deepCopyMap(unspent)
	spent["spent"], spent["spent_by"] = true, "tx"

	reindexAllocs := func(build func(c *Collection)) float64 {
		t.Helper()
		s := NewStore()
		s.Backend().SetRetain(1 << 20) // every closed span queues: the steady state inside a block
		c := s.Collection("utxos")
		build(c)
		mustInsert(t, c, "k", unspent)
		docs := [2]map[string]any{unspent, spent}
		h := int64(0)
		allocs := testing.AllocsPerRun(200, func() {
			h++
			s.Backend().BeginBlock(h)
			c.mu.Lock()
			c.reindex("k", docs[h%2], docs[(h+1)%2])
			c.mu.Unlock()
			s.Backend().SealBlock(h)
		})
		for path, ix := range c.indexMap() {
			if q := core(ix).closed.len(); (q != 0) != (path == "spent") {
				t.Errorf("index %s queued %d closed spans over %d mark-spents", path, q, h)
			}
		}
		return allocs
	}
	one := reindexAllocs(func(c *Collection) { c.CreateOrderedIndex("spent") })
	four := reindexAllocs(func(c *Collection) {
		c.CreateIndex("owner")
		c.CreateIndex("asset_id")
		c.CreateOrderedIndex("spent")
		c.CreateOrderedIndex("amount")
		c.CreateIndex("nested.deep.x")
	})
	none := reindexAllocs(func(c *Collection) {
		c.CreateIndex("owner")
		c.CreateOrderedIndex("amount")
		c.CreateIndex("nested.deep.x")
	})
	if four != one {
		t.Errorf("re-indexing a mark-spent: %v allocations with five indexes, %v with the spent index alone", four, one)
	}
	if none != 0 {
		t.Errorf("re-indexing a mark-spent over indexes it does not move: %v allocations, want 0", none)
	}
	t.Logf("mark-spent index upkeep: %v allocations", one)
}

// TestCloseCostIsFlatInRunLength: ending one posting of a value many
// documents share, and sweeping it once the floor passes, examines as
// many postings under a value holding 64 k documents as under one
// holding 1 k, on both index kinds. The documents arrive 32 to a
// block, as a chain's do. A long run finds a posting through its
// position table, built once on the run's first close and paid for by
// the appends that made the run, so the close measured is the second.
func TestCloseCostIsFlatInRunLength(t *testing.T) {
	for _, kind := range []struct {
		name string
		new  func() secondaryIndex
	}{
		{"hash", func() secondaryIndex { return newHashIndex("v", Where{}) }},
		{"ordered", func() secondaryIndex { return newOrderedIndex("v", Where{}) }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			type cost struct{ close, sweep int }
			measure := func(docs int) cost {
				ix, doc := kind.new(), map[string]any{"v": "shared"}
				for i := 0; i < docs; i++ {
					ix.add(fmt.Sprintf("k%06d", i), doc, int64(i/32+1))
				}
				h := int64(docs/32 + 2)
				ix.remove("k000000", doc, h) // the run's first close
				before := core(ix).closeExamined
				ix.remove(fmt.Sprintf("k%06d", docs/2), doc, h)
				c := cost{close: core(ix).closeExamined - before, sweep: ix.sweepFloor(h)}
				if got := len(ix.lookupEq(strValue("shared"), storage.HeightLatest)); got != docs-2 {
					t.Fatalf("%d documents: %d left under the value after two closes and a sweep, want %d", docs, got, docs-2)
				}
				return c
			}
			small, large := measure(1<<10), measure(64<<10)
			if small != large {
				t.Fatalf("closing and sweeping one posting examined %+v under a value of 1 k documents and %+v under one of 64 k", small, large)
			}
		})
	}
}
