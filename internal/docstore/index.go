package docstore

import (
	"cmp"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"

	"smartchaindb/internal/storage"
)

// secondaryIndex is the maintenance-and-probe surface the collection
// keeps per indexed dot path. Two implementations exist: hashIndex
// (equality probes only) and orderedIndex (equality probes plus range
// scans and value-ordered iteration; see ordindex.go). The planner
// type-switches for the capabilities beyond this interface.
//
// Indexes are height-aware: every (value, document) pairing carries
// its visibility lifespans, so probes answer "which documents held
// this value as of block height h". storage.HeightLatest probes the
// current (writer-view) contents.
//
// An index may be partial: it holds a document only while the
// document's current version matches the index's predicate (partial).
// A document leaving the predicate at height h closes its postings at
// h, exactly as a value change does, so reads below h still find it.
type secondaryIndex interface {
	// add / remove maintain the index for one document mutation at
	// block height h; a partial index skips a document its predicate
	// does not match. They are called under the collection's writer
	// lock.
	add(docKey string, doc map[string]any, h int64)
	remove(docKey string, doc map[string]any, h int64)
	// unchanged reports that old and next are both outside a partial
	// index's predicate, or both inside it and reaching the same values
	// at the indexed path, so replacing one with the other needs no
	// upkeep in this index: closing [b, h) and opening [h, ∞) shows
	// every height exactly what leaving [b, ∞) alone does.
	unchanged(old, next map[string]any) bool
	// partial returns the predicate of a partial index, nil for an
	// index over every document.
	partial() *fieldFilter
	// lookupEq returns the candidate document keys holding the value
	// key at the indexed path as of height h (a superset for multikey
	// paths; callers re-apply the filter), each key once. A plan
	// computes the key once, when it compiles.
	lookupEq(key ordValue, h int64) []string
	// sweepFloor reclaims every lifespan that closed at or below floor
	// — no supported snapshot height can observe it — and reports how
	// many closed spans it took off its worklist. The store calls it when the
	// backend's retention floor advances at block seal, so index GC
	// tracks version GC; see closedSpans for what it costs.
	sweepFloor(floor int64) int
}

// indexPath is an index's dot path, split once when the index is
// created: every document mutation walks it, once per index.
type indexPath []string

func splitPath(path string) indexPath { return strings.Split(path, ".") }

// some reports whether fn holds for a value v reaches at the path,
// stopping at the first that does. Arrays on the way fan out to their
// map elements, like MongoDB: each element is tried for the rest of
// the path.
func (p indexPath) some(v any, fn func(any) bool) bool {
	if len(p) == 0 {
		return fn(v)
	}
	switch x := v.(type) {
	case map[string]any:
		if child, ok := x[p[0]]; ok {
			return p[1:].some(child, fn)
		}
	case []any:
		for _, e := range x {
			if m, ok := e.(map[string]any); ok {
				if child, ok := m[p[0]]; ok && p[1:].some(child, fn) {
					return true
				}
			}
		}
	}
	return false
}

// each calls fn with every value v reaches at the path.
func (p indexPath) each(v any, fn func(any)) {
	p.some(v, func(x any) bool { fn(x); return false })
}

// scalars is each with the arrays it reaches fanned out to their
// elements, to any depth — the values a multikey index holds for doc.
func (p indexPath) scalars(doc map[string]any, fn func(any)) {
	p.each(doc, func(v any) { eachScalar(v, fn) })
}

func eachScalar(v any, fn func(any)) {
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			eachScalar(e, fn)
		}
		return
	}
	fn(v)
}

// same reports whether a and b are certain to reach the same values at
// the path. It follows the path through both documents while both are
// maps and compares what it finds there structurally, so it may call
// two documents different that index alike (an array of maps whose
// elements changed off the path) — the caller then re-indexes, which
// is always right — but never the reverse. It allocates nothing.
func (p indexPath) same(a, b map[string]any) bool {
	var va, vb any = a, b
	for _, part := range p {
		ma, oka := va.(map[string]any)
		mb, okb := vb.(map[string]any)
		if !oka || !okb {
			break
		}
		ca, ina := ma[part]
		cb, inb := mb[part]
		if !ina || !inb {
			return ina == inb
		}
		va, vb = ca, cb
	}
	return sameValue(va, vb)
}

// sameValue is structural equality over the document value shapes
// (JSON scalars, maps, arrays). Values of different dynamic types, NaN
// and anything else are unequal, which errs toward re-indexing.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, in := y[k]; !in || !sameValue(v, w) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case nil, bool, string, float64, float32, int, int32, int64, uint64:
		return a == b
	}
	return false
}

// span is one visibility interval of a (value, document) pairing:
// the pairing is visible at h iff born <= h and h is below died (an
// open span has died == spanOpen and additionally covers
// storage.HeightLatest). A zero-width span (born == died: added and
// removed at the same height) is invisible at every height.
type span struct{ born, died int64 }

const spanOpen = storage.HeightLatest

func (s span) aliveAt(h int64) bool { return s.born <= h && (s.died == spanOpen || h < s.died) }

func (s span) open() bool { return s.died == spanOpen }

// posting is one lifespan of one document under an indexed value. A
// document that left the value and came back while the closed span
// was still retained holds two postings under it, one per span.
type posting struct {
	doc string
	span
}

// postInline is how many postings an entry keeps in place before it
// moves them to a run.
const postInline = 2

// idxEntry is one indexed value and its postings. Most values a chain
// index holds belong to one document (a transaction id, a timestamp)
// or a few (an owner's outputs, an asset id, a REQUEST's bids), and
// the rest to thousands (an operation, a capability), so the layout is
// sized for both, with no map per value:
//
//   - Up to postInline postings sit in inline. Collection keys are
//     never empty (Insert refuses one), so doc == "" marks a free
//     slot; a sweep frees a slot by clearing it.
//   - From the next posting on, every posting of the value is in run,
//     an append-only list in stamp order, and inline is unused. When
//     compaction takes the run back down to postInline postings, they
//     move inline again and the run goes.
//
// val is the value itself, the key the entry is filed under.
type idxEntry struct {
	val    ordValue
	inline [postInline]posting
	run    *postingRun
}

// open starts a lifespan for docKey at h; floor is the index's. A
// document has no open posting anywhere in an index when the index
// adds it (an update closes the old version's postings before it adds
// the new one's), so an open posting of docKey can only come from a
// value occurring twice in the document being added: then it is the
// run's last posting, or in inline, and it stays as it is.
func (e *idxEntry) open(docKey string, h, floor int64) {
	p := posting{doc: docKey, span: span{born: h, died: spanOpen}}
	if r := e.run; r != nil {
		if last := r.at(r.n - 1); last.doc == docKey && last.died == spanOpen {
			return
		}
		r.push(p, floor)
		return
	}
	free := -1
	for i := range e.inline {
		switch q := &e.inline[i]; {
		case q.doc == "":
			if free < 0 {
				free = i
			}
		case q.doc == docKey && q.open():
			return
		}
	}
	if free >= 0 {
		e.inline[free] = p
		return
	}
	r := &postingRun{}
	old := e.inline // a sweep may have freed and refilled a slot out of stamp order
	slices.SortFunc(old[:], func(a, b posting) int { return cmp.Compare(a.born, b.born) })
	for _, q := range old {
		r.push(q, floor)
	}
	r.push(p, floor)
	e.inline, e.run = [postInline]posting{}, r
}

// close ends docKey's open lifespan at h and reports whether there
// was one, adding the postings it examined to *examined.
func (e *idxEntry) close(docKey string, h int64, examined *int) bool {
	if r := e.run; r != nil {
		i := r.find(docKey, examined)
		if i < 0 {
			return false
		}
		r.at(i).died = h
		r.open--
		return true
	}
	for i := range e.inline {
		if q := &e.inline[i]; q.doc == docKey && q.open() {
			*examined += i + 1
			q.died = h
			return true
		}
	}
	*examined += postInline
	return false
}

// reclaim is told that one of the entry's closed postings died at or
// below floor, and drops what that lets it drop. Inline postings go at
// once. A run only counts the posting as garbage: it is invisible at
// every height a snapshot may read, so it can wait until garbage is
// half the run and one pass compacts it all, which keeps a reclaim
// amortized O(1) however long the run. The count may run ahead of the
// run's real garbage (a compaction takes postings whose own reclaim is
// still to come); that only brings a compaction forward.
func (e *idxEntry) reclaim(floor int64) {
	r := e.run
	if r == nil {
		for i := range e.inline {
			if q := &e.inline[i]; q.doc != "" && !q.open() && q.died <= floor {
				*q = posting{}
			}
		}
		return
	}
	r.garbage++
	if 2*r.garbage < r.n {
		return
	}
	r.compact(floor)
	if r.n <= postInline {
		for i := 0; i < r.n; i++ {
			e.inline[i] = r.posting(i)
		}
		e.run = nil
	}
}

// empty reports an entry with no posting left; its index drops it.
func (e *idxEntry) empty() bool {
	if e.run != nil {
		return false
	}
	for _, q := range e.inline {
		if q.doc != "" {
			return false
		}
	}
	return true
}

// appendKeysAt appends the document keys visible at height h to dst.
// A document's spans never overlap, so each key appears once.
func (e *idxEntry) appendKeysAt(dst []string, h int64) []string {
	if r := e.run; r != nil {
		return r.appendKeysAt(dst, h)
	}
	for _, q := range e.inline {
		if q.doc != "" && q.aliveAt(h) {
			dst = append(dst, q.doc)
		}
	}
	return dst
}

// keysAt copies the document keys visible at height h, sized for the
// open postings. A nil entry holds none.
func (e *idxEntry) keysAt(h int64) []string {
	if e == nil {
		return nil
	}
	n := 0
	if e.run != nil {
		n = e.run.open
	} else {
		for _, q := range e.inline {
			if q.doc != "" && q.open() {
				n++
			}
		}
	}
	return e.appendKeysAt(make([]string, 0, n), h)
}

// runChunk is the postings a run's chunk holds. A run grows by whole
// chunks, so appending never copies the postings already there: the
// first chunk grows by append up to runChunk, every later one is
// allocated full size.
const runChunk = 64

// runScan is the longest run whose close scans it for the posting; a
// longer one builds a position table on its first close instead.
const runScan = 16

// runPosting is a posting in a run, less its birth, which the run's
// marks keep.
type runPosting struct {
	doc  string
	died int64
}

// bornMark says that the run's postings from position at up to the
// next mark were born at born.
type bornMark struct {
	at   int
	born int64
}

// postingRun is a value's postings past inline: append-only, in the
// order their spans were born. A closed posting stays where it is
// until a compaction passes over it.
//
// Births are kept as marks, one per height the run grew at, not per
// posting: a block's postings share one, and a run built by CreateIndex
// has one for all of them. A birth at or below the floor no longer
// decides anything a supported snapshot can see, since every such read
// is above it, so the marks at or below the floor merge into the first
// and a run keeps about one mark per retained height however long it
// grows. Below the floor, where no read is supported, a merged posting
// may show as born too early (a swept index already differs there: it
// has dropped what closed). Compaction drops the marks it leaves with
// no posting.
type postingRun struct {
	chunks [][]runPosting
	marks  []bornMark
	n      int // postings in chunks, garbage included
	open   int // postings with an open span
	// garbage counts the closed postings reclaim was told the floor
	// has passed since the last compaction.
	garbage int
	// pos finds a document's postings in a long run: open addressing
	// over the run's positions (each stored plus one; 0 is a free
	// slot), probed by the hash of the document key, at most half
	// full. It is nil until the run's first close that needs it and
	// again after each compaction, which moves postings.
	pos []int32
}

// posSeed seeds the position tables' key hash.
var posSeed = maphash.MakeSeed()

func (r *postingRun) at(i int) *runPosting { return &r.chunks[i/runChunk][i%runChunk] }

// posting returns the posting at position i, birth included.
func (r *postingRun) posting(i int) posting {
	m := sort.Search(len(r.marks), func(m int) bool { return r.marks[m].at > i }) - 1
	p := r.at(i)
	return posting{doc: p.doc, span: span{born: r.marks[m].born, died: p.died}}
}

// push appends p; floor is the index's.
func (r *postingRun) push(p posting, floor int64) {
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == runChunk {
		size := runChunk
		if last < 0 {
			size = 2 * postInline
		}
		r.chunks = append(r.chunks, make([]runPosting, 0, size))
		last++
	}
	r.chunks[last] = append(r.chunks[last], runPosting{doc: p.doc, died: p.died})
	if k := len(r.marks); k == 0 || r.marks[k-1].born != p.born {
		r.marks = append(r.marks, bornMark{at: r.n, born: p.born})
	}
	r.n++
	if p.open() {
		r.open++
	}
	r.mergeMarks(floor)
	if r.pos != nil {
		if 2*r.n > len(r.pos) {
			r.index()
		} else {
			r.place(r.n - 1)
		}
	}
}

// mergeMarks folds the marks at or below floor into the first. Births
// never decrease along a run, so the first is the earliest of them.
func (r *postingRun) mergeMarks(floor int64) {
	k := 1
	for k < len(r.marks) && r.marks[k].born <= floor {
		k++
	}
	if k > 1 {
		r.marks = append(r.marks[:1], r.marks[k:]...)
	}
}

// appendKeysAt appends the documents of the postings visible at h.
func (r *postingRun) appendKeysAt(dst []string, h int64) []string {
	i, m := 0, 0
	for _, c := range r.chunks {
		for j := range c {
			for m+1 < len(r.marks) && r.marks[m+1].at <= i {
				m++
			}
			if r.marks[m].born <= h && (c[j].died == spanOpen || h < c[j].died) {
				dst = append(dst, c[j].doc)
			}
			i++
		}
	}
	return dst
}

// find returns the position of docKey's open posting, or -1, adding
// the postings it examined to *examined: a position-table lookup
// counts as one.
func (r *postingRun) find(docKey string, examined *int) int {
	if r.pos == nil && r.n > runScan {
		r.index()
	}
	if r.pos == nil {
		for i := r.n - 1; i >= 0; i-- {
			*examined++
			if p := r.at(i); p.doc == docKey && p.died == spanOpen {
				return i
			}
		}
		return -1
	}
	*examined++
	mask := uint64(len(r.pos) - 1)
	for s := maphash.String(posSeed, docKey) & mask; r.pos[s] != 0; s = (s + 1) & mask {
		i := int(r.pos[s] - 1)
		if p := r.at(i); p.doc == docKey && p.died == spanOpen {
			return i
		}
	}
	return -1
}

// index builds the position table over every posting, at most a
// quarter full so appends can fill it to half before the next build.
func (r *postingRun) index() {
	size := 64
	for size < 4*r.n {
		size *= 2
	}
	r.pos = make([]int32, size)
	for i := 0; i < r.n; i++ {
		r.place(i)
	}
}

// place files position i in the position table.
func (r *postingRun) place(i int) {
	mask := uint64(len(r.pos) - 1)
	s := maphash.String(posSeed, r.at(i).doc) & mask
	for r.pos[s] != 0 {
		s = (s + 1) & mask
	}
	r.pos[s] = int32(i + 1)
}

// compact drops, in place, every posting that died at or below floor,
// and the marks left with no posting.
func (r *postingRun) compact(floor int64) {
	w, m, kept := 0, 0, 0
	for i := 0; i < r.n; i++ {
		for m+1 < len(r.marks) && r.marks[m+1].at <= i {
			m++
		}
		p := r.at(i)
		if p.died != spanOpen && p.died <= floor {
			continue
		}
		// kept <= m: a mark is rewritten only once read.
		if born := r.marks[m].born; kept == 0 || r.marks[kept-1].born != born {
			r.marks[kept] = bornMark{at: w, born: born}
			kept++
		}
		*r.at(w) = *p
		w++
	}
	for i := w; i < r.n; i++ {
		*r.at(i) = runPosting{} // let go of the dropped keys
	}
	full := (w + runChunk - 1) / runChunk
	clear(r.chunks[full:])
	r.chunks = r.chunks[:full]
	if full > 0 {
		r.chunks[full-1] = r.chunks[full-1][:w-(full-1)*runChunk]
	}
	r.marks = r.marks[:kept]
	r.mergeMarks(floor)
	r.n, r.garbage, r.pos = w, 0, nil
}

// closedSpan records one lifespan ending: entry holds a posting that
// died at died and is garbage once the retention floor reaches that
// height.
type closedSpan struct {
	died  int64
	entry *idxEntry
}

// closedSpans is an index's GC worklist: every lifespan that closes
// above the floor is appended here, and a sweep pops the prefix the
// floor has reached and visits only those entries. It is the
// worklist storage.MemCollection keeps for version GC (dirty[h])
// applied to index GC, and the two run at the same moment, the block
// seal. A sweep therefore costs the spans that closed in the block
// falling out of the retention window, not the size of the index, and
// an index with nothing due returns after one comparison.
//
// The queue is a FIFO rather than dirty's buckets because a backend's
// stamp heights never decrease (storage.verClock: visible only rises,
// an open block's height is above it, and blocks seal in ticket
// order), so records arrive in the order they fall due and the queue
// never holds more than the retained K blocks' worth. Nothing breaks
// if a stamp ever did run backwards: a record is popped only on its
// own height, so it would wait behind its elders, not be lost.
type closedSpans struct {
	recs []closedSpan
	head int // recs[:head] are popped
}

func (q *closedSpans) push(r closedSpan) { q.recs = append(q.recs, r) }

// pop removes and returns the oldest record if it died at or below
// floor. Once half the slice is popped the rest slides down, so the
// slice stays within twice the live records at amortized constant
// cost per pop.
func (q *closedSpans) pop(floor int64) (closedSpan, bool) {
	if q.head == len(q.recs) || q.recs[q.head].died > floor {
		return closedSpan{}, false
	}
	r := q.recs[q.head]
	q.head++
	if q.head*2 >= len(q.recs) {
		n := copy(q.recs, q.recs[q.head:])
		clear(q.recs[n:]) // let go of the popped entries
		q.recs = q.recs[:n]
		q.head = 0
	}
	return r, true
}

// indexCore is what the two index kinds share: the split path, the
// predicate, the lock, and the lifespan GC state. The index carries
// its own lock so index-backed readers can answer candidate lookups
// without the collection-wide lock — writers mutate it under the
// collection lock, but a planned read never serializes behind them.
type indexCore struct {
	path indexPath
	// where is a partial index's predicate, an Eq filter; nil indexes
	// every document.
	where *fieldFilter

	mu     sync.RWMutex
	closed closedSpans
	// floor is the highest retention floor the index has been swept
	// at. A span closing at or below it is already invisible to every
	// supported snapshot and is reclaimed on the spot instead of
	// queued — the rule MemCollection.deleteAt applies to version
	// chains, and all the GC a store that never seals a block (stamp
	// and floor both 0) ever needs.
	floor int64
	// closeExamined counts the postings closes have examined to find
	// the posting they end, a position-table lookup counting one: what
	// a close costs, as a count (TestCloseCostIsFlatInRunLength).
	closeExamined int
}

// predicate compiles a partial index's Where into its Eq filter; the
// zero Where is nil, a full index.
func predicate(w Where) *fieldFilter {
	if w.Path == "" {
		return nil
	}
	return field(w.Path, opEq, normalize(w.Value))
}

// covers reports whether the index holds doc: always for a full index,
// while its predicate matches for a partial one.
func (c *indexCore) covers(doc map[string]any) bool { return c.where == nil || c.where.Matches(doc) }

func (c *indexCore) partial() *fieldFilter { return c.where }

func (c *indexCore) unchanged(old, next map[string]any) bool {
	in := c.covers(old)
	if in != c.covers(next) {
		return false
	}
	return !in || c.path.same(old, next)
}

// end closes docKey's open posting in e at h and disposes of the span
// that closed: reclaimed now if the floor already covers it, queued
// for the sweep that will otherwise. It reports whether there was an
// open posting; the caller drops e if this leaves it empty. Caller
// holds mu.
func (c *indexCore) end(e *idxEntry, docKey string, h int64) bool {
	if !e.close(docKey, h, &c.closeExamined) {
		return false
	}
	if h <= c.floor {
		e.reclaim(c.floor)
	} else {
		c.closed.push(closedSpan{died: h, entry: e})
	}
	return true
}

// sweepDue is sweepFloor for both index kinds: it pops the closed
// spans floor has reached and reclaims them in their entries, and
// reports how many it popped — each one span gone, by its own reclaim
// or by a compaction an earlier one ran. drop removes an entry the
// sweep left empty. A record may name an entry its index has dropped
// already (a compaction or an inline reclaim emptied it; a later add
// of the value makes a new one): such an entry stays empty, and there
// is nothing left to reclaim in it.
func (c *indexCore) sweepDue(floor int64, drop func(e *idxEntry)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = max(c.floor, floor)
	examined := 0
	for {
		r, ok := c.closed.pop(floor)
		if !ok {
			return examined
		}
		examined++
		if e := r.entry; !e.empty() {
			e.reclaim(floor)
			if e.empty() {
				drop(e)
			}
		}
	}
}

// hashIndex is a multikey equality index over one dot path: each value
// reached at the path maps to the documents that held it, with
// visibility lifespans.
type hashIndex struct {
	indexCore
	entries map[ordValue]*idxEntry
}

func newHashIndex(path string, where Where) *hashIndex {
	return &hashIndex{
		indexCore: indexCore{path: splitPath(path), where: predicate(where)},
		entries:   make(map[ordValue]*idxEntry),
	}
}

func (ix *hashIndex) add(docKey string, doc map[string]any, h int64) {
	if !ix.covers(doc) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.path.scalars(doc, func(v any) {
		k, ok := ordValueOf(v)
		if !ok {
			return
		}
		e := ix.entries[k]
		if e == nil {
			e = &idxEntry{val: k}
			ix.entries[k] = e
		}
		e.open(docKey, h, ix.floor)
	})
}

func (ix *hashIndex) remove(docKey string, doc map[string]any, h int64) {
	if !ix.covers(doc) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.path.scalars(doc, func(v any) {
		k, ok := ordValueOf(v)
		if !ok {
			return
		}
		if e := ix.entries[k]; e != nil && ix.end(e, docKey, h) && e.empty() {
			delete(ix.entries, k)
		}
	})
}

func (ix *hashIndex) sweepFloor(floor int64) int {
	return ix.sweepDue(floor, func(e *idxEntry) {
		if ix.entries[e.val] == e {
			delete(ix.entries, e.val)
		}
	})
}

// lookupEq answers an equality probe (Eq / Contains candidates) as of
// height h.
func (ix *hashIndex) lookupEq(key ordValue, h int64) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries[key].keysAt(h)
}
