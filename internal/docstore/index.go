package docstore

import (
	"strconv"
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
	// whose indexKey is key at the indexed path as of height h (a
	// superset for multikey paths; callers re-apply the filter), each
	// key once. It takes the rendered key, which a plan renders once
	// when it compiles.
	lookupEq(key string, h int64) []string
	// sweepFloor drops every lifespan that closed at or below floor —
	// no supported snapshot height can observe it — and reports how
	// many postings it examined. The store calls it when the
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

// idxEntry is one indexed value's postings — a posting is one
// document's lifespans under the value — plus the open-posting count
// that sizes a lookup's result. Most values a chain index holds belong
// to one document (a transaction id, a timestamp, an asset id), so the
// layout is sized for that:
//
//   - A value with one posting keeps it inline in doc and span; docs is
//     nil. Collection keys are never empty (Insert refuses one), so doc
//     == "" marks an entry with no posting.
//   - From the second posting on, docs holds every posting's newest
//     span by value and doc is "". When sweeps take it back down to
//     one posting, that posting moves inline again.
//   - A posting's older spans — closed, all before its newest — exist
//     only for a document that left the value and came back while the
//     closed span was still retained. They go in older, oldest first,
//     made on first use and dropped when the last is swept.
type idxEntry struct {
	doc   string
	span  span
	docs  map[string]span
	older map[string][]span
	alive int
}

// newest returns docKey's newest span and whether docKey has a posting.
func (e *idxEntry) newest(docKey string) (span, bool) {
	if e.docs != nil {
		sp, ok := e.docs[docKey]
		return sp, ok
	}
	return e.span, e.doc == docKey
}

// setNewest stores docKey's newest span, moving the postings into docs
// when docKey is a second document.
func (e *idxEntry) setNewest(docKey string, sp span) {
	switch {
	case e.docs != nil:
		e.docs[docKey] = sp
	case e.doc == "" || e.doc == docKey:
		e.doc, e.span = docKey, sp
	default:
		e.docs = map[string]span{e.doc: e.span, docKey: sp}
		e.doc, e.span = "", span{}
	}
}

// setOlder replaces docKey's older spans, dropping the side map once
// no posting has any.
func (e *idxEntry) setOlder(docKey string, spans []span) {
	if len(spans) > 0 {
		e.older[docKey] = spans
		return
	}
	delete(e.older, docKey)
	if len(e.older) == 0 {
		e.older = nil
	}
}

// drop removes docKey's posting, older spans included, moving the one
// posting left (if any) back inline.
func (e *idxEntry) drop(docKey string) {
	e.setOlder(docKey, nil)
	if e.docs == nil {
		e.doc, e.span = "", span{}
		return
	}
	delete(e.docs, docKey)
	if len(e.docs) == 1 {
		for dk, sp := range e.docs {
			e.doc, e.span = dk, sp
		}
		e.docs = nil
	}
}

// empty reports an entry with no posting left; its index drops it.
func (e *idxEntry) empty() bool { return e.docs == nil && e.doc == "" }

// aliveAt reports whether the posting of docKey, whose newest span is
// newest, is visible at height h.
func (e *idxEntry) aliveAt(docKey string, newest span, h int64) bool {
	if newest.aliveAt(h) {
		return true
	}
	for _, sp := range e.older[docKey] {
		if sp.aliveAt(h) {
			return true
		}
	}
	return false
}

// open starts a lifespan for docKey at h, unless one is open already
// (a value occurring twice in a multikey array).
func (e *idxEntry) open(docKey string, h int64) {
	sp, ok := e.newest(docKey)
	if ok {
		if sp.open() {
			return
		}
		if e.older == nil {
			e.older = make(map[string][]span)
		}
		e.older[docKey] = append(e.older[docKey], sp)
	}
	e.setNewest(docKey, span{born: h, died: spanOpen})
	e.alive++
}

// close ends docKey's open lifespan at h and reports whether there
// was one.
func (e *idxEntry) close(docKey string, h int64) bool {
	sp, ok := e.newest(docKey)
	if !ok || !sp.open() {
		return false
	}
	sp.died = h
	e.setNewest(docKey, sp)
	e.alive--
	return true
}

// sweep drops docKey's lifespans that closed at or below floor, and
// the posting itself once none is left; the caller drops an entry left
// empty. It reports whether docKey had a posting. Every older span
// died no later than the newest was born (stamp heights never
// decrease), so a swept newest span takes the whole posting with it.
func (e *idxEntry) sweep(docKey string, floor int64) bool {
	sp, ok := e.newest(docKey)
	if !ok {
		return false
	}
	if sp.died <= floor {
		e.drop(docKey)
		return true
	}
	if old := e.older[docKey]; old != nil {
		kept := old[:0]
		for _, o := range old {
			if o.died > floor {
				kept = append(kept, o)
			}
		}
		e.setOlder(docKey, kept)
	}
	return true
}

// appendKeysAt appends the document keys visible at height h to dst.
func (e *idxEntry) appendKeysAt(dst []string, h int64) []string {
	if e.docs == nil {
		if e.doc != "" && e.aliveAt(e.doc, e.span, h) {
			dst = append(dst, e.doc)
		}
		return dst
	}
	for dk, sp := range e.docs {
		if e.aliveAt(dk, sp, h) {
			dst = append(dst, dk)
		}
	}
	return dst
}

// keysAt copies the document keys visible at height h. A nil entry
// holds none.
func (e *idxEntry) keysAt(h int64) []string {
	if e == nil {
		return nil
	}
	return e.appendKeysAt(make([]string, 0, e.alive), h)
}

// closedSpan records one lifespan ending: the posting under
// (indexKey, docKey) holds a span that died at died and is garbage
// once the retention floor reaches that height.
type closedSpan struct {
	died     int64
	indexKey string
	docKey   string
}

// closedSpans is an index's GC worklist: every lifespan that closes
// above the floor is appended here, and a sweep pops the prefix the
// floor has reached and visits only those postings. It is the
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
		clear(q.recs[n:]) // let go of the popped keys
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
	// supported snapshot and is dropped on the spot instead of queued
	// — the rule MemCollection.deleteAt applies to version chains, and
	// all the GC a store that never seals a block (stamp and floor
	// both 0) ever needs.
	floor int64
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

// retire disposes of the span that just closed at h under (indexKey,
// docKey) in e: swept now if the floor already covers it, queued for
// the sweep that will otherwise. The caller drops e if this leaves it
// empty. Caller holds mu.
func (c *indexCore) retire(e *idxEntry, indexKey, docKey string, h int64) {
	if h <= c.floor {
		e.sweep(docKey, c.floor)
		return
	}
	c.closed.push(closedSpan{died: h, indexKey: indexKey, docKey: docKey})
}

// sweepDue is sweepFloor for both index kinds: it pops the closed
// spans floor has reached and sweeps their postings. entry finds the
// entry filed under an index key (nil once it is gone) and drop
// removes one the sweep left empty. A popped record may find its
// posting already swept by an earlier record, gone, or re-created by a
// later add; sweeping whatever is there now is right in every case.
func (c *indexCore) sweepDue(floor int64, entry func(indexKey string) *idxEntry, drop func(indexKey string)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = max(c.floor, floor)
	examined := 0
	for {
		r, ok := c.closed.pop(floor)
		if !ok {
			return examined
		}
		e := entry(r.indexKey)
		if e == nil || !e.sweep(r.docKey, floor) {
			continue
		}
		examined++
		if e.empty() {
			drop(r.indexKey)
		}
	}
}

// hashIndex is a multikey equality index over one dot path: each value
// reached at the path maps to the documents that held it, with
// visibility lifespans.
type hashIndex struct {
	indexCore
	entries map[string]*idxEntry // indexKey -> value entry
}

func newHashIndex(path string, where Where) *hashIndex {
	return &hashIndex{
		indexCore: indexCore{path: splitPath(path), where: predicate(where)},
		entries:   make(map[string]*idxEntry),
	}
}

// indexKey renders a scalar into a collision-safe string key. Only
// scalars are indexable; maps and arrays fan out to their elements.
func indexKey(v any) (string, bool) {
	switch x := normalize(v).(type) {
	case nil:
		return "n:", true
	case bool:
		if x {
			return "b:true", true
		}
		return "b:false", true
	case float64:
		var buf [32]byte // "f:" and the longest shortest-form float64, 24 bytes
		return string(strconv.AppendFloat(append(buf[:0], "f:"...), x, 'g', -1, 64)), true
	case string:
		return "s:" + x, true
	}
	return "", false
}

func (ix *hashIndex) add(docKey string, doc map[string]any, h int64) {
	if !ix.covers(doc) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.path.scalars(doc, func(v any) {
		k, ok := indexKey(v)
		if !ok {
			return
		}
		e := ix.entries[k]
		if e == nil {
			e = &idxEntry{}
			ix.entries[k] = e
		}
		e.open(docKey, h)
	})
}

func (ix *hashIndex) remove(docKey string, doc map[string]any, h int64) {
	if !ix.covers(doc) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.path.scalars(doc, func(v any) {
		k, ok := indexKey(v)
		if !ok {
			return
		}
		e := ix.entries[k]
		if e == nil || !e.close(docKey, h) {
			return
		}
		ix.retire(e, k, docKey, h)
		if e.empty() {
			delete(ix.entries, k)
		}
	})
}

func (ix *hashIndex) sweepFloor(floor int64) int {
	return ix.sweepDue(floor,
		func(k string) *idxEntry { return ix.entries[k] },
		func(k string) { delete(ix.entries, k) })
}

// lookupEq answers an equality probe (Eq / Contains candidates) as of
// height h.
func (ix *hashIndex) lookupEq(key string, h int64) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries[key].keysAt(h)
}
