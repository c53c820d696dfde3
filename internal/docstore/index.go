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
type secondaryIndex interface {
	// add / remove maintain the index for one document mutation at
	// block height h. They are called under the collection's writer
	// lock.
	add(docKey string, doc map[string]any, h int64)
	remove(docKey string, doc map[string]any, h int64)
	// unchanged reports that old and next reach the same values at the
	// indexed path, so replacing one with the other needs no upkeep in
	// this index: closing [b, h) and opening [h, ∞) shows every height
	// exactly what leaving [b, ∞) alone does.
	unchanged(old, next map[string]any) bool
	// lookupEq returns the candidate document keys holding arg at the
	// indexed path as of height h (a superset for multikey paths;
	// callers re-apply the filter). estimateEq is its cost-free
	// cardinality estimate (over current contents — plan choice, not
	// correctness), and containsDoc the O(1) membership probe the
	// planner uses to intersect without materializing non-driving
	// candidate sets.
	lookupEq(arg any, h int64) []string
	estimateEq(arg any) int
	containsDoc(arg any, docKey string, h int64) bool
	// sweepFloor drops every lifespan that closed at or below floor —
	// no supported snapshot height can observe it — and reports how
	// many span lists it examined. The store calls it when the
	// backend's retention floor advances at block seal, so index GC
	// tracks version GC; see closedSpans for what it costs.
	sweepFloor(floor int64) int
}

// indexPath is an index's dot path, split once when the index is
// created: every document mutation walks it, once per index.
type indexPath []string

func splitPath(path string) indexPath { return strings.Split(path, ".") }

// each calls fn with every value v reaches at the path. Arrays on the
// way fan out to their map elements, like lookupPath (which is this
// walk collected into a slice).
func (p indexPath) each(v any, fn func(any)) {
	if len(p) == 0 {
		fn(v)
		return
	}
	switch x := v.(type) {
	case map[string]any:
		if child, ok := x[p[0]]; ok {
			p[1:].each(child, fn)
		}
	case []any:
		for _, e := range x {
			if m, ok := e.(map[string]any); ok {
				if child, ok := m[p[0]]; ok {
					p[1:].each(child, fn)
				}
			}
		}
	}
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
// storage.HeightLatest).
type span struct{ born, died int64 }

const spanOpen = storage.HeightLatest

// spanList holds one document's lifespans under one value, newest
// last. Zero-width spans (born == died: added and removed at the same
// height) are naturally invisible at every height.
type spanList []span

func (s spanList) aliveAt(h int64) bool {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].born <= h && (s[i].died == spanOpen || h < s[i].died) {
			return true
		}
	}
	return false
}

// open reports whether the newest span is still open.
func (s spanList) open() bool {
	return len(s) > 0 && s[len(s)-1].died == spanOpen
}

// sweep drops spans that closed at or below floor — no supported
// snapshot can see them — and returns the survivors.
func (s spanList) sweep(floor int64) spanList {
	kept := s[:0]
	for _, sp := range s {
		if sp.died > floor {
			kept = append(kept, sp)
		}
	}
	return kept
}

// idxEntry is one indexed value's document set: lifespans per document
// key plus the open-span count estimates use.
type idxEntry struct {
	docs  map[string]spanList
	alive int
}

// open starts a lifespan for docKey at h, unless one is open already
// (a value occurring twice in a multikey array), and reports whether
// it did.
func (e *idxEntry) open(docKey string, h int64) bool {
	sl := e.docs[docKey]
	if sl.open() {
		return false
	}
	e.docs[docKey] = append(sl, span{born: h, died: spanOpen})
	e.alive++
	return true
}

// close ends docKey's open lifespan at h and reports whether there
// was one.
func (e *idxEntry) close(docKey string, h int64) bool {
	sl := e.docs[docKey]
	if !sl.open() {
		return false
	}
	sl[len(sl)-1].died = h
	e.alive--
	return true
}

// sweep drops docKey's lifespans that closed at or below floor, and
// docKey itself once none is left; the caller drops an entry left
// with no documents. It reports whether docKey had a span list.
func (e *idxEntry) sweep(docKey string, floor int64) bool {
	sl, ok := e.docs[docKey]
	if !ok {
		return false
	}
	if kept := sl.sweep(floor); len(kept) == 0 {
		delete(e.docs, docKey)
	} else if len(kept) < len(sl) {
		e.docs[docKey] = kept
	}
	return true
}

// keysAt copies the document keys visible at height h. A nil entry
// holds none.
func (e *idxEntry) keysAt(h int64) []string {
	if e == nil {
		return nil
	}
	keys := make([]string, 0, e.alive)
	for dk, sl := range e.docs {
		if sl.aliveAt(h) {
			keys = append(keys, dk)
		}
	}
	return keys
}

// closedSpan records one lifespan ending: the span list under
// (indexKey, docKey) holds a span that died at died and is garbage
// once the retention floor reaches that height.
type closedSpan struct {
	died     int64
	indexKey string
	docKey   string
}

// closedSpans is an index's GC worklist: every lifespan that closes
// above the floor is appended here, and a sweep pops the prefix the
// floor has reached and visits only those span lists. It is the
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

func (q *closedSpans) len() int { return len(q.recs) - q.head }

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
// lock, and the lifespan GC state. The index carries its own lock so
// index-backed readers can answer candidate lookups without the
// collection-wide lock — writers mutate it under the collection lock,
// but a planned read never serializes behind them.
type indexCore struct {
	path indexPath

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

func (c *indexCore) unchanged(old, next map[string]any) bool { return c.path.same(old, next) }

// retire disposes of the span that just closed at h under (indexKey,
// docKey) in e: swept now if the floor already covers it, queued for
// the sweep that will otherwise. The caller drops e if this leaves it
// with no documents. Caller holds mu.
func (c *indexCore) retire(e *idxEntry, indexKey, docKey string, h int64) {
	if h <= c.floor {
		e.sweep(docKey, c.floor)
		return
	}
	c.closed.push(closedSpan{died: h, indexKey: indexKey, docKey: docKey})
}

// sweepDue is sweepFloor for both index kinds: it pops the closed
// spans floor has reached and sweeps their span lists. entry finds the
// entry filed under an index key (nil once it is gone) and drop
// removes one the sweep left with no documents. A popped record may
// find its list already swept by an earlier record, gone, or
// re-created by a later add; sweeping whatever is there now is right
// in every case.
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
		if len(e.docs) == 0 {
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

func newHashIndex(path string) *hashIndex {
	return &hashIndex{
		indexCore: indexCore{path: splitPath(path)},
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
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.path.scalars(doc, func(v any) {
		k, ok := indexKey(v)
		if !ok {
			return
		}
		e := ix.entries[k]
		if e == nil {
			e = &idxEntry{docs: make(map[string]spanList)}
			ix.entries[k] = e
		}
		e.open(docKey, h)
	})
}

func (ix *hashIndex) remove(docKey string, doc map[string]any, h int64) {
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
		if len(e.docs) == 0 {
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
func (ix *hashIndex) lookupEq(arg any, h int64) []string {
	k, ok := indexKey(arg)
	if !ok {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries[k].keysAt(h)
}

// estimateEq reports the candidate count of an equality probe without
// materializing it — the planner's selectivity estimate.
func (ix *hashIndex) estimateEq(arg any) int {
	k, ok := indexKey(arg)
	if !ok {
		return 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if e := ix.entries[k]; e != nil {
		return e.alive
	}
	return 0
}

// containsDoc reports whether docKey is among the candidates for arg
// as of height h.
func (ix *hashIndex) containsDoc(arg any, docKey string, h int64) bool {
	k, ok := indexKey(arg)
	if !ok {
		return false
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if e := ix.entries[k]; e != nil {
		return e.docs[docKey].aliveAt(h)
	}
	return false
}
