package docstore

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// orderedIndex is a sorted multikey index over one dot path: a skip
// list of distinct values, each holding the documents that reach the
// value at the path, with visibility lifespans per (value, document)
// pairing. On top of the point lookups a hash index answers (Eq,
// Contains, In), it serves ordered range scans for the comparison
// operators (Gte/Lt/Lte) and value-ordered document iteration
// (Snapshot.BorrowFindOrdered), both as-of any supported block height.
//
// Like hashIndex, it carries its own RWMutex: writers mutate it under
// the collection lock as part of every Insert/Upsert/Update, but
// planned readers take only this lock plus lock-free point reads — a
// range scan never serializes behind the commit writer on the
// collection lock. Value-group iteration (BorrowFindOrdered) is streaming:
// the cursor copies one node's visible keys per brief lock
// acquisition, so a limit-k query allocates O(k) and never holds the
// lock for the whole index.
//
// Ordering follows the filter comparison semantics (compareValues):
// only numbers compare with numbers and strings with strings, so a
// range scan is confined to the bound's class and values of any other
// class can never leak into a comparison result. Across classes the
// skip list still needs a total order for storage; it uses
// nil < bool < number < string.
type orderedIndex struct {
	indexCore
	head *ordNode // sentinel; head.next[0] is the first value
	tail *ordNode // last value node, head when empty
	rng  uint64   // deterministic xorshift state for levels
	// multikey is set, for good, once any document the index holds
	// reaches more than one value at the path (MongoDB's rule). Until
	// then every document has at most one value there, so an And of
	// comparisons on the path holds exactly for the documents whose
	// value lies in the intersection of their ranges, and the planner
	// compiles it to one bounded range.
	multikey atomic.Bool
}

const ordMaxLevel = 16

// ordNode is one distinct indexed value and its postings (idxEntry,
// which holds the value). prev links level 0 backwards so descending
// iteration streams like ascending. An unlinked node keeps its own
// next/prev pointers, so a cursor parked on it can still step off into
// the live list.
type ordNode struct {
	idxEntry
	next []*ordNode
	prev *ordNode
}

// ordValue is an indexable scalar: its place in the index order and
// the key both index kinds file its postings under. Two scalars are
// the same index value exactly when their ordValues are ==. bits is a
// number's float64 bits, every NaN folded into nanBits; nil, the two
// booleans and strings are the NaN patterns nilBits..stringBits, which
// no number carries, and a string's text is str.
type ordValue struct {
	str  string
	bits uint64
}

const (
	ordClassNil    = 0
	ordClassBool   = 1
	ordClassNumber = 2
	ordClassString = 3
)

// nanBits is the one pattern every NaN is filed under; the others are
// signalling-NaN patterns no number is filed under.
const (
	nanBits    uint64 = 0x7ff8_0000_0000_0001
	nilBits    uint64 = 0x7ff0_0000_0000_0001
	falseBits  uint64 = 0x7ff0_0000_0000_0002
	trueBits   uint64 = 0x7ff0_0000_0000_0003
	stringBits uint64 = 0x7ff0_0000_0000_0004
)

func numValue(x float64) ordValue {
	if x != x {
		return ordValue{bits: nanBits}
	}
	return ordValue{bits: math.Float64bits(x)}
}

func strValue(x string) ordValue { return ordValue{str: x, bits: stringBits} }

// ordValueOf files a scalar into the index order; non-scalars (maps,
// arrays — arrays fan out before this point) are not indexable.
func ordValueOf(v any) (ordValue, bool) {
	switch x := normalize(v).(type) {
	case nil:
		return ordValue{bits: nilBits}, true
	case bool:
		if x {
			return ordValue{bits: trueBits}, true
		}
		return ordValue{bits: falseBits}, true
	case float64:
		return numValue(x), true
	case string:
		return strValue(x), true
	}
	return ordValue{}, false
}

// class is the value's comparison class: 0 nil, 1 bool, 2 number, 3
// string.
func (a ordValue) class() uint8 {
	switch a.bits {
	case nilBits:
		return ordClassNil
	case falseBits, trueBits:
		return ordClassBool
	case stringBits:
		return ordClassString
	}
	return ordClassNumber
}

func (a ordValue) num() float64 { return math.Float64frombits(a.bits) }

func (a ordValue) compare(b ordValue) int {
	ca, cb := a.class(), b.class()
	if ca != cb {
		return int(ca) - int(cb)
	}
	switch ca {
	case ordClassString:
		return strings.Compare(a.str, b.str)
	case ordClassNumber:
		switch x, y := a.num(), b.num(); {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	// nil equals nil; false (falseBits) sorts before true (trueBits).
	return int(a.bits - b.bits)
}

// order is the skip list's order: compare, with its ties between
// different values broken so that every value has one place and a
// point lookup can find it by walking the list. compare ties -0 with 0,
// and a NaN with every number; order puts -0 just before 0 and a NaN
// after every other number. A range walk seeks its bound by compare,
// over a list order keeps non-decreasing by compare too, so it still
// starts at the first value compare does not put below the bound and
// meets a NaN, if at all, only after every other number.
func (a ordValue) order(b ordValue) int {
	if c := a.compare(b); c != 0 || a == b {
		return c
	}
	switch {
	case a.bits == nanBits:
		return 1
	case b.bits == nanBits:
		return -1
	case math.Signbit(a.num()):
		return -1
	}
	return 1
}

// classFloor is the smallest ordValue of a class — the range-scan
// start for an unbounded-below comparison like Lt.
func classFloor(class uint8) ordValue {
	switch class {
	case ordClassNumber:
		return numValue(math.Inf(-1))
	case ordClassString:
		return strValue("")
	case ordClassBool:
		return ordValue{bits: falseBits}
	}
	return ordValue{bits: nilBits}
}

func newOrderedIndex(path string, where Where) *orderedIndex {
	head := &ordNode{next: make([]*ordNode, ordMaxLevel)}
	return &orderedIndex{
		indexCore: indexCore{path: splitPath(path), where: predicate(where)},
		head:      head,
		tail:      head,
		rng:       0x9e3779b97f4a7c15, // fixed seed: levels are reproducible
	}
}

// randLevel draws a skip-list level from a deterministic xorshift64
// stream (p = 1/2 per level), so index structure — and therefore
// performance — is identical across runs and nodes.
func (ix *orderedIndex) randLevel() int {
	ix.rng ^= ix.rng << 13
	ix.rng ^= ix.rng >> 7
	ix.rng ^= ix.rng << 17
	lvl := 1
	for v := ix.rng; v&1 == 1 && lvl < ordMaxLevel; v >>= 1 {
		lvl++
	}
	return lvl
}

// preds fills the per-level predecessors of v's place.
func (ix *orderedIndex) preds(v ordValue, out *[ordMaxLevel]*ordNode) {
	n := ix.head
	for lvl := ordMaxLevel - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].val.order(v) < 0 {
			n = n.next[lvl]
		}
		out[lvl] = n
	}
}

// find returns the node of the value v, or nil.
func (ix *orderedIndex) find(v ordValue) *ordNode {
	n := ix.head
	for lvl := ordMaxLevel - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].val.order(v) < 0 {
			n = n.next[lvl]
		}
	}
	if n = n.next[0]; n != nil && n.val == v {
		return n
	}
	return nil
}

// seekGE returns the first node whose value is >= v by compare.
func (ix *orderedIndex) seekGE(v ordValue) *ordNode {
	n := ix.head
	for lvl := ordMaxLevel - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].val.compare(v) < 0 {
			n = n.next[lvl]
		}
	}
	return n.next[0]
}

// add indexes every scalar reached at the path, fanning arrays out to
// their elements like a MongoDB multikey index, and marks the index
// multikey if doc reaches more than one.
func (ix *orderedIndex) add(docKey string, doc map[string]any, h int64) {
	if !ix.covers(doc) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	values := 0
	ix.path.scalars(doc, func(v any) {
		k, ok := ordValueOf(v)
		if !ok {
			return
		}
		values++
		n := ix.find(k)
		if n == nil {
			n = ix.link(k)
		}
		n.open(docKey, h, ix.floor)
	})
	if values > 1 {
		ix.multikey.Store(true)
	}
}

// link inserts an empty node for the value k into the skip list.
// Caller holds ix.mu.
func (ix *orderedIndex) link(k ordValue) *ordNode {
	var pred [ordMaxLevel]*ordNode
	ix.preds(k, &pred)
	n := &ordNode{
		idxEntry: idxEntry{val: k},
		next:     make([]*ordNode, ix.randLevel()),
	}
	for lvl := range n.next {
		n.next[lvl] = pred[lvl].next[lvl]
		pred[lvl].next[lvl] = n
	}
	n.prev = pred[0]
	if succ := n.next[0]; succ != nil {
		succ.prev = n
	} else {
		ix.tail = n
	}
	return n
}

func (ix *orderedIndex) remove(docKey string, doc map[string]any, h int64) {
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
		if n := ix.find(k); n != nil && ix.end(&n.idxEntry, docKey, h) && n.empty() {
			ix.unlink(n)
		}
	})
}

// sweepFloor unlinks the nodes the sweep leaves with no posting.
func (ix *orderedIndex) sweepFloor(floor int64) int {
	return ix.sweepDue(floor, func(e *idxEntry) {
		if n := ix.find(e.val); n != nil && &n.idxEntry == e {
			ix.unlink(n)
		}
	})
}

// unlink removes n from the skip list. n keeps its own pointers so a
// parked cursor can still step forward/backward off it. Caller holds
// ix.mu.
func (ix *orderedIndex) unlink(n *ordNode) {
	var pred [ordMaxLevel]*ordNode
	ix.preds(n.val, &pred)
	for lvl := 0; lvl < len(n.next); lvl++ {
		if pred[lvl].next[lvl] == n {
			pred[lvl].next[lvl] = n.next[lvl]
		}
	}
	if succ := n.next[0]; succ != nil {
		succ.prev = n.prev
	} else if ix.tail == n {
		ix.tail = n.prev
	}
}

// lookupEq answers an equality probe (Eq / Contains candidates) as of
// height h.
func (ix *orderedIndex) lookupEq(key ordValue, h int64) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if n := ix.find(key); n != nil {
		return n.keysAt(h)
	}
	return nil
}

// ordRange is a planner-compiled range over one class of values:
// lo/hi bounds (either side optional), the lower inclusive and the
// upper inclusive or strict — one comparison, or an And of them on a
// single-valued path.
type ordRange struct {
	class        uint8
	lo, hi       ordValue
	hasLo, hasHi bool
	hiStrict     bool
}

// narrow tightens r by one comparison (opGte, opLt or opLte) against
// v, a value of r's class.
func (r *ordRange) narrow(op fieldOp, v ordValue) {
	if op == opGte {
		if !r.hasLo || v.compare(r.lo) > 0 {
			r.lo, r.hasLo = v, true
		}
		return
	}
	strict := op == opLt
	if cmp := v.compare(r.hi); !r.hasHi || cmp < 0 || (cmp == 0 && strict) {
		r.hi, r.hasHi, r.hiStrict = v, true, strict
	}
}

// empty reports a provably empty range (lo above hi).
func (r ordRange) empty() bool {
	if !r.hasLo || !r.hasHi {
		return false
	}
	cmp := r.lo.compare(r.hi)
	return cmp > 0 || (cmp == 0 && r.hiStrict)
}

func (r ordRange) String() string {
	var b strings.Builder
	if r.hasLo {
		b.WriteString(">=")
		b.WriteString(r.lo.render())
	}
	if r.hasHi {
		if r.hasLo {
			b.WriteString(" ")
		}
		if r.hiStrict {
			b.WriteString("<")
		} else {
			b.WriteString("<=")
		}
		b.WriteString(r.hi.render())
	}
	return b.String()
}

func (v ordValue) render() string {
	switch v.class() {
	case ordClassString:
		return fmt.Sprintf("%q", v.str)
	case ordClassNumber:
		return fmt.Sprintf("%g", v.num())
	case ordClassBool:
		return fmt.Sprintf("%t", v.bits == trueBits)
	}
	return "null"
}

// lookupRange materializes the candidate keys of a range scan as of
// height h: the walk starts at the lower bound (or the class floor)
// and stops at the upper bound or the end of the class. Keys may
// repeat across values for multikey documents; callers dedup
// (plannedVisitAt does).
func (ix *orderedIndex) lookupRange(r ordRange, h int64) []string {
	start := classFloor(r.class)
	if r.hasLo {
		start = r.lo
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []string
	for n := ix.seekGE(start); n != nil && n.val.class() == r.class; n = n.next[0] {
		if r.hasHi {
			cmp := n.val.compare(r.hi)
			if cmp > 0 || (cmp == 0 && r.hiStrict) {
				break
			}
		}
		out = n.appendKeysAt(out, h)
	}
	return out
}

// groupCursor streams BorrowFindOrdered's value groups lazily: each next
// call copies one node's visible document keys under one brief lock
// acquisition, then releases the lock before the caller resolves
// documents. A limit-k query therefore allocates O(k) work instead of
// materializing every value group of the whole index up front, and
// the index lock is held O(group) per step rather than O(index) per
// query. The iteration is weakly consistent against concurrent
// writers: a node inserted or unlinked between steps may be missed,
// exactly like the point-in-time snapshot it replaces could miss
// writes landing after it was taken.
type groupCursor struct {
	ix      *orderedIndex
	desc    bool
	cur     *ordNode
	started bool
}

// groups starts a value-ordered group cursor (reversed when desc).
func (ix *orderedIndex) groups(desc bool) *groupCursor {
	return &groupCursor{ix: ix, desc: desc}
}

// next returns the next value group's document keys visible at height
// h. Groups may be empty (every lifespan at the value misses h); a
// false second result ends the iteration.
func (gc *groupCursor) next(h int64) ([]string, bool) {
	gc.ix.mu.RLock()
	var n *ordNode
	switch {
	case !gc.started:
		gc.started = true
		if gc.desc {
			n = gc.ix.tail
		} else {
			n = gc.ix.head.next[0]
		}
	case gc.cur == nil:
	case gc.desc:
		n = gc.cur.prev
	default:
		n = gc.cur.next[0]
	}
	if n == gc.ix.head {
		n = nil
	}
	gc.cur = n
	if n == nil {
		gc.ix.mu.RUnlock()
		return nil, false
	}
	keys := n.keysAt(h)
	gc.ix.mu.RUnlock()
	return keys, true
}
