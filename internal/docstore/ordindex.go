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
// operators (Gt/Gte/Lt/Lte) and value-ordered document iteration
// (Collection.FindOrdered), both as-of any supported block height.
//
// Like hashIndex, it carries its own RWMutex: writers mutate it under
// the collection lock as part of every Insert/Update/Delete, but
// planned readers take only this lock plus lock-free point reads — a
// range scan never serializes behind the commit writer on the
// collection lock. Value-group iteration (FindOrdered) is streaming:
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
	head  *ordNode            // sentinel; head.next[0] is the first value
	tail  *ordNode            // last value node, head when empty
	byKey map[string]*ordNode // indexKey(value) -> node, for point lookups
	size  int                 // open (value, document) pairs
	rng   uint64              // deterministic xorshift state for levels
	// multikey is set, for good, once any document the index holds
	// reaches more than one value at the path (MongoDB's rule). Until
	// then every document has at most one value there, so an And of
	// comparisons on the path holds exactly for the documents whose
	// value lies in the intersection of their ranges, and the planner
	// compiles it to one bounded range.
	multikey atomic.Bool
}

const ordMaxLevel = 16

// ordNode is one distinct indexed value and its postings (idxEntry).
// prev links level 0 backwards so descending iteration streams like
// ascending. An unlinked node keeps its own next/prev pointers, so a
// cursor parked on it can still step off into the live list.
type ordNode struct {
	idxEntry
	val  ordValue
	next []*ordNode
	prev *ordNode
}

// ordValue is a scalar rendered into the index's total order.
type ordValue struct {
	class uint8 // 0 nil, 1 bool, 2 number, 3 string
	num   float64
	str   string
}

const (
	ordClassNil    = 0
	ordClassBool   = 1
	ordClassNumber = 2
	ordClassString = 3
)

// ordValueOf renders a scalar into the index order; non-scalars
// (maps, arrays — arrays fan out before this point) are not indexable.
func ordValueOf(v any) (ordValue, bool) {
	switch x := normalize(v).(type) {
	case nil:
		return ordValue{class: ordClassNil}, true
	case bool:
		n := 0.0
		if x {
			n = 1
		}
		return ordValue{class: ordClassBool, num: n}, true
	case float64:
		return ordValue{class: ordClassNumber, num: x}, true
	case string:
		return ordValue{class: ordClassString, str: x}, true
	}
	return ordValue{}, false
}

func (a ordValue) compare(b ordValue) int {
	if a.class != b.class {
		return int(a.class) - int(b.class)
	}
	switch a.class {
	case ordClassString:
		return strings.Compare(a.str, b.str)
	case ordClassNil:
		return 0
	default:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	}
}

// classFloor is the smallest ordValue of a class — the range-scan
// start for an unbounded-below comparison like Lt.
func classFloor(class uint8) ordValue {
	switch class {
	case ordClassNumber:
		return ordValue{class: ordClassNumber, num: math.Inf(-1)}
	case ordClassString:
		return ordValue{class: ordClassString, str: ""}
	}
	return ordValue{class: class}
}

func newOrderedIndex(path string, where Where) *orderedIndex {
	head := &ordNode{next: make([]*ordNode, ordMaxLevel)}
	return &orderedIndex{
		indexCore: indexCore{path: splitPath(path), where: predicate(where)},
		head:      head,
		tail:      head,
		byKey:     make(map[string]*ordNode),
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

// preds fills the per-level predecessors of the first node >= v.
func (ix *orderedIndex) preds(v ordValue, out *[ordMaxLevel]*ordNode) {
	n := ix.head
	for lvl := ordMaxLevel - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].val.compare(v) < 0 {
			n = n.next[lvl]
		}
		out[lvl] = n
	}
}

// seekGE returns the first node whose value is >= v.
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
		k, ok := indexKey(v)
		if !ok {
			return
		}
		values++
		n := ix.byKey[k]
		if n == nil {
			n = ix.link(k, v)
		}
		if n.open(docKey, h) {
			ix.size++
		}
	})
	if values > 1 {
		ix.multikey.Store(true)
	}
}

// link inserts an empty node for the indexable scalar v (whose
// indexKey is k) into the skip list. Caller holds ix.mu.
func (ix *orderedIndex) link(k string, v any) *ordNode {
	ov, _ := ordValueOf(v)
	var pred [ordMaxLevel]*ordNode
	ix.preds(ov, &pred)
	n := &ordNode{
		val:  ov,
		next: make([]*ordNode, ix.randLevel()),
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
	ix.byKey[k] = n
	return n
}

func (ix *orderedIndex) remove(docKey string, doc map[string]any, h int64) {
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
		n := ix.byKey[k]
		if n == nil || !n.close(docKey, h) {
			return
		}
		ix.size--
		ix.retire(&n.idxEntry, k, docKey, h)
		if n.empty() {
			ix.unlink(k, n)
		}
	})
}

// sweepFloor unlinks the nodes the sweep leaves with no posting.
func (ix *orderedIndex) sweepFloor(floor int64) int {
	return ix.sweepDue(floor,
		func(k string) *idxEntry {
			if n := ix.byKey[k]; n != nil {
				return &n.idxEntry
			}
			return nil
		},
		func(k string) { ix.unlink(k, ix.byKey[k]) })
}

// unlink removes n (filed under indexKey k) from the skip list. n keeps
// its own pointers so a parked cursor can still step forward/backward
// off it. Caller holds ix.mu.
func (ix *orderedIndex) unlink(k string, n *ordNode) {
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
	delete(ix.byKey, k)
}

// lookupEq answers an equality probe (Eq / Contains candidates) as of
// height h.
func (ix *orderedIndex) lookupEq(key string, h int64) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if n := ix.byKey[key]; n != nil {
		return n.keysAt(h)
	}
	return nil
}

// estimateEq reports the candidate count of an equality probe without
// materializing it — the planner's selectivity estimate.
func (ix *orderedIndex) estimateEq(key string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if n := ix.byKey[key]; n != nil {
		return n.alive
	}
	return 0
}

// containsDoc reports whether docKey is among the candidates for key
// as of height h.
func (ix *orderedIndex) containsDoc(key, docKey string, h int64) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if n := ix.byKey[key]; n != nil {
		return n.holds(docKey, h)
	}
	return false
}

// ordRange is a planner-compiled range over one class of values:
// lo/hi bounds (either side optional), inclusive or strict — one
// comparison, or an And of them on a single-valued path.
type ordRange struct {
	class              uint8
	lo, hi             ordValue
	hasLo, hasHi       bool
	loStrict, hiStrict bool
}

// narrow tightens r by one comparison (OpGt, OpGte, OpLt or OpLte)
// against v, a value of r's class.
func (r *ordRange) narrow(op string, v ordValue) {
	switch op {
	case OpGt, OpGte:
		strict := op == OpGt
		if cmp := v.compare(r.lo); !r.hasLo || cmp > 0 || (cmp == 0 && strict) {
			r.lo, r.hasLo, r.loStrict = v, true, strict
		}
	case OpLt, OpLte:
		strict := op == OpLt
		if cmp := v.compare(r.hi); !r.hasHi || cmp < 0 || (cmp == 0 && strict) {
			r.hi, r.hasHi, r.hiStrict = v, true, strict
		}
	}
}

// empty reports a provably empty range (lo above hi).
func (r ordRange) empty() bool {
	if !r.hasLo || !r.hasHi {
		return false
	}
	cmp := r.lo.compare(r.hi)
	return cmp > 0 || (cmp == 0 && (r.loStrict || r.hiStrict))
}

func (r ordRange) String() string {
	var b strings.Builder
	if r.hasLo {
		if r.loStrict {
			b.WriteString(">")
		} else {
			b.WriteString(">=")
		}
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
	switch v.class {
	case ordClassString:
		return fmt.Sprintf("%q", v.str)
	case ordClassNumber:
		return fmt.Sprintf("%g", v.num)
	case ordClassBool:
		return fmt.Sprintf("%t", v.num != 0)
	}
	return "null"
}

// lookupRange materializes the candidate keys of a range scan as of
// height h: the walk starts at the lower bound (or the class floor)
// and stops at the upper bound or the end of the class. Keys may
// repeat across values for multikey documents; callers dedup
// (shardedVisit does).
func (ix *orderedIndex) lookupRange(r ordRange, h int64) []string {
	start := classFloor(r.class)
	if r.hasLo {
		start = r.lo
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := ix.seekGE(start)
	if r.hasLo && r.loStrict {
		for n != nil && n.val.compare(r.lo) == 0 {
			n = n.next[0]
		}
	}
	var out []string
	for ; n != nil && n.val.class == r.class; n = n.next[0] {
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

// ordEstimateNodeBudget caps the estimation walk: selectivity only has
// to be exact for ranges narrow enough to be worth driving a plan.
const ordEstimateNodeBudget = 512

// estimateRange counts the (value, document) pairs a range scan would
// visit — the planner's selectivity estimate for comparisons. The walk
// is exact up to a fixed node budget; a range still open after that
// many distinct values saturates to the index's total size. The
// pessimistic saturation biases the planner toward point-driven plans
// for sweeping comparisons (a half-bounded Gte over a large index),
// without paying an O(distinct values) walk just to learn the range is
// wide — mis-ranking only shifts work onto the residual filter, never
// the results.
func (ix *orderedIndex) estimateRange(r ordRange) int {
	start := classFloor(r.class)
	if r.hasLo {
		start = r.lo
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := ix.seekGE(start)
	if r.hasLo && r.loStrict {
		for n != nil && n.val.compare(r.lo) == 0 {
			n = n.next[0]
		}
	}
	est := 0
	for nodes := 0; n != nil && n.val.class == r.class; n = n.next[0] {
		if r.hasHi {
			cmp := n.val.compare(r.hi)
			if cmp > 0 || (cmp == 0 && r.hiStrict) {
				break
			}
		}
		if nodes++; nodes > ordEstimateNodeBudget {
			return ix.size
		}
		est += n.alive
	}
	return est
}

// groupCursor streams FindOrdered's value groups lazily: each next
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
