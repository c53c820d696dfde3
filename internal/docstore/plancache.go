package docstore

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Prepared-plan cache. Hot validator and marketplace queries compile
// the same filter shapes over and over; what makes compilation
// expensive is not the tree walk but the selectivity estimates, which
// take every probed index's shard locks. The cache therefore keys on
// the filter's *shape* — the Analyze tree with argument values
// abstracted to their index classes, which is exactly what compile's
// control flow depends on — and stores the estimate tape the last
// compile produced. A hit replays the tape through a fresh compile:
// the plan structure (including the intersect drive order, which sorts
// by estimate) is byte-identical to the cached compile, no index lock
// is touched, and the materialize/probe closures bind the *current*
// arguments and index handles, so correctness never depends on the
// cache. Invalidation is per path: every entry is stamped with the sum
// of the per-path DDL epochs over the paths its filter references, and
// CreateIndex / CreateOrderedIndex / DropIndex bump only their own
// path's epoch (and a partial index's predicate path's); an ordered
// path's epoch also moves the moment it turns multikey. Path epochs
// never decrease, so any DDL on a referenced path strictly moves the
// sum and the entry misses — while shapes over untouched paths stay
// warm across unrelated DDL instead of being flushed wholesale.

// estTape carries selectivity estimates between a recording compile
// and replaying ones. The leaf visit order is a pure function of the
// filter shape, so positional replay is exact.
type estTape struct {
	vals   []int
	pos    int
	replay bool
}

// est returns the next taped estimate when replaying, records the
// computed one when recording, and just computes when no tape is
// attached. A replay that runs past the tape (impossible for
// same-shape filters; defended anyway) falls back to computing.
func (t *estTape) est(compute func() int) int {
	if t == nil {
		return compute()
	}
	if t.replay {
		if t.pos < len(t.vals) {
			v := t.vals[t.pos]
			t.pos++
			return v
		}
		return compute()
	}
	t.vals = append(t.vals, compute())
	return t.vals[len(t.vals)-1]
}

// planCache is one collection's shape → estimate-tape map.
type planCache struct {
	mu      sync.RWMutex
	entries map[string]*planEntry
	// pathEpochs maps dot-path → DDL epoch, copy-on-write so the hot
	// path reads it with one atomic load. Mutators (buildIndex /
	// DropIndex) run under the collection's writer lock, which
	// serializes the read-copy-update.
	pathEpochs atomic.Pointer[map[string]uint64]
}

type planEntry struct {
	stamp uint64 // epochOf the filter's paths at record time
	vals  []int
}

// epochOf sums the current epochs of the given paths — the validity
// stamp for any shape referencing exactly those paths. Epochs only
// grow, so DDL on any referenced path strictly increases the sum.
func (pc *planCache) epochOf(paths []string) uint64 {
	m := pc.pathEpochs.Load()
	if m == nil {
		return 0
	}
	var sum uint64
	for _, p := range paths {
		sum += (*m)[p]
	}
	return sum
}

// get returns the tape recorded for key at the given stamp. The
// string(key) conversion inside a map index compiles to a no-alloc
// lookup.
func (pc *planCache) get(key []byte, stamp uint64) ([]int, bool) {
	pc.mu.RLock()
	e := pc.entries[string(key)]
	pc.mu.RUnlock()
	if e == nil || e.stamp != stamp {
		return nil, false
	}
	return e.vals, true
}

// put stores a freshly recorded tape unless a referenced path's epoch
// moved while the compile ran (an index on one of the filter's paths
// was created or dropped mid-flight: the tape may describe indexes
// that no longer exist).
func (pc *planCache) put(key []byte, paths []string, stamp uint64, vals []int) {
	if pc.epochOf(paths) != stamp {
		return
	}
	pc.mu.Lock()
	if pc.entries == nil {
		pc.entries = make(map[string]*planEntry)
	}
	pc.entries[string(key)] = &planEntry{stamp: stamp, vals: vals}
	pc.mu.Unlock()
}

// invalidatePath bumps one path's DDL epoch: every cached shape whose
// filter references the path misses from now on (including full-scan
// shapes recorded before the path ever had an index), and every other
// shape stays warm. The caller must hold the collection's writer lock.
func (pc *planCache) invalidatePath(path string) {
	old := pc.pathEpochs.Load()
	var next map[string]uint64
	if old == nil {
		next = map[string]uint64{path: 1}
	} else {
		next = make(map[string]uint64, len(*old)+1)
		for p, e := range *old {
			next[p] = e
		}
		next[path]++
	}
	pc.pathEpochs.Store(&next)
}

// shapeScratch recycles the shape key and referenced-path scratch so a
// cache hit allocates nothing.
type shapeScratch struct {
	key   []byte
	paths []string
}

var shapeScratchPool = sync.Pool{New: func() any {
	return &shapeScratch{key: make([]byte, 0, 128), paths: make([]string, 0, 8)}
}}

// appendShape serializes everything compile's control flow depends on:
// node kinds, paths, operators, child counts, and each argument's
// index class (indexKey scalar-ness and ordValueOf comparison class
// are both functions of the class alone) — except on predPaths, the
// paths partial indexes take their predicates on, where an Eq's
// literal argument decides which partial indexes the filter may use:
// there the key carries the literal itself, so Eq(spent, false) and
// Eq(spent, true) are two shapes. Two filters with equal shape keys
// compile to structurally identical plans modulo estimates (and the
// multikey state of their paths, whose flips bump the path's epoch).
// It also collects every referenced dot-path into paths — the set the
// entry's per-path epoch stamp is computed over.
func appendShape(dst []byte, paths []string, n Node, predPaths map[string]bool) ([]byte, []string) {
	switch n.Kind {
	case KindField:
		dst = append(dst, 'F')
		dst = append(dst, n.Path...)
		dst = append(dst, 0)
		dst = append(dst, n.Op...)
		dst = append(dst, 0, argClass(n.Arg))
		if n.Op == OpEq && predPaths[n.Path] {
			k, _ := indexKey(n.Arg)
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
		dst = binary.AppendUvarint(dst, uint64(len(n.List)))
		for _, a := range n.List {
			dst = append(dst, argClass(a))
		}
		paths = append(paths, n.Path)
	case KindAnd, KindOr:
		marker := byte('&')
		if n.Kind == KindOr {
			marker = '|'
		}
		dst = append(dst, marker)
		dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
		for _, ch := range n.Children {
			dst, paths = appendShape(dst, paths, ch, predPaths)
		}
	case KindNot:
		dst = append(dst, '!')
		for _, ch := range n.Children {
			dst, paths = appendShape(dst, paths, ch, predPaths)
		}
	case KindAll:
		dst = append(dst, '*')
	default:
		dst = append(dst, '?')
	}
	return dst, paths
}

// argClass buckets an argument value by how the planner can use it:
// nil / bool / number / string scalars, or 'o' for anything indexKey
// refuses (maps, arrays).
func argClass(v any) byte {
	switch normalize(v).(type) {
	case nil:
		return 'n'
	case bool:
		return 'b'
	case float64:
		return 'f'
	case string:
		return 's'
	}
	return 'o'
}
