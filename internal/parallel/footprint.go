package parallel

import (
	"hash/maphash"
	"slices"
	"sort"
	"sync"

	"smartchaindb/internal/txn"
)

// Plan partitions a batch into conflict groups: connected components
// of the conflict graph, each listed in ascending block order.
type Plan struct {
	// Groups are disjoint index sets covering the whole batch. Each
	// group is sorted ascending (block order); groups are ordered by
	// their first member.
	Groups [][]int
	// Footprints holds the per-transaction footprints, batch-indexed:
	// each transaction's own (txn.Transaction.Footprint), shared and
	// read-only.
	Footprints []txn.Footprint
}

// BuildPlan computes the conflict groups for a batch with a union-find
// over the shared footprint keys. Cost is linear in the total number
// of footprint keys.
func BuildPlan(txs []*txn.Transaction) *Plan {
	p := &Plan{Footprints: make([]txn.Footprint, len(txs))}
	for i, t := range txs {
		p.Footprints[i] = t.Footprint()
	}
	p.Groups = GroupFootprints(p.Footprints)
	return p
}

// GroupFootprints partitions a batch of footprints into conflict
// groups — connected components of the conflict graph — with a
// union-find over the shared keys: a key some footprint writes joins
// every footprint that touches it, and a key only read stays inert
// (read/read is not a conflict); Spends are part of Writes and add
// nothing. Each group lists its members in
// ascending batch order; groups are ordered by first member. This is
// the single grouping relation in the system: block validation plans
// with it, and the mempool's makespan-aware packer predicts those
// plans through it.
//
// The key table and the union-find live in pooled scratch (grouper),
// so a call allocates only the groups it returns: one backing array
// for every member and the slice of groups over it.
func GroupFootprints(fps []txn.Footprint) [][]int {
	g := groupers.Get().(*grouper)
	defer groupers.Put(g)
	return g.group(fps)
}

var groupers = sync.Pool{New: func() any { return &grouper{seed: maphash.MakeSeed()} }}

// grouper is GroupFootprints' scratch. table is an open-addressed hash
// table of slot numbers (index+1; 0 is empty) into slots, one per
// distinct key. A call clears exactly the table entries it filled, so
// its cost follows its own key count, not that of the largest call the
// scratch served before.
type grouper struct {
	seed    maphash.Seed
	table   []int32
	slots   []keySlot
	readers []reader
	parent  []int32
	number  []int32 // root → group number + 1
	sizes   []int
}

// keySlot is one key's state during a call.
type keySlot struct {
	key string
	at  int32 // the key's table index, cleared when the call ends
	// writer is the first footprint writing the key, or -1. Until it
	// is set, readers heads the list of the key's readers, which the
	// writer joins when it comes.
	writer, readers int32
}

// reader is one entry of a key's reader list: a footprint and the
// previous entry, or -1.
type reader struct{ fp, prev int32 }

func (g *grouper) group(fps []txn.Footprint) [][]int {
	n, keys := len(fps), 0
	for _, fp := range fps {
		keys += len(fp.Writes) + len(fp.Reads)
	}
	size := 1
	for size < 2*keys {
		size <<= 1
	}
	if cap(g.table) < size {
		g.table = make([]int32, size)
	}
	g.table = g.table[:size]
	g.parent = slices.Grow(g.parent[:0], n)[:n]
	for i := range g.parent {
		g.parent[i] = int32(i)
	}
	for i, fp := range fps {
		i := int32(i)
		for _, k := range fp.Writes {
			s := g.slot(k)
			if s.writer >= 0 {
				g.union(s.writer, i)
				continue
			}
			s.writer = i
			for r := s.readers; r >= 0; r = g.readers[r].prev {
				g.union(i, g.readers[r].fp)
			}
		}
		for _, k := range fp.Reads {
			if s := g.slot(k); s.writer >= 0 {
				g.union(s.writer, i)
			} else {
				g.readers = append(g.readers, reader{fp: i, prev: s.readers})
				s.readers = int32(len(g.readers) - 1)
			}
		}
	}
	for _, s := range g.slots {
		g.table[s.at] = 0
	}
	clear(g.slots) // drop the key strings
	g.slots, g.readers = g.slots[:0], g.readers[:0]

	// Number the groups in order of first member: walking the batch
	// ascending meets each root first at its smallest member.
	g.number = slices.Grow(g.number[:0], n)[:n]
	clear(g.number)
	g.sizes = g.sizes[:0]
	for i := range n {
		r := g.find(int32(i))
		if g.number[r] == 0 {
			g.sizes = append(g.sizes, 0)
			g.number[r] = int32(len(g.sizes))
		}
		g.sizes[g.number[r]-1]++
	}
	members := make([]int, n)
	groups := make([][]int, len(g.sizes))
	off := 0
	for gi, sz := range g.sizes {
		groups[gi] = members[off : off : off+sz]
		off += sz
	}
	for i := range n {
		gi := g.number[g.find(int32(i))] - 1
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// slot returns the state of key k, adding it on first sight.
func (g *grouper) slot(k string) *keySlot {
	mask := uint64(len(g.table) - 1)
	for at := maphash.String(g.seed, k) & mask; ; at = (at + 1) & mask {
		s := g.table[at]
		if s == 0 {
			g.slots = append(g.slots, keySlot{key: k, at: int32(at), writer: -1, readers: -1})
			g.table[at] = int32(len(g.slots))
			return &g.slots[len(g.slots)-1]
		}
		if g.slots[s-1].key == k {
			return &g.slots[s-1]
		}
	}
}

func (g *grouper) find(x int32) int32 {
	for g.parent[x] != x {
		g.parent[x] = g.parent[g.parent[x]]
		x = g.parent[x]
	}
	return x
}

func (g *grouper) union(a, b int32) {
	if ra, rb := g.find(a), g.find(b); ra != rb {
		g.parent[rb] = ra
	}
}

// RunGroups dispatches the plan's conflict groups across a worker
// pool, largest group first (LPT list scheduling — the order Makespan
// models, and the one that keeps the critical path from starting
// last; ties keep block order), calling run once per group. run
// executes each group's members in its own goroutine; members of one
// group must be processed in the given (block) order by the caller.
// workers <= 1 runs the groups one after another on the caller's
// goroutine, in plan order.
func (p *Plan) RunGroups(workers int, run func(group []int)) {
	if workers > len(p.Groups) {
		workers = len(p.Groups)
	}
	if workers <= 1 {
		for _, g := range p.Groups {
			run(g)
		}
		return
	}
	order := make([]int, len(p.Groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(p.Groups[order[a]]) > len(p.Groups[order[b]])
	})
	groups := make(chan []int, len(p.Groups))
	for _, gi := range order {
		groups <- p.Groups[gi]
	}
	close(groups)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for g := range groups {
				run(g)
			}
		}()
	}
	wg.Wait()
}

// Largest returns the size of the biggest conflict group — the
// critical path of the plan.
func (p *Plan) Largest() int {
	max := 0
	for _, g := range p.Groups {
		if len(g) > max {
			max = len(g)
		}
	}
	return max
}

// Makespan estimates the parallel validation length in transaction
// units on w workers: greedy longest-processing-time list scheduling
// of the conflict groups. With w <= 1 it is the batch size: one worker
// runs every group.
func (p *Plan) Makespan(workers int) int {
	return p.MakespanWeighted(workers, nil)
}

// MakespanWeighted is Makespan with a per-transaction cost: weight(i)
// is the cost of batch index i in transaction units (nil means 1 —
// plain Makespan). Verdict reuse models it with weight 0 for
// transactions whose admission verdict still stands: they ride a
// group's chain for free, so a block of mostly-fresh transactions
// schedules in the time of its stale remainder.
func (p *Plan) MakespanWeighted(workers int, weight func(i int) int) int {
	sizes := make([]int, len(p.Groups))
	for gi, g := range p.Groups {
		for _, i := range g {
			if weight == nil {
				sizes[gi]++
			} else {
				sizes[gi] += weight(i)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	workers = min(max(workers, 1), len(sizes))
	if workers == 0 {
		return 0
	}
	load := make([]int, workers)
	for _, sz := range sizes {
		least := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[least] {
				least = i
			}
		}
		load[least] += sz
	}
	return slices.Max(load)
}
