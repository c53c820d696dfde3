package parallel

import (
	"sort"
	"sync"

	"smartchaindb/internal/txn"
)

// Footprint is the declaratively-derived read/write set of one
// transaction over chain state. Keys are opaque strings; two
// transactions conflict iff one's Writes intersect the other's Writes
// or Reads.
type Footprint struct {
	// Writes are the state keys the transaction mutates at commit:
	// its own identity, the UTXOs it spends, and the auction state of
	// every transaction it references.
	Writes []string
	// Reads are the state keys the transaction's condition set
	// consults without mutating: the producers of its spent outputs
	// and its linked asset.
	Reads []string
}

// FootprintOf computes the footprint directly from the transaction
// document — no execution, per the declarative model.
func FootprintOf(t *txn.Transaction) Footprint {
	// Both slices are sized to what the sweep below appends.
	n := len(t.Refs)
	for _, in := range t.Inputs {
		if in.Fulfills != nil {
			n++
		}
	}
	f := Footprint{Writes: make([]string, 0, 1+n)}
	if t.Asset != nil && t.Asset.ID != "" {
		n++
	}
	if n > 0 {
		f.Reads = make([]string, 0, n)
	}
	f.Writes = append(f.Writes, "tx:"+t.ID)
	f.Writes = append(f.Writes, t.SpendKeys()...)
	for _, in := range t.Inputs {
		if ref := in.Fulfills; ref != nil {
			f.Reads = append(f.Reads, "tx:"+ref.TxID)
		}
	}
	for _, id := range t.Refs {
		f.Writes = append(f.Writes, "ref:"+id)
		f.Reads = append(f.Reads, "tx:"+id)
	}
	if t.Asset != nil && t.Asset.ID != "" {
		f.Reads = append(f.Reads, "tx:"+t.Asset.ID)
	}
	return f
}

// TouchKeys unions the full footprints (reads and writes) of a batch —
// the key set a reader presents to the commit fence: any overlap with
// an in-flight block's write set must wait for the seal.
func TouchKeys(txs []*txn.Transaction) []string {
	var keys []string
	for _, t := range txs {
		fp := FootprintOf(t)
		keys = append(keys, fp.Writes...)
		keys = append(keys, fp.Reads...)
	}
	return keys
}

// Conflicts reports whether the two footprints may not run
// concurrently: write/write or write/read intersection.
func (f Footprint) Conflicts(g Footprint) bool {
	return intersects(f.Writes, g.Writes) ||
		intersects(f.Writes, g.Reads) ||
		intersects(f.Reads, g.Writes)
}

func intersects(a, b []string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[string]struct{}, len(a))
	for _, k := range a {
		set[k] = struct{}{}
	}
	for _, k := range b {
		if _, ok := set[k]; ok {
			return true
		}
	}
	return false
}

// Plan partitions a batch into conflict groups: connected components
// of the conflict graph, each listed in ascending block order.
type Plan struct {
	// Groups are disjoint index sets covering the whole batch. Each
	// group is sorted ascending (block order); groups are ordered by
	// their first member.
	Groups [][]int
	// Footprints holds the per-transaction footprints, batch-indexed.
	Footprints []Footprint
}

// BuildPlan computes the conflict groups for a batch with a union-find
// over the shared footprint keys. Cost is linear in the total number
// of footprint keys.
func BuildPlan(txs []*txn.Transaction) *Plan {
	p := &Plan{Footprints: make([]Footprint, len(txs))}
	for i, t := range txs {
		p.Footprints[i] = FootprintOf(t)
	}
	p.Groups = GroupFootprints(p.Footprints)
	return p
}

// GroupFootprints partitions a batch of footprints into conflict
// groups — connected components of the conflict graph — with a
// union-find over the shared keys. Each group lists its members in
// ascending batch order; groups are ordered by first member. This is
// the single grouping relation in the system: block validation plans
// with it, and the mempool's makespan-aware packer predicts those
// plans through it.
func GroupFootprints(fps []Footprint) [][]int {
	n := len(fps)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	// For every key, remember one writer; every later writer or reader
	// of the key is unioned with it. Readers sharing a key with no
	// writer stay independent (read/read is not a conflict).
	writerOf := make(map[string]int)
	readersOf := make(map[string][]int)
	for i, fp := range fps {
		for _, k := range fp.Writes {
			if w, ok := writerOf[k]; ok {
				union(w, i)
			} else {
				writerOf[k] = i
				// Earlier readers of the key join the writer's group.
				for _, r := range readersOf[k] {
					union(i, r)
				}
			}
		}
		for _, k := range fp.Reads {
			if w, ok := writerOf[k]; ok {
				union(w, i)
			} else {
				readersOf[k] = append(readersOf[k], i)
			}
		}
	}
	byRoot := make(map[int][]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	// Groups in order of first member: iterating roots in first-seen
	// order yields exactly that, since members are appended ascending.
	sort.Slice(roots, func(a, b int) bool { return byRoot[roots[a]][0] < byRoot[roots[b]][0] })
	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// RunGroups dispatches the plan's conflict groups across a worker
// pool, largest group first (LPT list scheduling — the order Makespan
// models, and the one that keeps the critical path from starting
// last; ties keep block order), calling run once per group. run
// executes each group's members in its own goroutine; members of one
// group must be processed in the given (block) order by the caller.
// workers <= 1 runs the groups sequentially in plan order.
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

// TouchKeys unions the plan's full footprints (reads and writes) —
// the fence key set of a batch whose plan is already built, saving
// the footprint re-derivation TouchKeys-on-transactions would do.
func (p *Plan) TouchKeys() []string { return p.unionKeys(true) }

// WriteKeys unions the plan's write footprints — what WriteKeys on the
// batch would return, from the footprints already derived.
func (p *Plan) WriteKeys() []string { return p.unionKeys(false) }

func (p *Plan) unionKeys(reads bool) []string {
	n := 0
	for _, fp := range p.Footprints {
		n += len(fp.Writes)
		if reads {
			n += len(fp.Reads)
		}
	}
	keys := make([]string, 0, n)
	for _, fp := range p.Footprints {
		keys = append(keys, fp.Writes...)
		if reads {
			keys = append(keys, fp.Reads...)
		}
	}
	return keys
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
// of the conflict groups. With w <= 1 it is the batch size.
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
	w := func(i int) int {
		if weight == nil {
			return 1
		}
		return weight(i)
	}
	if workers <= 1 {
		total := 0
		for _, g := range p.Groups {
			for _, i := range g {
				total += w(i)
			}
		}
		return total
	}
	sizes := make([]int, len(p.Groups))
	for gi, g := range p.Groups {
		for _, i := range g {
			sizes[gi] += w(i)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if workers > len(sizes) {
		workers = len(sizes)
	}
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
	max := 0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
