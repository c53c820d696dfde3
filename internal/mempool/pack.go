package mempool

import (
	"sort"
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
)

// Pack selects up to maxTxs pending, unreserved transactions for the
// next block. maxTxs <= 0 means no cap. workers is the validation
// worker count the proposer assumes on the validators (PackMakespan
// balances for it; zero falls back to Config.PackWorkers).
//
// PackFIFO returns the arrival-order prefix. PackMakespan computes the
// pending set's conflict groups through the system's single grouping
// relation, parallel.GroupFootprints over the pooled footprints — so
// they are exactly the groups validators plan the same transactions
// with (parallel.BuildPlan) — and fills the block small
// groups first, each group capped at one worker's fair share, so the
// packed block's conflict-group chains list-schedule onto the workers
// with minimal makespan. Within a group, arrival order is preserved —
// a prefix of a group never separates a transaction from a pending
// dependency, because a dependency always shares a footprint key and
// arrived earlier.
//
// Liveness: the group holding the oldest pending transaction is always
// selected first, so no conflict chain is starved by a stream of
// fresher independent work.
func (p *Pool) Pack(maxTxs, workers int) []Tx {
	t0 := time.Now()
	out := p.pack(maxTxs, workers)
	if len(out) > 0 {
		d := time.Since(t0)
		p.ob.packNs.ObserveDuration(d)
		if p.ob.tracer != nil {
			p.ob.tracer.ObserveEach(p.ob.hashesOf(out), obs.StagePack, d)
		}
	}
	return out
}

func (p *Pool) pack(maxTxs, workers int) []Tx {
	if workers <= 0 {
		workers = p.cfg.PackWorkers
	}
	txs, fps := p.snapshot()
	if maxTxs <= 0 || maxTxs >= len(txs) {
		// Everything fits: block composition is fixed, so keep
		// arrival order — validators re-plan the groups.
		return txs
	}
	if p.cfg.Policy != PackMakespan || workers <= 1 {
		return append([]Tx(nil), txs[:maxTxs]...)
	}
	return packMakespan(txs, parallel.GroupFootprints(fps), maxTxs, workers)
}

// snapshot copies the packable transactions and their footprints in
// arrival order.
func (p *Pool) snapshot() (txs []Tx, fps []txn.Footprint) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	txs, fps = make([]Tx, 0, p.live), make([]txn.Footprint, 0, p.live)
	for _, e := range p.order {
		if !e.gone && !e.reserved {
			txs = append(txs, e.tx)
			fps = append(fps, e.fp)
		}
	}
	return txs, fps
}

// packMakespan is the greedy group-balancing selection of maxTxs of
// txs, given their conflict groups (groups lists batch indexes, each
// group in arrival order, groups ordered by first member).
func packMakespan(txs []Tx, groups [][]int, maxTxs, workers int) []Tx {
	// fair is one worker's share of the block: a group contributing
	// more than this forms a chain longer than the schedule's lower
	// bound, so the first pass never takes more.
	fair := (maxTxs + workers - 1) / workers

	// Selection order: the group holding the oldest pending transaction
	// first (liveness), then ascending size — small independent groups
	// balance across workers, big chains dilute the block last.
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := groups[order[a]], groups[order[b]]
		oldestA, oldestB := ga[0] == 0, gb[0] == 0
		if oldestA != oldestB {
			return oldestA
		}
		if len(ga) != len(gb) {
			return len(ga) < len(gb)
		}
		return ga[0] < gb[0]
	})

	budget := maxTxs
	taken := make([]int, len(groups)) // prefix length taken per group
	for _, gi := range order {
		if budget == 0 {
			break
		}
		take := len(groups[gi])
		if take > fair {
			take = fair
		}
		if take > budget {
			take = budget
		}
		taken[gi] = take
		budget -= take
	}
	// Second pass: only big groups have untapped capacity (all small
	// ones are exhausted). Extend one transaction at a time onto the
	// currently shortest chain so the leftover budget stays balanced —
	// dumping it into one group could hand FIFO the better schedule.
	for budget > 0 {
		best := -1
		for _, gi := range order {
			if taken[gi] < len(groups[gi]) && (best < 0 || taken[gi] < taken[best]) {
				best = gi
			}
		}
		if best < 0 {
			break
		}
		taken[best]++
		budget--
	}
	// Emit the selected prefixes in global arrival order —
	// deterministic, and a pick never precedes a same-group
	// dependency.
	picks := make([]int, 0, maxTxs)
	for gi, g := range groups {
		picks = append(picks, g[:taken[gi]]...)
	}
	sort.Ints(picks)
	out := make([]Tx, len(picks))
	for i, idx := range picks {
		out[i] = txs[idx]
	}
	return out
}
