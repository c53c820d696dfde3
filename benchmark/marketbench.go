package main

import (
	"fmt"
	"math/rand"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/netsim"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// marketBench is the paper's marketplace experiment: reverse auctions
// in the published mix (ten CREATEs and ten BIDs per REQUEST, one
// ACCEPT_BID with its nested TRANSFER + RETURN children) on four
// validators under the consensus simulator. Submission is open loop in
// the simulator's virtual time at a fixed gap, in the three dependency
// phases; latency is virtual, throughput is committed transactions per
// wall second — what the whole replicated pipeline costs in CPU.
type marketBench struct {
	wl   workloadProfile
	seed int64

	groups []marketGroup
	nWarm  int

	minted  map[string]uint64
	commits int // client transactions and children the final state holds

	cluster *server.Cluster
	cur     *window // the window commits are credited to

	// Per ACCEPT_BID, from the commit hook: when it committed, how many
	// children followed, when the last one did (virtual time).
	acceptAt  map[string]time.Duration
	lastChild map[string]time.Duration
	children  map[string]int

	// The measured window's consensus counts (deltas over the drive).
	blocks, msgs int
	simD         time.Duration

	fingerprintD time.Duration
}

// marketGroup is one auction's inputs and what the generator expects
// of it.
type marketGroup struct {
	request []byte
	creates [][]byte
	bids    [][]byte
	accept  []byte
	open    bool // the auction is never accepted

	rfq    string
	assets []string
	prices []uint64
}

func (g *marketGroup) txs() int {
	n := 1 + len(g.creates) + len(g.bids)
	if !g.open {
		n += 1 + len(g.bids) // the accept and one child per bid
	}
	return n
}

// One auction in sixteen is never accepted, so the final state has open
// requests for the feed query to find.
const openEvery = 16

func (b *marketBench) units() (int, int)    { return b.nWarm, len(b.groups) }
func (b *marketBench) state() *ledger.State { return b.cluster.ServerNode(0).State() }

func (b *marketBench) generate(seed int64, n int) {
	b.seed = seed
	bidders := b.wl.Bidders
	perGroup := 2 + 3*bidders
	measured := (n + perGroup - 1) / perGroup
	b.nWarm = max(1, measured/10)
	b.groups = make([]marketGroup, b.nWarm+measured)
	// The escrow account is the cluster's, derived from its seed the way
	// server.NewCluster derives it.
	escrow := keys.NewReservedWithDefaults(seed + 1000).Escrow()
	escrowPub := escrow.PublicBase58()
	parallelFor(len(b.groups), func(gi int) {
		rng := rand.New(rand.NewSource(seed<<24 ^ int64(gi)))
		key := func(i int) *keys.KeyPair {
			return keys.DeterministicKeyPair(seed<<24 + int64(gi)<<8 + int64(i))
		}
		stamp := gi * 4 * (bidders + 1)
		meta := func() map[string]any {
			stamp++
			return map[string]any{"pad": padding(rng, b.wl.PayloadBytes), "timestamp": stamp}
		}
		caps := []any{fmt.Sprintf("capability-%02d", rng.Intn(32)), fmt.Sprintf("capability-%02d", 32+rng.Intn(32))}
		g := marketGroup{}
		requester := key(0)
		request := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": caps, "seq": gi}, meta())
		g.request = sealBytes(request, requester)
		g.rfq = request.ID
		bids := make([]*txn.Transaction, bidders)
		for i := range bids {
			bidder := key(1 + i)
			pub := bidder.PublicBase58()
			price := uint64(2 + rng.Intn(498))
			create := txn.NewCreate(pub, map[string]any{"capabilities": caps, "seq": i}, price, meta())
			g.creates = append(g.creates, sealBytes(create, bidder))
			bids[i] = txn.NewBid(pub, create.ID,
				txn.Spend{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{pub}},
				price, escrowPub, request.ID, meta())
			g.bids = append(g.bids, sealBytes(bids[i], bidder))
			g.assets = append(g.assets, create.ID)
			g.prices = append(g.prices, price)
		}
		g.open = gi%openEvery == openEvery-1
		if !g.open {
			win := rng.Intn(bidders)
			losing := append(append([]*txn.Transaction(nil), bids[:win]...), bids[win+1:]...)
			accept, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPub, request.ID, bids[win], losing, nil)
			if err != nil {
				panic(fmt.Sprintf("generator: accept: %v", err))
			}
			g.accept = sealBytes(accept, escrow, requester)
		}
		b.groups[gi] = g
	})
	b.minted = make(map[string]uint64)
	for i := range b.groups {
		g := &b.groups[i]
		b.commits += g.txs()
		b.minted[g.rfq] = 1
		for j, a := range g.assets {
			b.minted[a] = g.prices[j]
		}
	}
}

func (b *marketBench) open(_ string, tr *tracing, _ *window) (openD, preloadD time.Duration, err error) {
	t0 := time.Now()
	cfg := server.ClusterConfig{
		Nodes:         4,
		Seed:          b.seed,
		BlockInterval: 70 * time.Millisecond,
		MaxBlockTxs:   b.wl.BlockTxs,
		Pipelined:     true,
		Packing:       "makespan",
		Latency:       netsim.UniformLatency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
		// Children re-enter the network only after every replica has
		// applied the parent's block; an early child reaching a lagging
		// receiver would be refused for good.
		ChildDelay: 100 * time.Millisecond,
		Node: server.Config{
			ReceiverTime:        20 * time.Millisecond,
			ValidationTimePerTx: 500 * time.Microsecond,
			AdmissionWorkers:    workers,
			ParallelWorkers:     workers,
			CommitWorkers:       workers,
			CommitDepth:         commitDepth,
		},
	}
	if tr != nil {
		cfg.ObsFor = tr.reg
	}
	b.cluster = server.NewCluster(cfg)
	b.acceptAt = make(map[string]time.Duration)
	b.lastChild = make(map[string]time.Duration)
	b.children = make(map[string]int)
	b.cluster.OnCommit(func(tx consensus.Tx, at time.Duration) {
		t := tx.(*txn.Transaction)
		switch {
		case t.Operation == txn.OpAcceptBid:
			b.acceptAt[t.ID] = at
		case t.Operation == txn.OpReturn || t.Operation == txn.OpTransfer:
			parent := t.Inputs[0].Fulfills.TxID
			b.children[parent]++
			b.lastChild[parent] = at
		}
		lat, _ := b.cluster.Latency(t.ID)
		b.cur.seal(1, lat)
	})
	return time.Since(t0), 0, nil
}

func (b *marketBench) drive(lo, hi int, w *window) error {
	rec := w.rec
	b.cur = w
	w.virtual = true
	c := b.cluster
	gap := time.Duration(b.wl.SubmitGapUs) * time.Microsecond
	sent0, _, _ := c.Net().Stats()
	height0, sim0 := c.Node(0).Height(), c.Sched().Now()

	// phase submits one dependency phase's transactions at the fixed
	// gap, runs the simulator until they (and extra children) have
	// committed, then lets every replica settle.
	phase := func(name string, raws [][]byte, extra int) error {
		w.tick()
		unit := rec.start("unit", name, -1)
		s := rec.start("decode", name, unit)
		txs, err := decodeAll(raws)
		if err != nil {
			return err
		}
		rec.end(s)
		s = rec.start("submit", name, unit)
		at := c.Sched().Now()
		for _, t := range txs {
			c.SubmitAt(at, t)
			at += gap
		}
		rec.end(s)
		// Run the simulator a block's worth of commits at a time, so the
		// host clock gets its samples in between.
		s = rec.start("run", name, unit)
		for target := c.CommittedCount() + len(txs) + extra; c.CommittedCount() < target; w.tick() {
			had := c.CommittedCount()
			c.RunUntilCommitted(min(target, had+b.wl.BlockTxs), at+time.Hour)
			if c.CommittedCount() == had {
				break // the simulator ran dry; the check below counts what is missing
			}
		}
		rec.end(s)
		s = rec.start("settle", name, unit)
		c.RunUntil(c.Sched().Now() + time.Second)
		rec.end(s)
		for _, t := range txs {
			if _, ok := c.CommitTime(t.ID); !ok {
				w.failed++
			}
		}
		rec.end(unit)
		return nil
	}

	var first, bids, accepts [][]byte
	children := 0
	for i := lo; i < hi; i++ {
		g := &b.groups[i]
		first = append(append(first, g.request), g.creates...)
		bids = append(bids, g.bids...)
		if !g.open {
			accepts = append(accepts, g.accept)
			children += len(g.bids)
		}
	}
	if err := phase("creates", first, 0); err != nil {
		return err
	}
	if err := phase("bids", bids, 0); err != nil {
		return err
	}
	if err := phase("accepts", accepts, children); err != nil {
		return err
	}
	sent1, _, _ := c.Net().Stats()
	b.msgs = sent1 - sent0
	b.blocks = int(c.Node(0).Height() - height0)
	b.simD = c.Sched().Now() - sim0
	return nil
}

func (b *marketBench) queries(rng *rand.Rand, n int) []queryOp {
	bandAssets := make(map[uint64]int) // price → unspent outputs and bids at it
	open := 0
	for i := range b.groups {
		for _, p := range b.groups[i].prices {
			bandAssets[p]++
		}
		if b.groups[i].open {
			open++
		}
	}
	ops := make([]queryOp, n)
	for i := range ops {
		g := &b.groups[rng.Intn(len(b.groups))]
		j := rng.Intn(len(g.assets))
		switch {
		case i%100 == scanSlot:
			ops[i] = queryOp{method: qHoldingsInBand, lo: g.prices[j], hi: g.prices[j], want: bandAssets[g.prices[j]]}
		case i%100 == scanSlot+30:
			ops[i] = queryOp{method: qBidsInPriceBand, lo: g.prices[j], hi: g.prices[j], want: bandAssets[g.prices[j]]}
		case i%100 == scanSlot+60:
			ops[i] = queryOp{method: qRecentOpenRequests, want: min(20, open)}
		case i%20 < 3:
			ops[i] = queryOp{method: qHolderOf, id: g.assets[j], want: 1}
		case i%20 < 6:
			for g.open {
				g = &b.groups[rng.Intn(len(b.groups))]
			}
			ops[i] = queryOp{method: qAuctionOutcome, id: g.rfq, want: len(g.assets) - 1}
		case i%20 < 15:
			// CREATE → BID, then ACCEPT_BID → the winning TRANSFER if the
			// auction closed.
			steps := 4
			if g.open {
				steps = 2
			}
			ops[i] = queryOp{method: qAssetProvenance, id: g.assets[j], want: steps}
		default:
			ops[i] = queryOp{method: qBidsForRequest, id: g.rfq, want: len(g.assets)}
		}
	}
	return ops
}

func (b *marketBench) check(w *window) []string {
	var bad []string
	for i := 0; i < 4; i++ {
		b.cluster.ServerNode(i).DrainCommits()
	}
	st := b.state()
	if got := st.TxCount(); got != b.commits {
		bad = append(bad, fmt.Sprintf("committed %d transactions, generator expects %d", got, b.commits))
	}
	short := 0
	for i := range b.groups {
		if g := &b.groups[i]; !g.open {
			if out, ok := st.AcceptForRFQ(g.rfq); !ok || b.children[out.ID] != len(g.assets) {
				short++
			}
		}
	}
	if short != 0 {
		bad = append(bad, fmt.Sprintf("%d accepted auctions do not have one committed child per bid", short))
	}
	bad = append(bad, conservation(b.minted, st)...)
	t0 := time.Now()
	fp := st.Fingerprint()
	b.fingerprintD = time.Since(t0)
	for i := 1; i < 4; i++ {
		if b.cluster.ServerNode(i).State().Fingerprint() != fp {
			bad = append(bad, fmt.Sprintf("validator %d's fingerprint differs from validator 0's", i))
		}
	}
	return bad
}

func (b *marketBench) close() error { return b.cluster.Close() }

func (b *marketBench) dropInputs() {
	for i := range b.groups {
		g := &b.groups[i]
		g.request, g.creates, g.bids, g.accept = nil, nil, nil, nil
	}
}

func (b *marketBench) layer(tr *tracing, spans map[string]spanStat, w *window, m metrics) {
	m["consensus.blocks"] = float64(b.blocks)
	m["consensus.txs_per_block"] = ratio(float64(w.sealed), float64(b.blocks))
	m["consensus.msgs_per_tx"] = ratio(float64(b.msgs), float64(w.sealed))
	m["consensus.sim_s"] = b.simD.Seconds()
	hits, misses := tr.counter("mempool.verdict_reuse_hits"), tr.counter("mempool.verdict_reuse_misses")
	m["mempool.verdict_reuse_ratio"] = ratio(hits, hits+misses)
	m["mempool.screen_rejects"] = tr.counter("mempool.screen_reject_duplicate") + tr.counter("mempool.screen_reject_spend_claimed")
	var kids, tails []float64
	for id, at := range b.acceptAt {
		kids = append(kids, float64(b.children[id]))
		tails = append(tails, float64((b.lastChild[id]-at).Microseconds())/1e3)
	}
	m["nested.children_per_accept"] = median(kids)
	m["nested.child_commit_p50_ms"] = median(tails)
	m["ledger.fingerprint_ms"] = float64(b.fingerprintD.Microseconds()) / 1e3
}

func (b *marketBench) probeSet(max int) (preload, inputs [][]byte) {
	// REQUESTs and CREATEs validate against an empty state.
	for i := range b.groups {
		g := &b.groups[i]
		for _, raw := range append([][]byte{g.request}, g.creates...) {
			if len(inputs) == max {
				return nil, inputs
			}
			inputs = append(inputs, raw)
		}
	}
	return nil, inputs
}
