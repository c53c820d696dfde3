package server

import (
	"testing"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/nested"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// collectChildren is a submitter that builds each owed child and
// appends it to *into.
func collectChildren(into *[]*txn.Transaction) nested.Submitter {
	return func(_ txn.OutputRef, build func() *txn.Transaction) { *into = append(*into, build()) }
}

// dropChildren is a submitter that loses every child in flight.
func dropChildren(txn.OutputRef, func() *txn.Transaction) {}

// networkChildren rewires every validator to the child path the cluster
// used before ChildInjector, kept here as the reference the injected
// path is pinned to: each validator's children went back through the
// client path, ChildDelay after its commit of the parent, to a random
// receiver that paid receiver time and gossiped them, and the cluster's
// submission layer kept the first of the four copies.
func networkChildren(c *Cluster) {
	for _, n := range c.nodes {
		n.SetChildSubmitter(func(_ txn.OutputRef, build func() *txn.Transaction) {
			c.SubmitAt(c.Sched().Now()+c.cfg.ChildDelay, build())
		})
	}
}

// eagerChildren rewires every validator to the child path the cluster
// used before the injectors shared one build per owed output, kept
// here as the reference that path is pinned to: each validator built
// and signed every child its commit derived, and the cluster pooled
// the first copy of each transaction ID injected anywhere.
func eagerChildren(c *Cluster) {
	for i, n := range c.nodes {
		n.SetChildSubmitter(func(_ txn.OutputRef, build func() *txn.Transaction) {
			child := build()
			c.InjectAt(c.Sched().Now()+c.cfg.ChildDelay, i, child.ID, func() consensus.Tx { return child })
		})
	}
}

// countBuilds wraps a child submitter so that every call of a child's
// build adds one to *builds.
func countBuilds(submit nested.Submitter, builds *int) nested.Submitter {
	return func(out txn.OutputRef, build func() *txn.Transaction) {
		submit(out, func() *txn.Transaction {
			*builds++
			return build()
		})
	}
}

// slowestChildTail returns the longest wait, over every accepted
// auction, from its ACCEPT_BID's commit to its last child's, and fails
// the test unless every child of every auction committed.
func slowestChildTail(t *testing.T, c *Cluster, groups []*workload.AuctionGroup) time.Duration {
	t.Helper()
	state := c.ServerNode(0).State()
	var slowest time.Duration
	for _, g := range groups {
		accept, ok := state.AcceptForRFQ(g.Request.ID)
		if !ok {
			t.Fatalf("auction %.8s has no committed accept", g.Request.ID)
		}
		parentAt, _ := c.CommitTime(accept.ID)
		rec, err := state.RecoveryFor(accept.ID)
		if err != nil || rec.Status != "COMPLETE" || len(rec.Done) != len(g.Bids) {
			t.Fatalf("auction %.8s: recovery record %+v, %v; want all %d children done", g.Request.ID, rec, err, len(g.Bids))
		}
		for _, id := range rec.Done {
			at, ok := c.CommitTime(id)
			if !ok {
				t.Fatalf("child %.8s is in the record but never committed", id)
			}
			slowest = max(slowest, at-parentAt)
		}
	}
	return slowest
}

// TestInjectedChildrenMatchNetworkChildren drives the same auctions
// through two four-validator clusters, one whose validators inject the
// children they derive into their own mempools and one on the
// receiver-and-gossip reference path. Both commit every child; all
// eight validators hold the same state bytes, because the children
// vector is ordered by output index and not by commit order; and the
// injected cluster's slowest child follows its parent sooner.
func TestInjectedChildrenMatchNetworkChildren(t *testing.T) {
	cfg := ClusterConfig{
		Nodes:         4,
		Seed:          2929,
		BlockInterval: 40 * time.Millisecond,
		MaxBlockTxs:   32,
		Pipelined:     true,
		ChildDelay:    100 * time.Millisecond,
		Node: Config{
			ReceiverTime:        8 * time.Millisecond,
			ValidationTimePerTx: 500 * time.Microsecond,
			AdmissionWorkers:    2,
			ParallelWorkers:     2,
		},
	}
	load := auctionLoad{genSeed: 61, auctions: 4, bidders: 6, payload: 96, gap: 3 * time.Millisecond}
	var injectedTail, networkTail time.Duration
	injected := runAuctionClusterWith(t, cfg, nil, load, func(c *Cluster, groups []*workload.AuctionGroup) {
		injectedTail = slowestChildTail(t, c, groups)
	})
	network := runAuctionClusterWith(t, cfg, networkChildren, load, func(c *Cluster, groups []*workload.AuctionGroup) {
		networkTail = slowestChildTail(t, c, groups)
	})
	requireSameCommitted(t, "injected", injected, "network", network)
	requireSameState(t, "injected", injected, "network", network)
	t.Logf("slowest child tail: injected %v, network %v", injectedTail, networkTail)
	if injectedTail >= networkTail {
		t.Errorf("slowest child tail: injected %v, network %v; want injected shorter", injectedTail, networkTail)
	}
}

// TestChildBuiltOncePerCluster drives the same auctions through two
// four-validator clusters, one on the shared injectors and one on the
// eager reference. The reference builds and signs every child on every
// validator; the injectors build each owed child once for the whole
// cluster. Both commit the same transactions at the same virtual
// times, and every validator of both holds the same state bytes.
func TestChildBuiltOncePerCluster(t *testing.T) {
	cfg := ClusterConfig{
		Nodes:         4,
		Seed:          3131,
		BlockInterval: 40 * time.Millisecond,
		MaxBlockTxs:   32,
		Pipelined:     true,
		Node: Config{
			ReceiverTime:        8 * time.Millisecond,
			ValidationTimePerTx: 500 * time.Microsecond,
			AdmissionWorkers:    2,
			ParallelWorkers:     2,
		},
	}
	load := auctionLoad{genSeed: 67, auctions: 4, bidders: 5, payload: 96, gap: 3 * time.Millisecond}
	owed := load.auctions * load.bidders
	var shared, eager int
	sharedRun := runAuctionClusterWith(t, cfg, func(c *Cluster) {
		for i, n := range c.nodes {
			n.SetChildSubmitter(countBuilds(c.ChildInjector(i), &shared))
		}
	}, load, nil)
	eagerRun := runAuctionClusterWith(t, cfg, func(c *Cluster) {
		eagerChildren(c)
		for _, n := range c.nodes {
			n.SetChildSubmitter(countBuilds(n.submitChild, &eager))
		}
	}, load, nil)
	if shared != owed {
		t.Errorf("shared injectors built %d children, want one per owed child, %d", shared, owed)
	}
	if eager != cfg.Nodes*owed {
		t.Errorf("eager reference built %d children, want %d per validator, %d", eager, owed, cfg.Nodes*owed)
	}
	requireSameCommitted(t, "shared", sharedRun, "eager", eagerRun)
	for _, h := range sharedRun.committed {
		if a, b := sharedRun.commitAt[h], eagerRun.commitAt[h]; a != b {
			t.Errorf("%.8s committed at %v on the shared injectors, %v on the eager reference", h, a, b)
		}
	}
	requireSameState(t, "shared", sharedRun, "eager", eagerRun)
}

// TestRestartedValidatorReusesPendingChildren crashes validator 0 as
// its join hands over the children of an ACCEPT_BID and restarts it
// before any of them has committed. Its recovery replay owes both
// children again and is handed the copies the cluster already pools,
// building none; the children commit and every validator ends with
// the same state.
func TestRestartedValidatorReusesPendingChildren(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Nodes:         4,
		Seed:          23,
		BlockInterval: 20 * time.Millisecond,
		MaxBlockTxs:   32,
		Pipelined:     true,
		ChildDelay:    200 * time.Millisecond,
	})
	defer c.Close()
	escrowPair := c.ServerNode(0).Escrow()
	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	rfq := signedRequest(t, requester, "cnc")
	a1, a2 := signedCreate(t, b1, "cnc"), signedCreate(t, b2, "cnc")
	for _, tx := range []*txn.Transaction{rfq, a1, a2} {
		c.Submit(tx)
	}
	c.RunUntilCommitted(3, time.Minute)
	bid1 := signedBid(t, b1, a1, escrowPair.PublicBase58(), rfq.ID)
	bid2 := signedBid(t, b2, a2, escrowPair.PublicBase58(), rfq.ID)
	c.Submit(bid1)
	c.Submit(bid2)
	c.RunUntilCommitted(5, 2*time.Minute)

	builds := 0
	for i, n := range c.nodes[1:] {
		n.SetChildSubmitter(countBuilds(c.ChildInjector(i+1), &builds))
	}
	n0 := c.ServerNode(0)
	var replayed, restartBuilds int
	inject := countBuilds(c.ChildInjector(0), &builds)
	n0.SetChildSubmitter(func(out txn.OutputRef, build func() *txn.Transaction) {
		if !c.Net().IsDown(0) {
			c.Crash(0)
			c.Sched().After(50*time.Millisecond, func() {
				replay := countBuilds(inject, &restartBuilds)
				n0.SetChildSubmitter(func(out txn.OutputRef, build func() *txn.Transaction) {
					replayed++
					replay(out, build)
				})
				c.RestartNode(0)
			})
		}
		inject(out, build)
	})
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPair.PublicBase58(), rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrowPair, requester); err != nil {
		t.Fatal(err)
	}
	c.Submit(acc)
	if got := c.RunUntilCommitted(8, 5*time.Minute); got != 8 {
		t.Fatalf("committed %d of 8", got)
	}
	if replayed != 2 {
		t.Fatalf("validator 0's recovery replay owed %d children, want 2", replayed)
	}
	if restartBuilds != 0 {
		t.Errorf("restarted validator 0 built %d of the children its replay owed, want 0: both were pending", restartBuilds)
	}
	if builds != 2 {
		t.Errorf("the cluster built %d children, want one per owed child, 2", builds)
	}
	for want := 9; want <= 10; want++ {
		c.Submit(signedCreate(t, keys.MustGenerate(), "cnc"))
		if got := c.RunUntilCommitted(want, c.Sched().Now()+5*time.Minute); got != want {
			t.Fatalf("committed %d of %d after the restart", got, want)
		}
	}
	c.RunUntil(c.Sched().Now() + 10*time.Second)
	requireSameFingerprints(t, c)
	if rec, err := n0.State().RecoveryFor(acc.ID); err != nil || rec.Status != "COMPLETE" {
		t.Errorf("validator 0's record = %+v, %v; want COMPLETE", rec, err)
	}
}

// requireSameFingerprints fails unless every validator of c holds the
// state bytes validator 0 holds.
func requireSameFingerprints(t *testing.T, c *Cluster) {
	t.Helper()
	var want string
	for i := range c.nodes {
		c.ServerNode(i).DrainCommits()
		fp := c.ServerNode(i).State().Fingerprint()
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("validator %d holds different state than validator 0", i)
		}
	}
}

// TestChildrenCommitWhileTheirValidatorIsDown crashes validator 0 while
// its join hands over the children of an ACCEPT_BID it has just
// committed (the §4.2.1 crash), so its injections are lost. The other
// validators derived the same children and commit them without it. On
// RestartNode its recovery replay injects the children it still owes
// into its own mempool — building its own copies, since the cluster's
// are committed and gone — and once it has caught up it holds the same
// state as the others, with the record complete and nothing pooled.
func TestChildrenCommitWhileTheirValidatorIsDown(t *testing.T) {
	regs := make([]*obs.Registry, 4)
	c := NewCluster(ClusterConfig{
		Nodes:         4,
		Seed:          17,
		BlockInterval: 20 * time.Millisecond,
		MaxBlockTxs:   32,
		Pipelined:     true,
		ObsFor:        func(i int) *obs.Registry { regs[i] = obs.New(); return regs[i] },
	})
	defer c.Close()
	pooled := func() int64 { return regs[0].Snapshot().Gauges["mempool.live"] }
	escrowPair := c.ServerNode(0).Escrow()
	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()

	rfq := signedRequest(t, requester, "cnc")
	a1, a2 := signedCreate(t, b1, "cnc"), signedCreate(t, b2, "cnc")
	for _, tx := range []*txn.Transaction{rfq, a1, a2} {
		c.Submit(tx)
	}
	c.RunUntilCommitted(3, time.Minute)
	bid1 := signedBid(t, b1, a1, escrowPair.PublicBase58(), rfq.ID)
	bid2 := signedBid(t, b2, a2, escrowPair.PublicBase58(), rfq.ID)
	c.Submit(bid1)
	c.Submit(bid2)
	c.RunUntilCommitted(5, 2*time.Minute)

	n0 := c.ServerNode(0)
	inject := c.ChildInjector(0)
	n0.SetChildSubmitter(func(out txn.OutputRef, build func() *txn.Transaction) {
		c.Crash(0)
		inject(out, build)
	})
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPair.PublicBase58(), rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrowPair, requester); err != nil {
		t.Fatal(err)
	}
	c.Submit(acc)
	if got := c.RunUntilCommitted(8, 5*time.Minute); got != 8 {
		t.Fatalf("committed %d of 8 with validator 0 down", got)
	}
	if !c.Net().IsDown(0) {
		t.Fatal("validator 0 never crashed: it handed over no child")
	}
	if rec, err := n0.State().RecoveryFor(acc.ID); err != nil || len(rec.Pending) != 2 {
		t.Fatalf("validator 0's record = %+v, %v; want both children pending", rec, err)
	}

	restartBuilds := 0
	n0.SetChildSubmitter(countBuilds(inject, &restartBuilds))
	c.RestartNode(0)
	c.RunUntil(c.Sched().Now() + 10*time.Millisecond)
	if got := pooled(); got != 2 {
		t.Fatalf("validator 0 pools %d transactions after its recovery replay, want its 2 children", got)
	}
	if restartBuilds != 2 {
		t.Fatalf("validator 0's replay built %d children, want its own 2: the cluster's had committed", restartBuilds)
	}
	// New traffic moves the cluster on; once it is two heights ahead,
	// validator 0 fetches the blocks it missed.
	for want := 9; want <= 10; want++ {
		c.Submit(signedCreate(t, keys.MustGenerate(), "cnc"))
		if got := c.RunUntilCommitted(want, c.Sched().Now()+5*time.Minute); got != want {
			t.Fatalf("committed %d of %d after the restart", got, want)
		}
	}
	c.RunUntil(c.Sched().Now() + 10*time.Second)
	requireSameFingerprints(t, c)
	if rec, err := n0.State().RecoveryFor(acc.ID); err != nil || rec.Status != "COMPLETE" {
		t.Errorf("validator 0's record = %+v, %v; want COMPLETE", rec, err)
	}
	if got := pooled(); got != 0 {
		t.Errorf("validator 0 still pools %d transactions", got)
	}
}
