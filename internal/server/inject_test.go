package server

import (
	"testing"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// networkChildren rewires every validator to the child path the cluster
// used before ChildInjector, kept here as the reference the injected
// path is pinned to: each validator's children went back through the
// client path, ChildDelay after its commit of the parent, to a random
// receiver that paid receiver time and gossiped them, and the cluster's
// submission layer kept the first of the four copies.
func networkChildren(c *Cluster) {
	for _, n := range c.nodes {
		n.SetChildSubmitter(func(child *txn.Transaction) {
			c.SubmitAt(c.Sched().Now()+c.cfg.ChildDelay, child)
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

// TestChildrenCommitWhileTheirValidatorIsDown crashes validator 0 while
// its join hands over the children of an ACCEPT_BID it has just
// committed (the §4.2.1 crash), so its injections are lost. The other
// validators derived the same children and commit them without it. On
// RestartNode its recovery replay injects the children it still owes
// into its own mempool, and once it has caught up it holds the same
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
	n0.SetChildSubmitter(func(child *txn.Transaction) {
		c.Crash(0)
		inject(child)
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

	n0.SetChildSubmitter(inject)
	c.RestartNode(0)
	c.RunUntil(c.Sched().Now() + 10*time.Millisecond)
	if got := pooled(); got != 2 {
		t.Fatalf("validator 0 pools %d transactions after its recovery replay, want its 2 children", got)
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
	var want string
	for i := 0; i < 4; i++ {
		c.ServerNode(i).DrainCommits()
		fp := c.ServerNode(i).State().Fingerprint()
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("validator %d holds different state than validator 0", i)
		}
	}
	if rec, err := n0.State().RecoveryFor(acc.ID); err != nil || rec.Status != "COMPLETE" {
		t.Errorf("validator 0's record = %+v, %v; want COMPLETE", rec, err)
	}
	if got := pooled(); got != 0 {
		t.Errorf("validator 0 still pools %d transactions", got)
	}
}
