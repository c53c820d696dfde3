package bench

import (
	"fmt"
	"io"
	"time"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// RecoveryResult reports the E5 crash drill: an ACCEPT_BID commits
// while every node's return-queue worker is disconnected (the §4.2.1
// "crash while enqueueing RETURNs" case); one node then recovers and
// replays its accept_tx_recovery log.
type RecoveryResult struct {
	Bidders           int
	ParentCommitMs    float64
	ChildrenExpected  int
	ChildrenLost      int // committed while workers were down (must be 0)
	ChildrenRecovered int
	SettledAfter      bool
}

// RunRecovery executes the drill on a 4-validator cluster.
func RunRecovery(bidders int, seed int64) (RecoveryResult, error) {
	if bidders <= 0 {
		bidders = 5
	}
	res := RecoveryResult{Bidders: bidders, ChildrenExpected: bidders}
	cluster := newSCDBCluster(SCDBParams{Nodes: 4, Seed: seed})
	gen := workload.NewGenerator(seed+13, cluster.ServerNode(0).Escrow())
	grp := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: bidders})

	at := cluster.Sched().Now()
	count := 0
	submit := func(t *txn.Transaction) {
		cluster.SubmitAt(at, t)
		at += 22 * time.Millisecond
		count++
	}
	submit(grp.Request)
	for _, c := range grp.Creates {
		submit(c)
	}
	if got := cluster.RunUntilCommitted(count, at+time.Hour); got != count {
		return res, fmt.Errorf("bench: recovery setup phase 1: %d of %d", got, count)
	}
	at = cluster.Sched().Now()
	for _, b := range grp.Bids {
		submit(b)
	}
	if got := cluster.RunUntilCommitted(count, at+time.Hour); got != count {
		return res, fmt.Errorf("bench: recovery setup phase 2: %d of %d", got, count)
	}

	// Disconnect every node's child submitter: the crash window.
	for i := 0; i < 4; i++ {
		cluster.ServerNode(i).SetChildSubmitter(func(txn.OutputRef, func() *txn.Transaction) {})
	}
	at = cluster.Sched().Now()
	submit(grp.Accept)
	if got := cluster.RunUntilCommitted(count, at+time.Hour); got != count {
		return res, fmt.Errorf("bench: accept did not commit")
	}
	lat, _ := cluster.Latency(grp.Accept.ID)
	res.ParentCommitMs = float64(lat) / float64(time.Millisecond)
	cluster.RunUntil(cluster.Sched().Now() + 5*time.Second)
	res.ChildrenLost = cluster.CommittedCount() - count // should be 0

	// One node restarts: reconnect its worker and replay the log.
	n0 := cluster.ServerNode(0)
	n0.SetChildSubmitter(cluster.ChildInjector(0))
	cluster.Sched().After(0, func() { n0.Recover() })
	want := count + bidders
	got := cluster.RunUntilCommitted(want, cluster.Sched().Now()+time.Hour)
	res.ChildrenRecovered = got - count
	cluster.RunUntil(cluster.Sched().Now() + 5*time.Second)
	if rec, err := n0.State().RecoveryFor(grp.Accept.ID); err == nil {
		res.SettledAfter = rec.Status == "COMPLETE"
	}
	// End-state check: the requester holds the winning asset.
	if res.SettledAfter {
		if winBid, ok := n0.State().Tx(grp.Accept.AssetID()); ok {
			if asset, err := winBid.AssetID(); err == nil {
				res.SettledAfter = n0.State().Balance(requesterOf(grp), asset) == 1
			}
		}
	}
	return res, nil
}

func requesterOf(g *workload.AuctionGroup) string {
	return g.Requester.PublicBase58()
}

// PrintRecovery renders the E5 result.
func PrintRecovery(w io.Writer, r RecoveryResult) {
	fmt.Fprintf(w, "Nested-transaction crash recovery (§4.2.1 drill, %d bidders)\n", r.Bidders)
	fmt.Fprintf(w, "  parent ACCEPT_BID committed non-locking in %.1f ms\n", r.ParentCommitMs)
	fmt.Fprintf(w, "  children while workers down: %d committed (expected 0)\n", r.ChildrenLost)
	fmt.Fprintf(w, "  children after recovery:     %d of %d committed\n", r.ChildrenRecovered, r.ChildrenExpected)
	fmt.Fprintf(w, "  escrow fully settled:        %v\n\n", r.SettledAfter)
}
