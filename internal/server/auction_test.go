package server

import (
	"sort"
	"testing"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// auctionLoad names one deterministic reverse-auction workload: the
// generator seed, the shape, and the spacing of client submissions.
type auctionLoad struct {
	genSeed           int64
	auctions, bidders int
	payload           int
	gap               time.Duration
}

// auctionRun is what one driven cluster leaves behind.
type auctionRun struct {
	committed    []string                 // transaction hashes, sorted
	commitAt     map[string]time.Duration // each transaction's first commit
	fingerprints []string                 // one per validator, read after its commits drained
	summary      consensus.Summary
}

// runAuctionCluster builds a cluster from cfg and drives load through
// it in the three dependency phases (requests+creates, bids, accepts),
// letting every replica settle between phases — a dependent
// transaction hitting a lagging receiver would be rejected permanently
// — until every client transaction and nested child has committed.
// inspect, when non-nil, reads the settled cluster before it closes.
// It is the one auction driver of this package's cluster tests: what
// differs between them is the configuration, never the driving.
func runAuctionCluster(t *testing.T, cfg ClusterConfig, load auctionLoad, inspect func(*Cluster, []*workload.AuctionGroup)) auctionRun {
	t.Helper()
	return runAuctionClusterWith(t, cfg, nil, load, inspect)
}

// runAuctionClusterWith is runAuctionCluster with prepare, when
// non-nil, run on the new cluster before any traffic.
func runAuctionClusterWith(t *testing.T, cfg ClusterConfig, prepare func(*Cluster), load auctionLoad, inspect func(*Cluster, []*workload.AuctionGroup)) auctionRun {
	t.Helper()
	return runAuctionClusterOn(t, NewCluster(cfg), prepare, load, inspect)
}

// runAuctionClusterOn is runAuctionClusterWith on a cluster already
// built.
func runAuctionClusterOn(t *testing.T, cluster *Cluster, prepare func(*Cluster), load auctionLoad, inspect func(*Cluster, []*workload.AuctionGroup)) auctionRun {
	t.Helper()
	cfg := cluster.cfg
	defer cluster.Close()
	if prepare != nil {
		prepare(cluster)
	}
	run := auctionRun{commitAt: make(map[string]time.Duration)}
	cluster.OnCommit(func(tx consensus.Tx, at time.Duration) {
		run.committed = append(run.committed, tx.Hash())
		run.commitAt[tx.Hash()] = at
	})
	gen := workload.NewGenerator(load.genSeed, cluster.ServerNode(0).Escrow())
	groups := make([]*workload.AuctionGroup, load.auctions)
	for i := range groups {
		groups[i] = gen.NewAuctionGroup(i*(load.bidders+1), workload.AuctionGroupSpec{
			BiddersPerAuction: load.bidders, PayloadBytes: load.payload,
		})
	}

	at := cluster.Sched().Now()
	want := 0
	submit := func(tx *txn.Transaction) {
		cluster.SubmitAt(at, tx)
		at += load.gap
		want++
	}
	settle := func() {
		cluster.RunUntil(cluster.Sched().Now() + time.Second)
		at = cluster.Sched().Now()
	}
	for _, g := range groups {
		submit(g.Request)
		for _, c := range g.Creates {
			submit(c)
		}
	}
	cluster.RunUntilCommitted(want, at+time.Hour)
	settle()
	for _, g := range groups {
		for _, b := range g.Bids {
			submit(b)
		}
	}
	cluster.RunUntilCommitted(want, at+time.Hour)
	settle()
	for _, g := range groups {
		submit(g.Accept)
		want += len(g.Bids) // children: one transfer to the winner, a return per loser
	}
	if got := cluster.RunUntilCommitted(want, at+time.Hour); got != want {
		t.Fatalf("committed %d of %d", got, want)
	}
	settle()

	sort.Strings(run.committed)
	for i := 0; i < cfg.Nodes; i++ {
		// A decided block may still be applying in the background;
		// drain so the fingerprint (and any obs registry) sees its seal.
		cluster.ServerNode(i).DrainCommits()
		run.fingerprints = append(run.fingerprints, cluster.ServerNode(i).State().Fingerprint())
	}
	run.summary = cluster.Summarize()
	if inspect != nil {
		inspect(cluster, groups)
	}
	return run
}

// requireSameCommitted fails unless both runs committed the same,
// non-empty transaction set.
func requireSameCommitted(t *testing.T, aName string, a auctionRun, bName string, b auctionRun) {
	t.Helper()
	if len(a.committed) == 0 {
		t.Fatalf("%s run committed nothing", aName)
	}
	if len(a.committed) != len(b.committed) {
		t.Fatalf("committed counts differ: %s=%d %s=%d", aName, len(a.committed), bName, len(b.committed))
	}
	for i := range a.committed {
		if a.committed[i] != b.committed[i] {
			t.Fatalf("committed sets differ at %d: %s has %.8s, %s has %.8s", i, aName, a.committed[i], bName, b.committed[i])
		}
	}
}

// requireSameState fails unless every validator of both runs holds the
// same state bytes: replicas agree within each run, and the two runs
// agree with each other.
func requireSameState(t *testing.T, aName string, a auctionRun, bName string, b auctionRun) {
	t.Helper()
	if len(a.fingerprints) == 0 || len(b.fingerprints) == 0 {
		t.Fatalf("no fingerprints: %s=%d %s=%d", aName, len(a.fingerprints), bName, len(b.fingerprints))
	}
	for _, r := range []struct {
		name string
		run  auctionRun
	}{{aName, a}, {bName, b}} {
		for i, fp := range r.run.fingerprints {
			if fp != a.fingerprints[0] {
				t.Fatalf("%s node %d holds different state than %s node 0", r.name, i, aName)
			}
		}
	}
}
