package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// refApp is a validator as the engine drove it before joins that hand
// nothing on were put off and admission checks started early, kept as
// the reference both are pinned to: it says every block hands
// something on, so every join runs at its block's instant, and it
// starts no check before its batch completes.
type refApp struct{ consensus.App }

func (refApp) HandsOn([]consensus.Tx) bool { return true }

func (refApp) PrecheckBatch([]consensus.Tx) (wait func()) { return func() {} }

// newRefCluster is NewCluster with every validator behind refApp.
func newRefCluster(cfg ClusterConfig) *Cluster {
	return newCluster(cfg, func(n *Node) consensus.App { return refApp{n} })
}

// forgedCreate is a CREATE whose ID matches its payload but whose
// fulfillment is another key's signature: every node refuses it at
// admission, after an early check has failed on it.
func forgedCreate(t *testing.T, seed int64) *txn.Transaction {
	t.Helper()
	owner, forger := keys.DeterministicKeyPair(seed), keys.DeterministicKeyPair(seed+1)
	tx := txn.NewCreate(owner.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}, "forged": float64(seed)}, 1, nil)
	if err := txn.Sign(tx, owner); err != nil {
		t.Fatal(err)
	}
	forged := tx.Clone()
	forged.Inputs[0].Fulfillment = forger.Sign(tx.SigningPayload())
	return forged
}

// deferredRun is one driven auction cluster and what its validators
// counted and handed on.
type deferredRun struct {
	auctionRun
	counters []map[string]uint64      // per validator: server.admit.sig_*
	handedOn map[string]time.Duration // "<validator>/<escrow output>" → instant
}

// driveDeferred runs load through a cluster from build, recording the
// instant each validator hands each child on and the signature counters
// of each validator's admission.
func driveDeferred(t *testing.T, build func(ClusterConfig) *Cluster, cfg ClusterConfig, load auctionLoad, forged *txn.Transaction) deferredRun {
	t.Helper()
	regs := make([]*obs.Registry, cfg.Nodes)
	cfg.ObsFor = func(i int) *obs.Registry { regs[i] = obs.New(); return regs[i] }
	run := deferredRun{handedOn: make(map[string]time.Duration)}
	c := build(cfg)
	run.auctionRun = runAuctionClusterOn(t, c, func(c *Cluster) {
		for i, n := range c.nodes {
			inject := c.ChildInjector(i)
			n.SetChildSubmitter(func(out txn.OutputRef, build func() *txn.Transaction) {
				run.handedOn[fmt.Sprintf("%d/%s", i, out)] = c.Sched().Now()
				inject(out, build)
			})
		}
		c.SubmitAt(2*time.Millisecond, forged)
	}, load, nil)
	for _, r := range regs {
		snap := r.Snapshot().Counters
		run.counters = append(run.counters, map[string]uint64{
			"server.admit.sig_tasks":      snap["server.admit.sig_tasks"],
			"server.admit.sig_dedup_hits": snap["server.admit.sig_dedup_hits"],
			"server.admit.sig_reused":     snap["server.admit.sig_reused"],
		})
	}
	return run
}

// TestDeferredJoinsMatchReference drives the same auctions, and one
// forged CREATE, through a cluster and through the reference (refApp)
// at both commit depths, with and without a commit cost, on four seeds.
// The two commit the same transactions at the same virtual instants,
// refuse the same count, summarize alike and hold the same state bytes
// on every validator; every ACCEPT_BID's children are handed on by
// each validator at the instant the reference hands them on; and each
// validator's admission counts the same signature tasks, dedup hits and
// reuses: an early check is counted once, by the batch that would have
// run it, and never as a reuse of the node's own work.
func TestDeferredJoinsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		depth      int
		commitCost time.Duration
	}{
		{seed: 5101, depth: 1},
		{seed: 5102, depth: 2},
		{seed: 5103, depth: 2, commitCost: 300 * time.Microsecond},
		{seed: 5104, depth: 1, commitCost: 300 * time.Microsecond},
	} {
		t.Run(fmt.Sprintf("seed=%d/depth=%d/cost=%v", tc.seed, tc.depth, tc.commitCost), func(t *testing.T) {
			cfg := ClusterConfig{
				Nodes:         4,
				Seed:          tc.seed,
				BlockInterval: 40 * time.Millisecond,
				MaxBlockTxs:   32,
				Pipelined:     true,
				Node: Config{
					ReceiverTime:        8 * time.Millisecond,
					ValidationTimePerTx: 500 * time.Microsecond,
					AdmissionWorkers:    2,
					ParallelWorkers:     2,
					CommitWorkers:       2,
					CommitDepth:         tc.depth,
					CommitTimePerTx:     tc.commitCost,
				},
			}
			load := auctionLoad{genSeed: tc.seed, auctions: 3, bidders: 4, payload: 64, gap: 2 * time.Millisecond}
			got := driveDeferred(t, NewCluster, cfg, load, forgedCreate(t, tc.seed))
			want := driveDeferred(t, newRefCluster, cfg, load, forgedCreate(t, tc.seed))
			requireSameCommitted(t, "deferred", got.auctionRun, "reference", want.auctionRun)
			for _, h := range want.committed {
				if a, b := got.commitAt[h], want.commitAt[h]; a != b {
					t.Errorf("%.8s committed at %v, at %v in the reference", h, a, b)
				}
			}
			if got.summary != want.summary {
				t.Errorf("summary %+v, reference %+v", got.summary, want.summary)
			}
			if want.summary.Rejected == 0 {
				t.Error("the reference refused nothing: the forged CREATE went through")
			}
			requireSameState(t, "deferred", got.auctionRun, "reference", want.auctionRun)
			if len(want.handedOn) != cfg.Nodes*load.auctions*load.bidders {
				t.Fatalf("the reference handed on %d children, want %d per validator", len(want.handedOn), load.auctions*load.bidders)
			}
			if !reflect.DeepEqual(got.handedOn, want.handedOn) {
				for k, at := range want.handedOn {
					if got.handedOn[k] != at {
						t.Errorf("child %s handed on at %v, at %v in the reference", k, got.handedOn[k], at)
					}
				}
			}
			for i := range want.counters {
				if want.counters[i]["server.admit.sig_tasks"] == 0 {
					t.Fatalf("validator %d counted no signature task", i)
				}
				if !reflect.DeepEqual(got.counters[i], want.counters[i]) {
					t.Errorf("validator %d counted %v, the reference %v", i, got.counters[i], want.counters[i])
				}
			}
		})
	}
}
