package server

import (
	"fmt"
	"testing"
	"time"

	"smartchaindb/internal/netsim"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// The cluster-level halves of the pipeline's knobs, on one auction
// driver (runAuctionCluster): what a knob may never change — the
// committed set, the state bytes, the auction economics — and, in
// deterministic virtual time, the direction in which it must move the
// cluster's throughput.

// TestPackingPolicyDifferential drives the identical conflict-heavy
// auction workload through two full consensus clusters — one packing
// blocks in arrival order, one with the makespan-aware policy — and
// requires them to commit exactly the same transaction set and
// byte-identical chain state on every validator. Packing may reshape
// blocks; it must never reshape state.
func TestPackingPolicyDifferential(t *testing.T) {
	run := func(packing string) auctionRun {
		return runAuctionCluster(t, ClusterConfig{
			Nodes:         4,
			Seed:          4242, // same seed: identical scheduling and workload
			BlockInterval: 40 * time.Millisecond,
			MaxBlockTxs:   8,
			Pipelined:     true,
			ChildDelay:    100 * time.Millisecond,
			Packing:       packing,
			Node: Config{
				ReceiverTime:        2 * time.Millisecond,
				ValidationTimePerTx: time.Millisecond,
				ParallelWorkers:     4,
				AdmissionWorkers:    4,
				MempoolBatch:        16,
			},
		}, auctionLoad{genSeed: 55, auctions: 3, bidders: 5, payload: 96, gap: 3 * time.Millisecond}, nil)
	}
	fifo, packed := run("fifo"), run("makespan")
	requireSameCommitted(t, "fifo", fifo, "makespan", packed)
	requireSameState(t, "fifo", fifo, "makespan", packed)
}

// TestClusterDifferentialSequentialVsParallel drives the identical
// reverse-auction workload — creates, requests, conflict-heavy bids on
// shared REQUESTs, accepts, and the nested children they spawn —
// through two full consensus clusters, one validating blocks
// sequentially and one with the 4-worker parallel pipeline, and
// requires them to commit exactly the same transaction set and agree
// on the auction economics. Run it with -race to exercise the worker
// pool under the detector.
func TestClusterDifferentialSequentialVsParallel(t *testing.T) {
	run := func(workers int) (auctionRun, map[string]bool) {
		econ := make(map[string]bool)
		r := runAuctionCluster(t, ClusterConfig{
			Nodes:         4,
			Seed:          1234, // same seed: identical scheduling and workload
			BlockInterval: 40 * time.Millisecond,
			MaxBlockTxs:   16,
			Pipelined:     true,
			ChildDelay:    100 * time.Millisecond,
			Node: Config{
				ReceiverTime:        2 * time.Millisecond,
				ValidationTimePerTx: time.Millisecond,
				ParallelWorkers:     workers,
			},
		}, auctionLoad{genSeed: 99, auctions: 2, bidders: 4, payload: 96, gap: 3 * time.Millisecond},
			func(cluster *Cluster, groups []*workload.AuctionGroup) {
				state := cluster.ServerNode(0).State()
				for gi, g := range groups {
					accept, ok := state.AcceptForRFQ(g.Request.ID)
					econ[fmt.Sprintf("auction%d.settled", gi)] = ok
					if !ok {
						continue
					}
					win, _ := state.Output(txn.OutputRef{TxID: accept.Asset.ID, Index: 0})
					winAsset := win.AssetID
					econ[fmt.Sprintf("auction%d.winnerPaid", gi)] =
						state.Balance(g.Requester.PublicBase58(), winAsset) == 1
					for bi, bid := range g.Bids {
						if bid.ID == accept.Asset.ID {
							continue
						}
						lost, _ := state.Output(txn.OutputRef{TxID: bid.ID, Index: 0})
						econ[fmt.Sprintf("auction%d.loser%d.whole", gi, bi)] =
							state.Balance(g.Bidders[bi].PublicBase58(), lost.AssetID) == 1
					}
				}
			})
		return r, econ
	}
	seqRun, seqEcon := run(0)
	parRun, parEcon := run(4)
	requireSameCommitted(t, "sequential", seqRun, "parallel", parRun)
	for k, v := range seqEcon {
		if !v {
			t.Errorf("sequential cluster economics broken: %s", k)
		}
		if parEcon[k] != v {
			t.Errorf("economics differ for %s: sequential=%v parallel=%v", k, v, parEcon[k])
		}
	}
}

// TestKnobDirectionsInVirtualTime pins the direction each pipeline
// knob must move a cluster that is bound on the stage the knob widens.
// The consensus engine costs every stage in virtual time — validation
// at the conflict plan's makespan on ParallelWorkers, admission at its
// makespan on AdmissionWorkers, the commit on the execution resource at
// depth 1 and on a commit slot above it — so the numbers are the same
// on any host, at any GOMAXPROCS, on every run. The wall-clock size of
// each effect is the repo benchmark's to measure (benchmark/); that it
// points the right way, and changes no state, is pinned here.
func TestKnobDirectionsInVirtualTime(t *testing.T) {
	cases := []struct {
		name   string
		cfg    ClusterConfig
		load   auctionLoad
		set    func(*Config, int) // turns the knob
		lo, hi int
		// strictly: throughput must rise, not merely not fall.
		strictly bool
		// latency: mean commit latency must not rise.
		latency bool
		// sameState: all validators of both runs hold the same bytes.
		sameState bool
	}{
		{
			// Large blocks, expensive per-transaction DeliverTx checks.
			name: "validation-bound",
			cfg: ClusterConfig{
				Seed:          21,
				BlockInterval: 50 * time.Millisecond,
				Latency:       netsim.UniformLatency{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
				Node: Config{
					ReceiverTime:        2 * time.Millisecond,
					ValidationTimePerTx: 2 * time.Millisecond,
				},
			},
			load: auctionLoad{genSeed: 28, auctions: 6, bidders: 8, payload: 128, gap: 2 * time.Millisecond},
			set:  func(c *Config, v int) { c.ParallelWorkers = v },
			lo:   1, hi: 4,
			latency: true,
		},
		{
			// Commit stage four times as expensive as validation:
			// serialized on the execution resource at depth 1,
			// overlapped on a commit slot behind the fence at depth 2.
			name: "commit-bound",
			cfg: ClusterConfig{
				Seed:          77,
				BlockInterval: 10 * time.Millisecond,
				Latency:       netsim.UniformLatency{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
				Node: Config{
					ReceiverTime:        time.Millisecond,
					ValidationTimePerTx: 2 * time.Millisecond,
					CommitTimePerTx:     8 * time.Millisecond,
					ParallelWorkers:     4,
					CommitWorkers:       4,
				},
			},
			load: auctionLoad{genSeed: 84, auctions: 6, bidders: 8, payload: 128, gap: 2 * time.Millisecond},
			set:  func(c *Config, v int) { c.CommitDepth = v },
			lo:   1, hi: 2,
			strictly: true, sameState: true,
		},
		{
			// Fast submissions, expensive receiver validation.
			name: "receiver-bound",
			cfg: ClusterConfig{
				Seed:          99,
				BlockInterval: 40 * time.Millisecond,
				Latency:       netsim.UniformLatency{Base: 3 * time.Millisecond, Jitter: 2 * time.Millisecond},
				Node: Config{
					ReceiverTime:        8 * time.Millisecond,
					ValidationTimePerTx: 200 * time.Microsecond,
					ParallelWorkers:     4,
					MempoolBatch:        32,
				},
			},
			load: auctionLoad{genSeed: 106, auctions: 8, bidders: 6, payload: 128, gap: time.Millisecond},
			set:  func(c *Config, v int) { c.AdmissionWorkers = v },
			lo:   1, hi: 4,
			strictly: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(v int) auctionRun {
				cfg := tc.cfg
				cfg.Nodes = 4
				cfg.MaxBlockTxs = 64
				cfg.Pipelined = true
				// The marketplace benchmark's return-queue hop.
				cfg.ChildDelay = 100 * time.Millisecond
				tc.set(&cfg.Node, v)
				return runAuctionCluster(t, cfg, tc.load, nil)
			}
			lo, hi := run(tc.lo), run(tc.hi)
			t.Logf("%d: %.3f tps, mean %v, %d committed; %d: %.3f tps, mean %v, %d committed",
				tc.lo, lo.summary.Throughput, lo.summary.MeanLatency, lo.summary.Committed,
				tc.hi, hi.summary.Throughput, hi.summary.MeanLatency, hi.summary.Committed)
			if lo.summary.Committed != hi.summary.Committed {
				t.Fatalf("committed counts differ: %d=%d %d=%d", tc.lo, lo.summary.Committed, tc.hi, hi.summary.Committed)
			}
			if hi.summary.Throughput < lo.summary.Throughput || (tc.strictly && hi.summary.Throughput == lo.summary.Throughput) {
				t.Errorf("throughput did not rise: %d=%.3f tps %d=%.3f tps", tc.lo, lo.summary.Throughput, tc.hi, hi.summary.Throughput)
			}
			if tc.latency && hi.summary.MeanLatency > lo.summary.MeanLatency {
				t.Errorf("mean latency rose: %d=%v %d=%v", tc.lo, lo.summary.MeanLatency, tc.hi, hi.summary.MeanLatency)
			}
			if tc.sameState {
				requireSameState(t, fmt.Sprint(tc.lo), lo, fmt.Sprint(tc.hi), hi)
			}
		})
	}
}
