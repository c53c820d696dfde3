// Package smartchaindb's root benchmark suite regenerates every table
// and figure of the paper's evaluation:
//
//	BenchmarkFig2TransferNativeVsContract  — Figure 2
//	BenchmarkFig7aLatencyRequestCreate     — Figure 7a
//	BenchmarkFig7bLatencyBidAccept         — Figure 7b
//	BenchmarkFig7cThroughput               — Figure 7c
//	BenchmarkFig8aScdbClusterLatency       — Figure 8a
//	BenchmarkFig8bEthClusterLatency        — Figure 8b
//	BenchmarkFig8cClusterThroughput        — Figure 8c
//	BenchmarkUsabilityLoC                  — §5.2.2 usability
//
// Latencies and throughputs are measured in simulated time on the
// deterministic cluster simulators and reported through custom metrics
// (sim-ms, sim-tps); wall-clock ns/op only reflects how fast the
// simulation executes. `go run ./cmd/scdb-bench` prints the same
// numbers as paper-style tables.
//
// Ablation benchmarks quantify the design decisions DESIGN.md calls
// out: block pipelining and non-locking nested commits.
package smartchaindb

import (
	"fmt"
	"testing"
	"time"

	"smartchaindb/internal/bench"
	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/nested"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/validate"
	"smartchaindb/internal/workload"
)

var benchScale = bench.Fig7Scale{Auctions: 2, Bidders: 5}

// commitOne commits tx as its own block and returns the error the
// stage skipped it with, if any.
func commitOne(s *ledger.State, tx *txn.Transaction) error {
	_, skipped := s.CommitBlock([]*txn.Transaction{tx})
	return skipped[tx.ID]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFig2TransferNativeVsContract regenerates Figure 2: gas and
// commit latency of the native TRANSFER vs its contract equivalent.
func BenchmarkFig2TransferNativeVsContract(b *testing.B) {
	var last bench.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig2(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.NativeGas), "native-gas")
	b.ReportMetric(float64(last.ContractGas), "contract-gas")
	b.ReportMetric(last.GasOverheadPct, "gas-overhead-%")
	b.ReportMetric(ms(last.NativeLatency), "native-sim-ms")
	b.ReportMetric(ms(last.ContractLatency), "contract-sim-ms")
}

// BenchmarkFig7aLatencyRequestCreate regenerates Figure 7a: REQUEST and
// CREATE latency at the smallest and largest payload sizes.
func BenchmarkFig7aLatencyRequestCreate(b *testing.B) {
	for _, size := range []int{112, 1740} {
		b.Run(fmt.Sprintf("size=%dB", size), func(b *testing.B) {
			var scdb bench.SCDBResult
			var eth bench.ETHResult
			for i := 0; i < b.N; i++ {
				scdb = bench.RunSCDB(bench.SCDBParams{
					PayloadBytes: size, Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				var err error
				eth, err = bench.RunETH(bench.ETHParams{
					PayloadBytes: size, Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ms(scdb.PerOp["CREATE"].Mean), "scdb-create-sim-ms")
			b.ReportMetric(ms(eth.PerOp["CREATE"].Mean), "eth-create-sim-ms")
			b.ReportMetric(ms(scdb.PerOp["REQUEST"].Mean), "scdb-request-sim-ms")
			b.ReportMetric(ms(eth.PerOp["REQUEST"].Mean), "eth-request-sim-ms")
		})
	}
}

// BenchmarkFig7bLatencyBidAccept regenerates Figure 7b: BID and
// ACCEPT_BID latency across payload sizes.
func BenchmarkFig7bLatencyBidAccept(b *testing.B) {
	for _, size := range []int{112, 1740} {
		b.Run(fmt.Sprintf("size=%dB", size), func(b *testing.B) {
			var scdb bench.SCDBResult
			var eth bench.ETHResult
			for i := 0; i < b.N; i++ {
				scdb = bench.RunSCDB(bench.SCDBParams{
					PayloadBytes: size, Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				var err error
				eth, err = bench.RunETH(bench.ETHParams{
					PayloadBytes: size, Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ms(scdb.PerOp["BID"].Mean), "scdb-bid-sim-ms")
			b.ReportMetric(ms(eth.PerOp["BID"].Mean), "eth-bid-sim-ms")
			b.ReportMetric(ms(scdb.PerOp["ACCEPT_BID"].Mean), "scdb-accept-sim-ms")
			b.ReportMetric(ms(eth.PerOp["ACCEPT_BID"].Mean), "eth-accept-sim-ms")
			if scdbBid := scdb.PerOp["BID"].Mean; scdbBid > 0 {
				b.ReportMetric(float64(eth.PerOp["BID"].Mean)/float64(scdbBid), "bid-latency-ratio")
			}
		})
	}
}

// BenchmarkFig7cThroughput regenerates Figure 7c: throughput vs
// transaction size for both systems.
func BenchmarkFig7cThroughput(b *testing.B) {
	for _, size := range []int{112, 1740} {
		b.Run(fmt.Sprintf("size=%dB", size), func(b *testing.B) {
			var scdb bench.SCDBResult
			var eth bench.ETHResult
			for i := 0; i < b.N; i++ {
				scdb = bench.RunSCDB(bench.SCDBParams{
					PayloadBytes: size, Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				var err error
				eth, err = bench.RunETH(bench.ETHParams{
					PayloadBytes: size, Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(scdb.Throughput, "scdb-sim-tps")
			b.ReportMetric(eth.Throughput, "eth-sim-tps")
		})
	}
}

// BenchmarkFig8aScdbClusterLatency regenerates Figure 8a: SmartchainDB
// latency across validator counts at the fixed 1.09 KB payload.
func BenchmarkFig8aScdbClusterLatency(b *testing.B) {
	for _, nodes := range bench.ClusterSizes {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var res bench.SCDBResult
			for i := 0; i < b.N; i++ {
				res = bench.RunSCDB(bench.SCDBParams{
					Nodes: nodes, PayloadBytes: bench.Fig8PayloadBytes,
					Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
			}
			for _, op := range []string{"CREATE", "REQUEST", "BID", "ACCEPT_BID"} {
				b.ReportMetric(ms(res.PerOp[op].Mean), "scdb-"+op+"-sim-ms")
			}
		})
	}
}

// BenchmarkFig8bEthClusterLatency regenerates Figure 8b: ETH-SC latency
// across validator counts.
func BenchmarkFig8bEthClusterLatency(b *testing.B) {
	for _, nodes := range []int{4, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var res bench.ETHResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = bench.RunETH(bench.ETHParams{
					Nodes: nodes, PayloadBytes: bench.Fig8PayloadBytes,
					Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, op := range []string{"CREATE", "REQUEST", "BID", "ACCEPT_BID"} {
				b.ReportMetric(ms(res.PerOp[op].Mean), "eth-"+op+"-sim-ms")
			}
		})
	}
}

// BenchmarkFig8cClusterThroughput regenerates Figure 8c: throughput vs
// cluster size for both systems.
func BenchmarkFig8cClusterThroughput(b *testing.B) {
	for _, nodes := range []int{4, 32} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var scdb bench.SCDBResult
			var eth bench.ETHResult
			for i := 0; i < b.N; i++ {
				scdb = bench.RunSCDB(bench.SCDBParams{
					Nodes: nodes, PayloadBytes: bench.Fig8PayloadBytes,
					Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				var err error
				eth, err = bench.RunETH(bench.ETHParams{
					Nodes: nodes, PayloadBytes: bench.Fig8PayloadBytes,
					Auctions: benchScale.Auctions, Bidders: benchScale.Bidders, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(scdb.Throughput, "scdb-sim-tps")
			b.ReportMetric(eth.Throughput, "eth-sim-tps")
		})
	}
}

// BenchmarkUsabilityLoC regenerates the §5.2.2 usability comparison.
func BenchmarkUsabilityLoC(b *testing.B) {
	var res bench.UsabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunUsability()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.ContractLines), "contract-loc")
	b.ReportMetric(float64(res.DeclarativeLines), "declarative-loc")
}

// --- Ablations --------------------------------------------------------

// BenchmarkAblationPipelining quantifies the throughput effect of
// BigchainDB-style block pipelining (DESIGN.md decision 2).
func BenchmarkAblationPipelining(b *testing.B) {
	for _, pipelined := range []bool{false, true} {
		b.Run(fmt.Sprintf("pipelined=%t", pipelined), func(b *testing.B) {
			var tps float64
			for i := 0; i < b.N; i++ {
				cluster := server.NewCluster(server.ClusterConfig{
					Nodes: 4, Seed: int64(i), BlockInterval: 50 * time.Millisecond,
					MaxBlockTxs: 8, Pipelined: pipelined,
				})
				gen := workload.NewGenerator(int64(i), cluster.ServerNode(0).Escrow())
				at := time.Duration(0)
				n := 0
				for g := 0; g < 4; g++ {
					grp := gen.NewAuctionGroup(g*10, workload.AuctionGroupSpec{BiddersPerAuction: 5})
					cluster.SubmitAt(at, grp.Request)
					n++
					for _, c := range grp.Creates {
						at += time.Millisecond
						cluster.SubmitAt(at, c)
						n++
					}
				}
				cluster.RunUntilCommitted(n, time.Hour)
				tps = cluster.Summarize().Throughput
			}
			b.ReportMetric(tps, "sim-tps")
		})
	}
}

// BenchmarkAblationNestedLockingVsNonLocking compares the locking
// nested-commit strategy against the non-locking pipeline (DESIGN.md
// decision 1), measuring how long the parent's commit is exposed.
func BenchmarkAblationNestedLockingVsNonLocking(b *testing.B) {
	setup := func(i int) (*ledger.State, *keys.KeyPair, *txn.Transaction) {
		state := ledger.NewState()
		escrow := keys.DeterministicKeyPair(int64(i)*100 + 1)
		requester := keys.DeterministicKeyPair(int64(i)*100 + 2)
		rfq := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": []any{"c"}, "i": i}, nil)
		if err := txn.Sign(rfq, requester); err != nil {
			b.Fatal(err)
		}
		if err := commitOne(state, rfq); err != nil {
			b.Fatal(err)
		}
		var bids []*txn.Transaction
		for k := 0; k < 10; k++ {
			bidder := keys.DeterministicKeyPair(int64(i)*100 + 10 + int64(k))
			asset := txn.NewCreate(bidder.PublicBase58(), map[string]any{"capabilities": []any{"c"}, "k": k, "i": i}, 1, nil)
			if err := txn.Sign(asset, bidder); err != nil {
				b.Fatal(err)
			}
			if err := commitOne(state, asset); err != nil {
				b.Fatal(err)
			}
			bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
				txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
				1, escrow.PublicBase58(), rfq.ID, nil)
			if err := txn.Sign(bid, bidder); err != nil {
				b.Fatal(err)
			}
			if err := commitOne(state, bid); err != nil {
				b.Fatal(err)
			}
			bids = append(bids, bid)
		}
		accept, err := txn.NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), rfq.ID, bids[0], bids[1:], nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := txn.Sign(accept, escrow, requester); err != nil {
			b.Fatal(err)
		}
		return state, escrow, accept
	}
	b.Run("locking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			state, escrow, accept := setup(i)
			if _, err := nested.LockingCommit(state, escrow, accept); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nonlocking-parent-only", func(b *testing.B) {
		// The parent commit alone: the latency the client observes
		// before the non-locking engine finishes children in background.
		for i := 0; i < b.N; i++ {
			state, _, accept := setup(i)
			if err := commitOne(state, accept); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Micro-benchmarks on the validation hot path ----------------------

func buildBidScenario(b *testing.B) (*txtype.Registry, *txtype.Context, *txn.Transaction, *schema.Registry) {
	b.Helper()
	state := ledger.NewState()
	reserved := keys.NewReservedWithDefaults(1)
	escrow := reserved.Escrow()
	requester := keys.MustGenerate()
	bidder := keys.MustGenerate()
	rfq := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": []any{"cnc", "3d"}}, nil)
	if err := txn.Sign(rfq, requester); err != nil {
		b.Fatal(err)
	}
	if err := commitOne(state, rfq); err != nil {
		b.Fatal(err)
	}
	asset := txn.NewCreate(bidder.PublicBase58(), map[string]any{"capabilities": []any{"cnc", "3d", "laser"}}, 1, nil)
	if err := txn.Sign(asset, bidder); err != nil {
		b.Fatal(err)
	}
	if err := commitOne(state, asset); err != nil {
		b.Fatal(err)
	}
	bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		1, escrow.PublicBase58(), rfq.ID, map[string]any{"price": 100})
	if err := txn.Sign(bid, bidder); err != nil {
		b.Fatal(err)
	}
	ctx := &txtype.Context{State: state, Reserved: reserved}
	return validate.NewRegistry(), ctx, bid, schema.MustNewRegistry()
}

// BenchmarkSchemaValidateBid measures Algorithm 1 on a BID payload.
func BenchmarkSchemaValidateBid(b *testing.B) {
	_, _, bid, schemas := buildBidScenario(b)
	doc := bid.ToDoc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := schemas.ValidateDoc(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemanticValidateBid measures Algorithm 2 (the full C_BID
// condition set) against committed state.
func BenchmarkSemanticValidateBid(b *testing.B) {
	registry, ctx, bid, _ := buildBidScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := registry.Validate(ctx, bid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalSerialize measures canonical JSON rendering, the
// basis of transaction identity.
func BenchmarkCanonicalSerialize(b *testing.B) {
	_, _, bid, _ := buildBidScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bid.MarshalCanonical()
	}
}

// BenchmarkSignAndVerify measures transaction signing plus fulfillment
// verification.
func BenchmarkSignAndVerify(b *testing.B) {
	kp := keys.MustGenerate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := txn.NewCreate(kp.PublicBase58(), map[string]any{"i": i}, 1, nil)
		if err := txn.Sign(tx, kp); err != nil {
			b.Fatal(err)
		}
		if err := txn.VerifyFulfillments(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsensusCommitPath measures end-to-end simulated commits
// through the 4-node cluster per wall-clock second.
func BenchmarkConsensusCommitPath(b *testing.B) {
	apps := 0
	_ = apps
	cluster := consensus.NewCluster(consensus.Config{Nodes: 4, Seed: 1}, func(int) consensus.App {
		return consensus.Lift(nopApp{})
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.SubmitAt(cluster.Sched().Now(), strTx(fmt.Sprintf("tx%d", i)))
		cluster.RunUntilCommitted(i+1, cluster.Sched().Now()+time.Hour)
	}
}

type strTx string

func (s strTx) Hash() string { return string(s) }

type nopApp struct{}

func (nopApp) CheckTx(consensus.Tx) error                  { return nil }
func (nopApp) ValidateBlock([]consensus.Tx) []consensus.Tx { return nil }
func (nopApp) ReceiverTime(consensus.Tx) time.Duration     { return time.Millisecond }
func (nopApp) ValidationTime([]consensus.Tx) time.Duration { return time.Millisecond }
func (nopApp) Commit(int64, []consensus.Tx)                {}
