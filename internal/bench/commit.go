package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/netsim"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/server"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/validate"
	"smartchaindb/internal/workload"
)

// CommitParams configures the commit-stage experiment: wall-clock
// throughput of the block commit, serial vs the per-conflict-group
// pipelined apply, and the serialized validate→commit ingest loop vs
// the overlapped pipeline (block h commits behind the fence while
// block h+1 validates), on both storage backends.
type CommitParams struct {
	// Blocks is the number of blocks committed per measurement.
	Blocks int
	// BlockTxs is the number of transactions per block.
	BlockTxs int
	// Workers sweeps the commit apply-phase worker counts; 1 is the
	// serial baseline every speedup is computed against.
	Workers []int
	// ConflictRates sweeps the intra-block chain rate: the fraction of
	// slots that extend an existing conflict chain instead of starting
	// an independent one.
	ConflictRates []float64
	// Reps repeats each measurement, keeping the fastest run.
	Reps int
	// Seed drives workload generation.
	Seed int64
}

func (p *CommitParams) fill() {
	if p.Blocks <= 0 {
		p.Blocks = 6
	}
	if p.BlockTxs <= 0 {
		p.BlockTxs = 256
	}
	if len(p.Workers) == 0 {
		p.Workers = []int{1, 2, 4, 8}
	}
	hasSerial := false
	for _, w := range p.Workers {
		if w <= 1 {
			hasSerial = true
			break
		}
	}
	if !hasSerial {
		p.Workers = append([]int{1}, p.Workers...)
	}
	if len(p.ConflictRates) == 0 {
		p.ConflictRates = []float64{0.25, 0.5}
	}
	if p.Reps <= 0 {
		p.Reps = 3
	}
}

// CommitRow is one (backend, conflict rate, worker count) commit-stage
// measurement.
type CommitRow struct {
	Backend  string
	Conflict float64
	Workers  int
	Elapsed  time.Duration
	TPS      float64
	Speedup  float64 // vs the workers=1 row of the same backend/rate
	Match    bool    // fingerprint equals the serial commit's
}

// PipelineRow compares the serialized validate→commit ingest loop with
// the overlapped pipeline on identical blocks.
type PipelineRow struct {
	Backend    string
	Conflict   float64
	Workers    int
	Serialized time.Duration // validate block b, then commit block b
	Overlapped time.Duration // commit b behind the fence while b+1 validates
	Speedup    float64       // Serialized / Overlapped
	Match      bool          // both orders land on the same state bytes
}

// CommitSimRow is one point of the consensus-simulation leg: the same
// auction workload through a commit-bound cluster, with the commit
// stage costed on the engine's resources — on the single execution
// resource when serialized, on the dedicated commit resource when
// overlapped. Virtual-time results are deterministic and independent
// of host cores, so this row is the experiment's acceptance anchor.
type CommitSimRow struct {
	Mode       string  // "serialized" or "overlapped"
	Throughput float64 // committed tx per simulated second
	MeanMs     float64 // mean commit latency, simulated ms
	Committed  int
}

// CommitResult is the full sweep.
type CommitResult struct {
	Params     CommitParams
	MeanGroups float64 // conflict groups per block at the last rate
	Rows       []CommitRow
	Pipeline   []PipelineRow
	// SimRows compares serialized vs overlapped commit in virtual
	// time; SimMatch records that both runs committed the same
	// transaction set with byte-identical state on every validator.
	SimRows  []CommitSimRow
	SimMatch bool
	// Stages holds the per-stage commit latency distributions
	// (plan/apply/seal/total, plus WAL fsync) captured off a live obs
	// registry during one instrumented pass per backend at the highest
	// worker count and the last conflict rate.
	Stages []StageDist
}

// commitStageMetrics are the histograms the instrumented commit pass
// reports, in pipeline order. fsync stays zero on the memory backend,
// which has no WAL.
var commitStageMetrics = []stageMetric{
	{"plan", "ledger.commit.plan_ns"},
	{"apply", "ledger.commit.apply_ns"},
	{"seal", "ledger.commit.seal_ns"},
	{"total", "ledger.commit.total_ns"},
	{"fsync", "storage.wal.fsync_ns"},
}

// commitWorkload builds the measurement blocks without touching any
// state: setup holds the backing asset CREATEs (committed untimed as
// one group before measuring), and each block is all-valid signed
// transfers — with probability rate a slot extends the block's
// current chain (spending the previous transfer's output, same
// conflict group), otherwise it starts a new chain on a fresh setup
// asset. Blocks are mutually independent, so consecutive blocks
// overlap fully in the pipeline leg. Deterministic in seed.
func commitWorkload(p CommitParams, rate float64) (setup []*txn.Transaction, blocks [][]*txn.Transaction) {
	gen := workload.NewGenerator(p.Seed, keys.DeterministicKeyPair(p.Seed+500))
	rng := rand.New(rand.NewSource(p.Seed + 99))
	blocks = make([][]*txn.Transaction, p.Blocks)
	slot := 0
	for b := range blocks {
		block := make([]*txn.Transaction, 0, p.BlockTxs)
		var chainOwner *keys.KeyPair
		var chainAsset string
		var chainRef txn.OutputRef
		for j := 0; j < p.BlockTxs; j++ {
			slot++
			if chainOwner == nil || rng.Float64() >= rate {
				// New chain head on a fresh setup asset.
				chainOwner = gen.Account(slot)
				asset := gen.Create(chainOwner, []string{"cnc"}, 128)
				setup = append(setup, asset)
				chainAsset = asset.ID
				chainRef = txn.OutputRef{TxID: asset.ID, Index: 0}
			}
			next := gen.Account(1_000_000 + slot)
			tr := txn.NewTransfer(chainAsset,
				[]txn.Spend{{Ref: chainRef, Owners: []string{chainOwner.PublicBase58()}}},
				[]*txn.Output{{PublicKeys: []string{next.PublicBase58()}, Amount: 1}}, nil)
			if err := txn.Sign(tr, chainOwner); err != nil {
				panic(fmt.Sprintf("bench: sign transfer: %v", err))
			}
			block = append(block, tr)
			chainOwner = next
			chainRef = txn.OutputRef{TxID: tr.ID, Index: 0}
		}
		blocks[b] = block
	}
	return setup, blocks
}

// commitSetup commits the backing assets as one untimed block at
// height 1; measured blocks follow at heights 2...
func commitSetup(state *ledger.State, setup []*txn.Transaction) {
	committed, skipped, err := state.CommitBlockAt(1, setup)
	if err != nil || len(skipped) != 0 || len(committed) != len(setup) {
		panic(fmt.Sprintf("bench: setup commit: %d of %d, skipped %d, err %v", len(committed), len(setup), len(skipped), err))
	}
}

// commitState opens a fresh state for one measurement; cleanup removes
// any disk artifacts.
func commitState(backend string) (state *ledger.State, cleanup func()) {
	switch backend {
	case "memory":
		st := ledger.NewStateWith(storage.NewMemory())
		return st, func() { st.Close() }
	case "disk":
		dir, err := os.MkdirTemp("", "scdb-bench-commit-*")
		if err != nil {
			panic(fmt.Sprintf("bench: temp dir: %v", err))
		}
		eng, err := storage.Open(dir, storage.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench: open engine: %v", err))
		}
		st := ledger.NewStateWith(eng)
		return st, func() { st.Close(); os.RemoveAll(dir) }
	}
	panic("bench: unknown backend " + backend)
}

// commitBlocksTimed commits the prepared blocks and returns the wall
// time. It panics if any transaction is skipped — the workload is
// all-valid by construction.
func commitBlocksTimed(state *ledger.State, blocks [][]*txn.Transaction, baseHeight int64) time.Duration {
	start := time.Now()
	for i, block := range blocks {
		committed, skipped, err := state.CommitBlockAt(baseHeight+int64(i+1), block)
		if err != nil {
			panic(fmt.Sprintf("bench: commit block %d: %v", i+1, err))
		}
		if len(skipped) != 0 || len(committed) != len(block) {
			panic(fmt.Sprintf("bench: block %d committed %d of %d (skipped %d)", i+1, len(committed), len(block), len(skipped)))
		}
	}
	return time.Since(start)
}

// RunCommit measures the commit-stage sweep and the ingest-pipeline
// comparison.
func RunCommit(p CommitParams) CommitResult {
	p.fill()
	res := CommitResult{Params: p}
	reg := validate.NewRegistry()
	maxWorkers := 1
	for _, w := range p.Workers {
		if w > maxWorkers {
			maxWorkers = w
		}
	}

	for _, rate := range p.ConflictRates {
		setup, blocks := commitWorkload(p, rate)
		groups := 0
		for _, block := range blocks {
			groups += len(parallel.BuildPlan(block).Groups)
		}
		res.MeanGroups = float64(groups) / float64(len(blocks))

		for _, backend := range []string{"memory", "disk"} {
			// One timed commit pass over fresh state.
			runCommitOnce := func(workers int) (time.Duration, string) {
				st, cleanup := commitState(backend)
				defer cleanup()
				commitSetup(st, setup)
				st.SetCommitWorkers(workers)
				el := commitBlocksTimed(st, blocks, 1)
				return el, st.Fingerprint()
			}
			measure := func(workers int) (time.Duration, string) {
				return fastest(p.Reps, func() (time.Duration, string) { return runCommitOnce(workers) })
			}

			// Commit-stage sweep, serial baseline first so every row's
			// speedup and fingerprint check has its reference.
			serialElapsed, serialFP := measure(1)
			for _, w := range p.Workers {
				row := CommitRow{Backend: backend, Conflict: rate, Workers: w}
				if w <= 1 {
					row.Elapsed, row.Match = serialElapsed, true
				} else {
					var fp string
					row.Elapsed, fp = measure(w)
					row.Match = fp == serialFP
				}
				row.TPS = tps(p.Blocks*p.BlockTxs, row.Elapsed)
				row.Speedup = float64(serialElapsed) / float64(row.Elapsed)
				res.Rows = append(res.Rows, row)
			}

			// Ingest pipeline: serialized validate→commit vs overlapped.
			prow := PipelineRow{Backend: backend, Conflict: rate, Workers: maxWorkers,
				Serialized: 1<<62 - 1, Overlapped: 1<<62 - 1}
			var serFP, ovlFP string
			sched := &parallel.Scheduler{Workers: maxWorkers}
			reserved := keys.NewReservedWithDefaults(p.Seed + 1000)
			for rep := 0; rep < p.Reps; rep++ {
				st, cleanup := commitState(backend)
				commitSetup(st, setup)
				st.SetCommitWorkers(maxWorkers)
				start := time.Now()
				for i, block := range blocks {
					r := sched.ValidateBatch(reg, st, reserved, block)
					if len(r.Invalid) != 0 {
						panic(fmt.Sprintf("bench: serialized pipeline rejected %d txs", len(r.Invalid)))
					}
					if _, _, err := st.CommitBlockAt(int64(i+2), block); err != nil {
						panic(err)
					}
				}
				if el := time.Since(start); el < prow.Serialized {
					prow.Serialized = el
				}
				serFP = st.Fingerprint()
				cleanup()

				st2, cleanup2 := commitState(backend)
				commitSetup(st2, setup)
				st2.SetCommitWorkers(maxWorkers)
				fence := &parallel.PipelineFence{}
				start = time.Now()
				// Validate block 0 up front, then slide the window:
				// commit b in the background while b+1 validates. Reads
				// that touch the in-flight writes wait on the fence —
				// with mutually independent blocks they never do, which
				// is exactly the overlap being measured.
				if r := sched.ValidateBatch(reg, st2, reserved, blocks[0]); len(r.Invalid) != 0 {
					panic(fmt.Sprintf("bench: overlapped pipeline rejected %d txs", len(r.Invalid)))
				}
				for i := range blocks {
					block := blocks[i]
					h := int64(i + 2)
					fence.Begin(h, parallel.WriteKeys(block))
					go func() {
						defer fence.End(h)
						if _, _, err := st2.CommitBlockAt(h, block); err != nil {
							panic(err)
						}
					}()
					if i+1 < len(blocks) {
						fence.WaitKeys(parallel.TouchKeys(blocks[i+1]))
						if r := sched.ValidateBatch(reg, st2, reserved, blocks[i+1]); len(r.Invalid) != 0 {
							panic(fmt.Sprintf("bench: overlapped pipeline rejected %d txs", len(r.Invalid)))
						}
					}
				}
				fence.Drain()
				if el := time.Since(start); el < prow.Overlapped {
					prow.Overlapped = el
				}
				ovlFP = st2.Fingerprint()
				cleanup2()
			}
			prow.Match = serFP == ovlFP && serFP == serialFP
			if prow.Overlapped > 0 {
				prow.Speedup = float64(prow.Serialized) / float64(prow.Overlapped)
			}
			res.Pipeline = append(res.Pipeline, prow)

			// Per-stage latency distributions: one instrumented pass per
			// backend at the last conflict rate, the obs registry timing
			// plan/apply/seal inside the commit it just measured.
			if rate == p.ConflictRates[len(p.ConflictRates)-1] {
				st, cleanup := commitState(backend)
				commitSetup(st, setup)
				st.SetCommitWorkers(maxWorkers)
				oreg := obs.New()
				st.SetObs(oreg)
				commitBlocksTimed(st, blocks, 1)
				cleanup()
				res.Stages = append(res.Stages, captureStages(oreg, backend, commitStageMetrics)...)
			}
		}
	}

	serial, serialFPs := runSimCommit(1, maxWorkers, p.Seed)
	overlap, overlapFPs := runSimCommit(2, maxWorkers, p.Seed)
	res.SimRows = append(res.SimRows, serial, overlap)
	res.SimMatch = serial.Committed == overlap.Committed && len(serialFPs) > 0
	for i := range serialFPs {
		if serialFPs[i] != overlapFPs[i] || serialFPs[i] != serialFPs[0] {
			res.SimMatch = false
		}
	}
	return res
}

// runSimCommit drives one auction workload through a commit-bound
// cluster (commit stage as expensive as validation) with the commit
// either serialized on the execution resource (depth 1) or overlapped
// on the commit resource behind the fence (depth 2).
func runSimCommit(commitDepth, workers int, seed int64) (CommitSimRow, []string) {
	cluster := server.NewCluster(server.ClusterConfig{
		Nodes:         4,
		Seed:          seed,
		BlockInterval: 10 * time.Millisecond,
		MaxBlockTxs:   64,
		Pipelined:     true,
		Latency:       netsim.UniformLatency{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
		ChildDelay:    100 * time.Millisecond,
		Node: server.Config{
			ReceiverTime:        time.Millisecond,
			ValidationTimePerTx: 2 * time.Millisecond,
			CommitTimePerTx:     8 * time.Millisecond,
			ParallelWorkers:     workers,
			CommitWorkers:       workers,
			CommitDepth:         commitDepth,
		},
	})
	defer cluster.Close()
	gen := workload.NewGenerator(seed+7, cluster.ServerNode(0).Escrow())
	const auctions, bidders = 6, 8
	groups := make([]*workload.AuctionGroup, 0, auctions)
	base := 0
	for i := 0; i < auctions; i++ {
		groups = append(groups, gen.NewAuctionGroup(base, workload.AuctionGroupSpec{
			BiddersPerAuction: bidders, PayloadBytes: 128,
		}))
		base += bidders + 1
	}
	driveAuctionPhases(cluster, groups, 2*time.Millisecond)
	sum := cluster.Summarize()
	mode := "serialized"
	if commitDepth > 1 {
		mode = "overlapped"
	}
	var fps []string
	for i := 0; i < 4; i++ {
		// A decided block may still be applying in the background;
		// drain before snapshotting so the fingerprint sees the seal.
		cluster.ServerNode(i).DrainCommits()
		fps = append(fps, cluster.ServerNode(i).State().Fingerprint())
	}
	return CommitSimRow{
		Mode:       mode,
		Throughput: sum.Throughput,
		MeanMs:     float64(sum.MeanLatency) / float64(time.Millisecond),
		Committed:  sum.Committed,
	}, fps
}

// PrintCommit renders the commit-stage sweep.
func PrintCommit(w io.Writer, r CommitResult) {
	fmt.Fprintf(w, "Commit pipeline — %d blocks x %d txs per point (plan: ~%.1f conflict groups per block at the last rate)\n",
		r.Params.Blocks, r.Params.BlockTxs, r.MeanGroups)
	fmt.Fprintln(w, "Commit stage — serial apply vs per-conflict-group appliers (one WAL group per block either way)")
	fmt.Fprintf(w, "  %-8s %9s %8s %12s %12s %9s %6s\n", "backend", "conflict", "workers", "commit(ms)", "commit tps", "speedup", "match")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8s %8.0f%% %8d %12.1f %12.0f %8.2fx %6t\n",
			row.Backend, row.Conflict*100, row.Workers, ms(row.Elapsed), row.TPS, row.Speedup, row.Match)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Ingest pipeline — serialized validate→commit vs overlapped (commit h behind the fence, h+1 validating)")
	fmt.Fprintf(w, "  %-8s %9s %8s %15s %15s %9s %6s\n", "backend", "conflict", "workers", "serialized(ms)", "overlapped(ms)", "speedup", "match")
	for _, row := range r.Pipeline {
		fmt.Fprintf(w, "  %-8s %8.0f%% %8d %15.1f %15.1f %8.2fx %6t\n",
			row.Backend, row.Conflict*100, row.Workers, ms(row.Serialized), ms(row.Overlapped), row.Speedup, row.Match)
	}
	fmt.Fprintf(w, "  (wall-clock rows depend on host cores: GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Commit pipeline — consensus simulation (commit-bound cluster, virtual time, deterministic)")
	fmt.Fprintf(w, "  %-12s %12s %14s %10s\n", "commit", "tps", "latency(ms)", "committed")
	for _, row := range r.SimRows {
		fmt.Fprintf(w, "  %-12s %12.1f %14.1f %10d\n", row.Mode, row.Throughput, row.MeanMs, row.Committed)
	}
	fmt.Fprintf(w, "  states identical across modes and validators: %t\n", r.SimMatch)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Commit stage latency — instrumented pass (per-block plan/apply/seal, per-group WAL fsync)")
	printStages(w, r.Stages)
	fmt.Fprintln(w)
}
