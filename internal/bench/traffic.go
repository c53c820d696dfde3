package bench

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/driver"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// The traffic experiment is the repo's first latency-under-load
// benchmark. Every other experiment is closed-loop: the driver waits
// for each verdict before issuing more work, so under saturation it
// throttles itself and the tail disappears (coordinated omission).
// Here the arrival process is fixed in advance — Poisson arrivals over
// pre-generated distinct keypairs, one independent user per
// transaction — and each transaction's latency is measured from its
// *scheduled* arrival, so queueing delay shows up in p99/p999 instead
// of vanishing into the generator. The experiment doubles as the gate
// for the admission fast path: every leg runs with the caches on
// (batched dedup signature verification + canonical-bytes memo) and
// off, on both storage backends.

// TrafficParams configures the open-loop traffic experiment.
type TrafficParams struct {
	// Users is the pre-generated keypair population; each transaction
	// is signed by a distinct user drawn from it (default 1,000,000).
	Users int
	// Txs is the number of traffic transactions per leg (default 16384).
	Txs int
	// Inputs is the number of inputs per transfer — the workload's
	// multi-input weight; each input re-signs the same payload, which
	// is what batch dedup collapses (default 4).
	Inputs int
	// Rates sweeps offered load in transactions/second for the
	// open-loop legs (default 2000, 6000).
	Rates []float64
	// Batch caps one admission batch (default 128).
	Batch int
	// Depths sweeps the commit stage's concurrently-applying block
	// bound — the depth-N pipeline's footprint-fence capacity (default
	// 1, 4; 1 reproduces the old one-block-at-a-time commit loop).
	Depths []int
	// Workers is the admission worker count (default NumCPU, max 8).
	Workers int
	// Reps repeats the closed-loop throughput measurement, keeping the
	// fastest (default 3).
	Reps int
	// Backends selects storage engines (default memory, disk).
	Backends []string
	// Seed drives keygen, workload, and arrival draws.
	Seed int64
}

func (p *TrafficParams) fill() {
	if p.Users <= 0 {
		p.Users = 1_000_000
	}
	if p.Txs <= 0 {
		p.Txs = 16_384
	}
	if p.Inputs <= 0 {
		p.Inputs = 4
	}
	if len(p.Rates) == 0 {
		p.Rates = []float64{2000, 6000}
	}
	if p.Batch <= 0 {
		p.Batch = 128
	}
	if len(p.Depths) == 0 {
		p.Depths = []int{1, 4}
	}
	if p.Workers <= 0 {
		p.Workers = runtime.NumCPU()
		if p.Workers > 8 {
			p.Workers = 8
		}
	}
	if p.Reps <= 0 {
		p.Reps = 3
	}
	if len(p.Backends) == 0 {
		p.Backends = []string{"memory", "disk"}
	}
}

// TrafficLatencyRow is one open-loop leg: a backend × fast-path × rate
// point with scheduled-arrival latency quantiles for admission (batch
// verdict returned) and commit (block sealed).
type TrafficLatencyRow struct {
	Backend  string
	FastPath bool
	Depth    int     // commit pipeline depth (concurrently-applying blocks)
	Rate     float64 // offered load, tx/s
	Offered  int
	Admitted int
	Rejected int
	Elapsed  time.Duration
	Achieved float64 // admitted tx/s over the leg

	AdmitP50, AdmitP99, AdmitP999    time.Duration
	CommitP50, CommitP99, CommitP999 time.Duration

	SigTasks  uint64 // signature triples submitted to the batch verifier
	DedupHits uint64 // triples answered by an identical triple
}

// TrafficThroughputRow is one closed-loop CheckTxBatch measurement —
// the ≥1.5× fast-path acceptance gate runs on these.
type TrafficThroughputRow struct {
	Backend  string
	FastPath bool
	Elapsed  time.Duration
	TPS      float64
	Admitted int
}

// TrafficResult is the full experiment.
type TrafficResult struct {
	Params        TrafficParams
	KeygenElapsed time.Duration
	KeygenPerSec  float64

	LatencyRows    []TrafficLatencyRow
	ThroughputRows []TrafficThroughputRow

	// ThroughputGain is caches-on TPS / caches-off TPS per backend.
	ThroughputGain map[string]float64
	// P99Improved reports that at every (backend, rate) point the
	// fast-path admission p99 was strictly below the caches-off p99.
	P99Improved bool
}

// trafficUsers pre-generates the keypair population in parallel. Every
// signer in the run is distinct, so no verification can be answered by
// cross-transaction key reuse — the fast path's wins come only from
// the structural redundancy it actually targets.
func trafficUsers(n int, seed int64) []*keys.KeyPair {
	users := make([]*keys.KeyPair, n)
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				users[i] = keys.DeterministicKeyPair(seed + int64(i))
			}
		}(lo, hi)
	}
	wg.Wait()
	return users
}

// trafficWorkload builds the backing CREATEs (one per traffic
// transaction, holding p.Inputs unit outputs) and the traffic stream:
// multi-input transfers, each spending all of its user's CREATE
// outputs. Every input signs the same payload with the same key, so a
// K-input transfer carries K byte-identical signature triples — the
// redundancy profile of real multi-UTXO wallets.
func trafficWorkload(p TrafficParams, users []*keys.KeyPair) (backing, stream []*txn.Transaction) {
	backing = make([]*txn.Transaction, p.Txs)
	stream = make([]*txn.Transaction, p.Txs)
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	chunk := (p.Txs + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > p.Txs {
			hi = p.Txs
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				owner := users[i%len(users)]
				recipient := users[(i+1)%len(users)]
				backing[i], stream[i] = workload.FanIn(owner, recipient.PublicBase58(), i, p.Inputs)
			}
		}(lo, hi)
	}
	wg.Wait()
	return backing, stream
}

// newTrafficNode opens a node on the given backend with the fast path
// toggled, commits the backing CREATEs, and returns it with a cleanup.
func newTrafficNode(p TrafficParams, backend string, fastPath bool, reg *obs.Registry, backing []*txn.Transaction) (*server.Node, func()) {
	cfg := server.Config{
		ReservedSeed:             p.Seed + 9300,
		AdmissionWorkers:         p.Workers,
		DisableAdmissionFastPath: !fastPath,
		Obs:                      reg,
	}
	cleanup := func() {}
	if backend == "disk" {
		dir, err := os.MkdirTemp("", "scdb-bench-traffic-*")
		if err != nil {
			panic(fmt.Sprintf("bench: temp dir: %v", err))
		}
		cfg.DataDir = dir
		cfg.NoSync = true
		cleanup = func() { os.RemoveAll(dir) }
	}
	node := server.NewNode(cfg)
	for start := 0; start < len(backing); start += 1024 {
		end := start + 1024
		if end > len(backing) {
			end = len(backing)
		}
		committed, skipped := node.State().CommitBlock(backing[start:end])
		if len(skipped) != 0 || len(committed) != end-start {
			panic(fmt.Sprintf("bench: backing commit: %d of %d, skipped %d", len(committed), end-start, len(skipped)))
		}
	}
	rm := cleanup
	return node, func() { node.Close(); rm() }
}

// cloneStream deep-copies the traffic transactions so every leg starts
// with cold canonical-bytes caches and unmemoized verdicts.
func cloneStream(stream []*txn.Transaction) []*txn.Transaction {
	out := make([]*txn.Transaction, len(stream))
	for i, t := range stream {
		out[i] = t.Clone()
	}
	return out
}

// checkStream pushes the stream through CheckTxBatch in batches and
// returns the admitted count.
func checkStream(node *server.Node, stream []*txn.Transaction, batch int) int {
	admitted := 0
	for start := 0; start < len(stream); start += batch {
		end := start + batch
		if end > len(stream) {
			end = len(stream)
		}
		in := make([]consensus.Tx, end-start)
		for i, t := range stream[start:end] {
			in[i] = t
		}
		errs := node.CheckTxBatch(in)
		admitted += (end - start) - len(errs)
	}
	return admitted
}

// runTrafficThroughput is the closed-loop ≥1.5× gate: the whole stream
// through CheckTxBatch, caches as configured. The node's own cache
// scope (off when the fast path is off) covers the leg — no global
// state to flip, so the on and off legs cannot contaminate each other.
func runTrafficThroughput(p TrafficParams, backend string, fastPath bool, backing, stream []*txn.Transaction) TrafficThroughputRow {
	row := TrafficThroughputRow{Backend: backend, FastPath: fastPath}
	el, admitted := fastest(p.Reps, func() (time.Duration, int) {
		node, cleanup := newTrafficNode(p, backend, fastPath, nil, backing)
		defer cleanup()
		fresh := cloneStream(stream) // cold caches every rep
		start := time.Now()
		n := checkStream(node, fresh, p.Batch)
		return time.Since(start), n
	})
	row.Elapsed = el
	row.Admitted = admitted
	row.TPS = float64(len(stream)) / el.Seconds()
	return row
}

// trafficArrival carries one scheduled transaction through the
// admission and commit stages.
type trafficArrival struct {
	tx        *txn.Transaction
	scheduled time.Time
}

// runTrafficLeg runs one open-loop leg: Poisson arrivals at rate tx/s
// fired at absolute deadlines, batched admission, then the depth-N
// pipelined block commit — up to depth blocks mid-apply behind the
// footprint fence, sealing in height order — with per-transaction
// latency measured from the scheduled arrival.
func runTrafficLeg(p TrafficParams, backend string, fastPath bool, depth int, rate float64, backing, stream []*txn.Transaction) TrafficLatencyRow {
	reg := obs.New()
	node, cleanup := newTrafficNode(p, backend, fastPath, reg, backing)
	defer cleanup()
	fresh := cloneStream(stream)
	admitNs := reg.Histogram("traffic.admit_ns")
	commitNs := reg.Histogram("traffic.commit_ns")

	row := TrafficLatencyRow{Backend: backend, FastPath: fastPath, Depth: depth, Rate: rate, Offered: len(fresh)}
	rng := rand.New(rand.NewSource(p.Seed + 71))
	schedule := driver.PoissonSchedule(len(fresh), rate, rng)

	// Buffered to the full stream so the generator never blocks on a
	// slow receiver: backlog becomes measured queueing delay, not a
	// stretched schedule.
	arrivals := make(chan trafficArrival, len(fresh))
	commits := make(chan []trafficArrival, len(fresh)/p.Batch+1)
	done := make(chan struct{})

	go func() { // admission stage
		defer close(commits)
		for a := range arrivals {
			batch := make([]trafficArrival, 1, p.Batch)
			batch[0] = a
		drain:
			for len(batch) < p.Batch {
				select {
				case b, ok := <-arrivals:
					if !ok {
						break drain
					}
					batch = append(batch, b)
				default:
					break drain
				}
			}
			in := make([]consensus.Tx, len(batch))
			for i, b := range batch {
				in[i] = b.tx
			}
			errs := node.CheckTxBatch(in)
			now := time.Now()
			admitted := make([]trafficArrival, 0, len(batch))
			for _, b := range batch {
				admitNs.Observe(int64(now.Sub(b.scheduled)))
				if _, bad := errs[b.tx.ID]; bad {
					continue
				}
				admitted = append(admitted, b)
			}
			if len(admitted) > 0 {
				commits <- admitted
			}
		}
	}()

	go func() { // commit stage: depth-N pipelined block commits
		defer close(done)
		var fence parallel.PipelineFence
		fence.SetDepth(depth)
		var sealWG sync.WaitGroup
		var rowMu sync.Mutex
		state := node.State()
		h := state.Height()
		for batch := range commits {
			h++
			txs := make([]*txn.Transaction, len(batch))
			for i, b := range batch {
				txs[i] = b.tx
			}
			fence.Begin(h, parallel.WriteKeys(txs))
			pending := state.BeginBlockCommit(h)
			sealWG.Add(1)
			go func(h int64, batch []trafficArrival, txs []*txn.Transaction, pending *ledger.PendingCommit) {
				defer sealWG.Done()
				fence.WaitApply(h, parallel.TouchKeys(txs))
				pending.Stage(txs)
				committed, skipped, err := pending.Seal()
				if err != nil {
					panic(fmt.Sprintf("bench: traffic seal block %d: %v", h, err))
				}
				fence.End(h)
				now := time.Now()
				for _, b := range batch {
					commitNs.Observe(int64(now.Sub(b.scheduled)))
				}
				rowMu.Lock()
				row.Admitted += len(committed)
				row.Rejected += len(skipped)
				rowMu.Unlock()
			}(h, batch, txs, pending)
		}
		sealWG.Wait()
	}()

	start := time.Now()
	driver.Pacer{Schedule: schedule}.Run(func(i int, scheduled time.Time) {
		arrivals <- trafficArrival{tx: fresh[i], scheduled: scheduled}
	})
	close(arrivals)
	<-done
	row.Elapsed = time.Since(start)
	row.Achieved = float64(row.Admitted) / row.Elapsed.Seconds()

	snap := reg.Snapshot()
	a, c := snap.Histograms["traffic.admit_ns"], snap.Histograms["traffic.commit_ns"]
	row.AdmitP50, row.AdmitP99, row.AdmitP999 = time.Duration(a.P50), time.Duration(a.P99), time.Duration(a.P999)
	row.CommitP50, row.CommitP99, row.CommitP999 = time.Duration(c.P50), time.Duration(c.P99), time.Duration(c.P999)
	row.SigTasks = snap.Counters["server.admit.sig_tasks"]
	row.DedupHits = snap.Counters["server.admit.sig_dedup_hits"]
	return row
}

// RunTraffic runs the full experiment: keygen, closed-loop throughput
// gate (fast path on/off per backend), then the open-loop rate sweep.
func RunTraffic(p TrafficParams) TrafficResult {
	p.fill()
	res := TrafficResult{Params: p, ThroughputGain: map[string]float64{}, P99Improved: true}

	t0 := time.Now()
	users := trafficUsers(p.Users, p.Seed+51)
	res.KeygenElapsed = time.Since(t0)
	res.KeygenPerSec = float64(p.Users) / res.KeygenElapsed.Seconds()

	backing, stream := trafficWorkload(p, users)

	for _, backend := range p.Backends {
		slow := runTrafficThroughput(p, backend, false, backing, stream)
		fast := runTrafficThroughput(p, backend, true, backing, stream)
		res.ThroughputRows = append(res.ThroughputRows, slow, fast)
		if slow.TPS > 0 {
			res.ThroughputGain[backend] = fast.TPS / slow.TPS
		}
	}

	for _, backend := range p.Backends {
		for _, depth := range p.Depths {
			for _, rate := range p.Rates {
				slow := runTrafficLeg(p, backend, false, depth, rate, backing, stream)
				fast := runTrafficLeg(p, backend, true, depth, rate, backing, stream)
				res.LatencyRows = append(res.LatencyRows, slow, fast)
				if fast.AdmitP99 >= slow.AdmitP99 {
					res.P99Improved = false
				}
			}
		}
	}
	return res
}

func onoff(fast bool) string {
	if fast {
		return "fast-path"
	}
	return "baseline"
}

// PrintTraffic renders the experiment.
func PrintTraffic(w io.Writer, r TrafficResult) {
	p := r.Params
	fmt.Fprintf(w, "Traffic — open-loop Poisson load: %d users, %d txs/leg, %d inputs/tx, batch %d, %d admission workers\n",
		p.Users, p.Txs, p.Inputs, p.Batch, p.Workers)
	fmt.Fprintf(w, "  keygen: %d distinct keypairs in %.2fs (%.0f keys/s)\n\n",
		p.Users, r.KeygenElapsed.Seconds(), r.KeygenPerSec)

	fmt.Fprintln(w, "Traffic — closed-loop CheckTxBatch throughput (fast path = batched dedup verify + canonical-bytes cache)")
	fmt.Fprintf(w, "  %-8s %-10s %12s %12s %9s\n", "backend", "path", "elapsed(ms)", "tps", "admitted")
	for _, row := range r.ThroughputRows {
		fmt.Fprintf(w, "  %-8s %-10s %12.1f %12.0f %9d\n",
			row.Backend, onoff(row.FastPath), ms(row.Elapsed), row.TPS, row.Admitted)
	}
	for _, backend := range p.Backends {
		fmt.Fprintf(w, "  %s fast-path gain: %.2fx\n", backend, r.ThroughputGain[backend])
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Traffic — open-loop latency from scheduled arrival (admission verdict / depth-N pipelined commit)")
	fmt.Fprintf(w, "  %-8s %-10s %5s %8s %9s %9s %9s %9s %9s %9s %9s %10s\n",
		"backend", "path", "depth", "rate", "admit p50", "p99", "p999", "commit p50", "p99", "p999", "achieved", "dedup")
	for _, row := range r.LatencyRows {
		fmt.Fprintf(w, "  %-8s %-10s %5d %8.0f %8.2fms %8.2fms %8.2fms %9.2fms %8.2fms %8.2fms %9.0f %4d/%d\n",
			row.Backend, onoff(row.FastPath), row.Depth, row.Rate,
			ms(row.AdmitP50), ms(row.AdmitP99), ms(row.AdmitP999),
			ms(row.CommitP50), ms(row.CommitP99), ms(row.CommitP999),
			row.Achieved, row.DedupHits, row.SigTasks)
	}
	fmt.Fprintf(w, "  (latency includes queueing delay behind the fixed arrival schedule; p99 fast-path strictly better everywhere: %v; GOMAXPROCS=%d)\n\n",
		r.P99Improved, runtime.GOMAXPROCS(0))
}
