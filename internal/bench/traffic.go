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
	"smartchaindb/internal/obs"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// The traffic experiment is the one thing a closed-loop benchmark
// cannot measure: latency under a fixed offered load. A closed-loop
// driver (benchmark/ is one) waits for each verdict before issuing
// more work, so under saturation it throttles itself and the tail
// disappears (coordinated omission). Here the arrival process is fixed
// in advance — Poisson arrivals over pre-generated distinct keypairs,
// one independent user per transaction — and each transaction's
// latency is measured from its *scheduled* arrival, so queueing delay
// shows up in p99/p999 instead of vanishing into the generator. Each
// leg drives one product node: admission through Node.CheckTxBatch,
// commit through Node.CommitNext, at most one block committing behind
// the next batch's admission. The sweep is backend × offered rate.

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
	// Rates sweeps offered load in transactions/second (default 2000,
	// 6000).
	Rates []float64
	// Batch caps one admission batch, and so one block (default 128).
	Batch int
	// Workers is the node's admission and commit worker count (default
	// NumCPU, max 8).
	Workers int
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
	if p.Workers <= 0 {
		p.Workers = runtime.NumCPU()
		if p.Workers > 8 {
			p.Workers = 8
		}
	}
	if len(p.Backends) == 0 {
		p.Backends = []string{"memory", "disk"}
	}
}

// TrafficRow is one open-loop leg: a backend × rate point with
// scheduled-arrival latency quantiles for admission (batch verdict
// returned) and commit (block sealed and joined).
type TrafficRow struct {
	Backend   string
	Rate      float64 // offered load, tx/s
	Offered   int
	Admitted  int // passed CheckTxBatch
	Committed int // in the ledger when the leg ended
	Rejected  int // Offered - Committed
	Elapsed   time.Duration
	Achieved  float64 // committed tx/s over the leg

	AdmitP50, AdmitP99, AdmitP999    time.Duration
	CommitP50, CommitP99, CommitP999 time.Duration

	SigTasks  uint64 // signatures the batch verifier was presented
	DedupHits uint64 // triples answered by an identical triple
}

// TrafficResult is the full experiment.
type TrafficResult struct {
	Params        TrafficParams
	KeygenElapsed time.Duration
	KeygenPerSec  float64
	Rows          []TrafficRow
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

// newTrafficNode opens a fresh node on the given backend, commits the
// backing CREATEs, and returns it with a cleanup.
func newTrafficNode(p TrafficParams, backend string, reg *obs.Registry, backing []*txn.Transaction) (*server.Node, func(), error) {
	cfg := server.Config{
		ReservedSeed:     p.Seed + 9300,
		AdmissionWorkers: p.Workers,
		CommitWorkers:    p.Workers,
		Obs:              reg,
	}
	rmDir := func() {}
	if backend == "disk" {
		dir, err := os.MkdirTemp("", "scdb-bench-traffic-*")
		if err != nil {
			return nil, nil, fmt.Errorf("bench: traffic data directory: %w", err)
		}
		cfg.DataDir = dir
		cfg.NoSync = true
		rmDir = func() { os.RemoveAll(dir) }
	}
	node, err := server.OpenNode(cfg)
	if err != nil {
		rmDir()
		return nil, nil, fmt.Errorf("bench: traffic node: %w", err)
	}
	cleanup := func() { node.Close(); rmDir() }
	for start := 0; start < len(backing); start += 1024 {
		end := start + 1024
		if end > len(backing) {
			end = len(backing)
		}
		committed, skipped := node.CommitNext(backing[start:end])
		if len(skipped) != 0 || len(committed) != end-start {
			cleanup()
			return nil, nil, fmt.Errorf("bench: traffic backing commit: %d of %d, skipped %d", len(committed), end-start, len(skipped))
		}
	}
	return node, cleanup, nil
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

// trafficArrival carries one scheduled transaction through the
// admission and commit stages.
type trafficArrival struct {
	tx        *txn.Transaction
	scheduled time.Time
}

// runTrafficLeg runs one open-loop leg: Poisson arrivals at rate tx/s
// fired at absolute deadlines, batched admission through CheckTxBatch,
// then each admitted batch committed as one block through CommitNext
// — one block commits while the next batch is admitted,
// which is all the overlap the node's one-slot commit fence allows —
// with per-transaction latency measured from the scheduled arrival.
func runTrafficLeg(p TrafficParams, backend string, rate float64, backing, stream []*txn.Transaction) (TrafficRow, error) {
	reg := obs.New()
	node, cleanup, err := newTrafficNode(p, backend, reg, backing)
	if err != nil {
		return TrafficRow{}, err
	}
	defer cleanup()
	fresh := cloneStream(stream)
	admitNs := reg.Histogram("traffic.admit_ns")
	commitNs := reg.Histogram("traffic.commit_ns")

	row := TrafficRow{Backend: backend, Rate: rate, Offered: len(fresh)}
	rng := rand.New(rand.NewSource(p.Seed + 71))
	schedule := driver.PoissonSchedule(len(fresh), rate, rng)

	// Every channel holds the most sends it can see — one per
	// transaction — so no stage ever blocks on the next one's queue:
	// backlog becomes measured queueing delay, not a stretched
	// schedule.
	arrivals := make(chan trafficArrival, len(fresh))
	admitted := make(chan []trafficArrival, len(fresh))
	done := make(chan struct{})

	go func() { // admission stage
		defer close(admitted)
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
			ok := make([]trafficArrival, 0, len(batch))
			for _, b := range batch {
				admitNs.Observe(int64(now.Sub(b.scheduled)))
				if _, bad := errs[b.tx.ID]; !bad {
					ok = append(ok, b)
				}
			}
			if len(ok) > 0 {
				row.Admitted += len(ok)
				admitted <- ok
			}
		}
	}()

	go func() { // commit stage: one block per admitted batch, in order
		defer close(done)
		for batch := range admitted {
			txs := make([]*txn.Transaction, len(batch))
			for i, b := range batch {
				txs[i] = b.tx
			}
			node.CommitNext(txs)
			now := time.Now()
			for _, b := range batch {
				commitNs.Observe(int64(now.Sub(b.scheduled)))
			}
		}
	}()

	start := time.Now()
	driver.Pacer{Schedule: schedule}.Run(func(i int, scheduled time.Time) {
		arrivals <- trafficArrival{tx: fresh[i], scheduled: scheduled}
	})
	close(arrivals)
	<-done
	row.Elapsed = time.Since(start)
	row.Committed = node.State().TxCount() - len(backing)
	row.Rejected = row.Offered - row.Committed
	row.Achieved = float64(row.Committed) / row.Elapsed.Seconds()

	snap := reg.Snapshot()
	a, c := snap.Histograms["traffic.admit_ns"], snap.Histograms["traffic.commit_ns"]
	row.AdmitP50, row.AdmitP99, row.AdmitP999 = time.Duration(a.P50), time.Duration(a.P99), time.Duration(a.P999)
	row.CommitP50, row.CommitP99, row.CommitP999 = time.Duration(c.P50), time.Duration(c.P99), time.Duration(c.P999)
	row.SigTasks = snap.Counters["server.admit.sig_tasks"]
	row.DedupHits = snap.Counters["server.admit.sig_dedup_hits"]
	return row, nil
}

// RunTraffic runs the full experiment: keygen, then the open-loop
// backend × offered rate sweep.
func RunTraffic(p TrafficParams) (TrafficResult, error) {
	p.fill()
	res := TrafficResult{Params: p}

	t0 := time.Now()
	users := trafficUsers(p.Users, p.Seed+51)
	res.KeygenElapsed = time.Since(t0)
	res.KeygenPerSec = float64(p.Users) / res.KeygenElapsed.Seconds()

	backing, stream := trafficWorkload(p, users)
	for _, backend := range p.Backends {
		for _, rate := range p.Rates {
			row, err := runTrafficLeg(p, backend, rate, backing, stream)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// PrintTraffic renders the experiment.
func PrintTraffic(w io.Writer, r TrafficResult) {
	p := r.Params
	fmt.Fprintf(w, "Traffic — open-loop Poisson load: %d users, %d txs/leg, %d inputs/tx, batch %d, %d admission and commit workers\n",
		p.Users, p.Txs, p.Inputs, p.Batch, p.Workers)
	fmt.Fprintf(w, "  keygen: %d distinct keypairs in %.2fs (%.0f keys/s)\n\n",
		p.Users, r.KeygenElapsed.Seconds(), r.KeygenPerSec)

	fmt.Fprintln(w, "Traffic — latency from scheduled arrival (CheckTxBatch verdict / CommitStart joined)")
	fmt.Fprintf(w, "  %-8s %8s %9s %9s %9s %10s %9s %9s %9s %9s %10s\n",
		"backend", "rate", "admit p50", "p99", "p999", "commit p50", "p99", "p999", "achieved", "rejected", "dedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8s %8.0f %7.2fms %7.2fms %7.2fms %8.2fms %7.2fms %7.2fms %9.0f %9d %4d/%d\n",
			row.Backend, row.Rate,
			ms(row.AdmitP50), ms(row.AdmitP99), ms(row.AdmitP999),
			ms(row.CommitP50), ms(row.CommitP99), ms(row.CommitP999),
			row.Achieved, row.Rejected, row.DedupHits, row.SigTasks)
	}
	fmt.Fprintf(w, "  (latency includes queueing delay behind the fixed arrival schedule; GOMAXPROCS=%d)\n\n", runtime.GOMAXPROCS(0))
}
