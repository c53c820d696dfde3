package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/query"
	"smartchaindb/internal/txn"
)

// bench is one workload: a seeded input generator, a system built from
// the repo's public constructors, and a closed-loop driver for it. The
// harness runs every workload through the same shape — generate inputs,
// set up, warm-up epoch, measured write window, read window, verify —
// so the six end-to-end metrics mean the same thing on all four.
type bench interface {
	// generate builds, from the seed alone, the input bytes for n
	// measured transactions plus the warm-up tenth, and the outcome the
	// generator expects of every one of them.
	generate(seed int64, n int)
	// open builds a fresh system under dir and preloads its backing
	// state through the public commit path, ticking w as it goes.
	open(dir string, tr *tracing, w *window) (openD, preloadD time.Duration, err error)
	// units reports the stream's length in driver units (blocks,
	// rounds, auction groups); the first warm of them are the warm-up.
	units() (warm, total int)
	// drive pushes units [lo, hi) through the system, closed loop.
	drive(lo, hi int, w *window) error
	// state is the chain state the read window queries (node 0 /
	// shard 0).
	state() *ledger.State
	// queries draws n read operations, each with the result count the
	// generator expects on the final state.
	queries(rng *rand.Rand, n int) []queryOp
	// check is the correctness gate over the final system; it returns
	// every violation found. It may close and reopen the system.
	check(w *window) []string
	close() error
	// dropInputs releases the input bytes so that what stays on the
	// heap is what the system retains.
	dropInputs()
	// layer adds the workload's own per-layer metrics from the traced
	// window's spans and registries.
	layer(tr *tracing, spans map[string]spanStat, w *window, m metrics)
	// probeSet returns the backing transactions and up to max stream
	// inputs the isolated probes replay.
	probeSet(max int) (preload, inputs [][]byte)
}

// tracing is what a traced run adds: the span recorder and one obs
// registry per node or shard, handed to the system through its public
// Obs hooks. A nil *tracing is the end-to-end run — no recorder, nil
// registries, the program's no-op instrumentation build.
type tracing struct {
	rec   *recorder
	regs  []*obs.Registry
	snaps []obs.Snapshot // taken once, when the first count is read
}

func (tr *tracing) recorder() *recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// reg returns node i's registry, creating it on first use.
func (tr *tracing) reg(i int) *obs.Registry {
	if tr == nil {
		return nil
	}
	for len(tr.regs) <= i {
		tr.regs = append(tr.regs, obs.New())
	}
	return tr.regs[i]
}

// snapshots copies every registry once; the counts are read after the
// window, when nothing writes to them any more.
func (tr *tracing) snapshots() []obs.Snapshot {
	if tr.snaps == nil {
		for _, r := range tr.regs {
			tr.snaps = append(tr.snaps, r.Snapshot())
		}
	}
	return tr.snaps
}

// counter sums a counter over every registry of the run.
func (tr *tracing) counter(name string) float64 {
	var sum float64
	for _, s := range tr.snapshots() {
		sum += float64(s.Counters[name])
	}
	return sum
}

// gauge sums a gauge over every registry of the run.
func (tr *tracing) gauge(name string) float64 {
	var sum float64
	for _, s := range tr.snapshots() {
		sum += float64(s.Gauges[name])
	}
	return sum
}

// hist returns the named histogram's count and sum over all
// registries, and the quantiles of the first registry that has
// samples (node 0 / shard 0 unless it is idle).
func (tr *tracing) hist(name string) (count, sum float64, first obs.HistSnapshot) {
	for _, s := range tr.snapshots() {
		h := s.Histograms[name]
		count += float64(h.Count)
		sum += float64(h.Sum)
		if first.Count == 0 {
			first = h
		}
	}
	return count, sum, first
}

// window collects what one driven stretch of the stream observed, on
// two clocks: raw wall time, and host time — wall time with every
// interval weighted by the host speed sampled around it (hostClock), so
// that a stretch the neighbours slowed down counts for what it would
// have taken undisturbed. Time spent sampling is on neither clock.
type window struct {
	rec  *recorder
	host *hostClock
	// virtual marks latencies handed to seal as simulator time, which the
	// host's speed does not stretch.
	virtual bool

	began     time.Time
	sampled   time.Time // when the last sample ended
	speed     float64   // the last sample
	raw, norm time.Duration

	lat      []latSample
	marks    []mark
	sealed   int // transactions observed sealed
	rejected int // double-spend rivals the system refused
	failed   int // outcomes that differ from the generator's expectation
}

type latSample struct {
	n int // transactions sharing this latency (one block, or one 2PC)
	d time.Duration
}

type mark struct {
	at     time.Duration // raw, since the window began
	sealed int           // cumulative
}

// newWindow starts both clocks with a first sample.
func newWindow(rec *recorder, host *hostClock) *window {
	w := &window{rec: rec, host: host, began: time.Now()}
	w.speed = host.speed()
	w.sampled = time.Now()
	return w
}

// sampleEvery bounds what sampling costs: two cores for about 1.5 ms
// at most once per interval.
const sampleEvery = 100 * time.Millisecond

// tick is called by the drivers at unit boundaries where nothing is in
// flight; it samples the host's speed if the last sample is old enough.
func (w *window) tick() {
	if time.Since(w.sampled) >= sampleEvery {
		w.sample()
	}
}

// sample closes the interval since the last sample: its wall time goes
// on the raw clock, and on the host clock weighted by the mean of the
// speeds at its two ends.
func (w *window) sample() {
	dt := time.Since(w.sampled)
	s := w.host.speed()
	w.raw += dt
	w.norm += time.Duration(float64(dt) * (w.speed + s) / 2)
	w.speed = s
	w.sampled = time.Now()
}

// hostSpeed is the window's time-weighted mean host speed.
func (w *window) hostSpeed() float64 { return ratio(float64(w.norm), float64(w.raw)) }

// hostTime converts a short wall interval that ended now to host time.
func (w *window) hostTime(d time.Duration) time.Duration {
	return time.Duration(float64(d) * w.speed)
}

// seal records n transactions observed sealed now, each d after it was
// handed to the system.
func (w *window) seal(n int, d time.Duration) {
	if !w.virtual {
		d = w.hostTime(d)
	}
	w.sealed += n
	w.lat = append(w.lat, latSample{n, d})
	w.marks = append(w.marks, mark{time.Since(w.began), w.sealed})
}

// latencyQuantile is the q-quantile over transactions (a block's
// latency counts once per transaction in it).
func (w *window) latencyQuantile(q float64) time.Duration {
	if w.sealed == 0 {
		return 0
	}
	s := append([]latSample(nil), w.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i].d < s[j].d })
	rank := int(q * float64(w.sealed))
	for _, l := range s {
		if rank < l.n {
			return l.d
		}
		rank -= l.n
	}
	return s[len(s)-1].d
}

// epochSpreadPct times ten equal-count epochs of the window and returns
// the interquartile range of their rates as a share of the median, in
// percent. The whole-window rate is the reported throughput; this only
// says how evenly it was sustained.
func (w *window) epochSpreadPct() float64 {
	var rates []float64
	var prev mark
	k := 1
	for _, m := range w.marks {
		if m.sealed*10 >= k*w.sealed {
			if dt := (m.at - prev.at).Seconds(); dt > 0 {
				rates = append(rates, float64(m.sealed-prev.sealed)/dt)
			}
			prev = m
			for m.sealed*10 >= k*w.sealed {
				k++
			}
		}
	}
	if len(rates) < 4 {
		return 0
	}
	return 100 * ratio(quantile(rates, 0.75)-quantile(rates, 0.25), median(rates))
}

// The read window's operations: the query.Engine methods that have an
// answer on at least one workload's final state.
const (
	qHolderOf = iota
	qAssetProvenance
	qHoldingsInBand
	qBidsForRequest
	qRecentOpenRequests
	qBidsInPriceBand
	qAuctionOutcome
)

var queryNames = [...]string{
	"holder_of", "asset_provenance", "holdings_in_band", "bids_for_request",
	"recent_open_requests", "bids_in_price_band", "auction_outcome",
}

// The read mix. The band and feed queries walk an index over the whole
// unspent or open set, so they cost milliseconds where the point
// queries cost microseconds; each gets one slot in a hundred — enough
// samples for its own per-layer median, too few to set the read
// window's length. Among the point queries the methods' costs form
// separate clusters, and a median that falls between two clusters, or
// in the tail of one, jumps from run to run. So each workload's shares
// put the window's median at the median of one method: HolderOf on the
// single-chain states (24 in 25, AssetProvenance the rest — its cost
// follows the chain's length, which differs by seed), AssetProvenance on
// the marketplace, with cheaper and dearer methods on either side of it.
const scanSlot = 7

type queryOp struct {
	method int
	id     string // asset or REQUEST id
	lo, hi uint64 // amount band
	want   int    // result count the generator expects
}

// run executes the query and returns its result count (-1 when the
// answer is missing or unsettled).
func (q queryOp) run(e *query.Engine) int {
	switch q.method {
	case qHolderOf:
		return len(e.HolderOf(q.id))
	case qAssetProvenance:
		return len(e.AssetProvenance(q.id))
	case qHoldingsInBand:
		return len(e.HoldingsInBand(q.lo, q.hi))
	case qBidsForRequest:
		return len(e.BidsForRequest(q.id))
	case qRecentOpenRequests:
		return len(e.RecentOpenRequests(20))
	case qBidsInPriceBand:
		return len(e.BidsInPriceBand(q.lo, q.hi))
	case qAuctionOutcome:
		out, ok := e.AuctionOutcome(q.id)
		if !ok || !out.Settled {
			return -1
		}
		return len(out.Losers)
	}
	return -1
}

// readPasses is how many times the read window runs its operations.
// One pass over the point queries lasts tens of milliseconds — a single
// draw of the host's state and of the caches — so the window's median is
// taken per pass and the median of the passes reported.
const readPasses = 3

// readWindow runs the read operations readPasses times on one goroutine
// and returns the median of the passes' median latencies, every latency
// by method (microseconds of host time), and the number of wrong result
// counts.
func readWindow(st *ledger.State, ops []queryOp, w *window) (p50 float64, all []float64, byMethod [len(queryNames)][]float64, failed int) {
	e := query.New(st)
	var passP50 []float64
	for pass := 0; pass < readPasses; pass++ {
		lat := make([]float64, 0, len(ops))
		for _, q := range ops {
			w.tick()
			s := w.rec.start(queryNames[q.method], "read", -1)
			t0 := time.Now()
			got := q.run(e)
			us := float64(w.hostTime(time.Since(t0)).Nanoseconds()) / 1e3
			w.rec.end(s)
			if got != q.want {
				failed++
			}
			lat = append(lat, us)
			byMethod[q.method] = append(byMethod[q.method], us)
		}
		passP50 = append(passP50, median(lat))
		all = append(all, lat...)
	}
	return median(passP50), all, byMethod, failed
}

// result is one full pass over a workload.
type result struct {
	attempted int
	failed    int
	problems  []string
	e2e       metrics
	layer     metrics // traced pass only
	tps       float64
}

type passOptions struct {
	name    string
	setups  int
	reads   int
	seed    int64
	tr      *tracing // nil: end-to-end run
	genD    time.Duration
	scratch string // directory for the systems' data
	log     io.Writer
	host    *hostClock
	// keepInputs leaves the input bytes in place for a later pass or
	// the probes (live_heap_mb is then not what the system alone
	// retains; the traced run does not report it).
	keepInputs bool
}

// pass runs one workload once: set-ups, measured write window, read
// window, heap measurement, correctness gate. With o.tr set the system
// runs with registries attached and the driver records spans. Every
// timing among the end-to-end metrics is host time (see window).
func pass(b bench, o passOptions) (*result, error) {
	tr := o.tr
	res := &result{e2e: metrics{}}
	rec := tr.recorder()
	warm, total := b.units()

	// Set-up, several times over: open, preload, warm-up epoch, GC. Each
	// repetition builds a fresh system from the same inputs; the last
	// one is the system the window measures.
	var setupS []float64
	var openD, preloadD time.Duration
	dir := filepath.Join(o.scratch, "sys")
	defer os.RemoveAll(dir)
	for rep := 0; rep < o.setups; rep++ {
		sw := newWindow(nil, o.host)
		var err error
		if rep == o.setups-1 {
			openD, preloadD, err = b.open(dir, tr, sw)
		} else {
			_, _, err = b.open(dir, nil, sw)
		}
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		if err := b.drive(0, warm, sw); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if sw.failed != 0 {
			return nil, fmt.Errorf("warm-up: %d operations did not have the expected outcome", sw.failed)
		}
		runtime.GC()
		sw.sample()
		setupS = append(setupS, sw.norm.Seconds())
		if rep < o.setups-1 {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	res.e2e["setup_s"] = median(setupS)
	fmt.Fprintf(o.log, "phase set-up ×%d: host seconds %.3f\n", o.setups, setupS)

	// Measured write window: a fixed count of transactions, whole-window
	// rate.
	var before, after runtime.MemStats
	gc0, cpu0 := cpuSeconds()
	runtime.ReadMemStats(&before)
	w := newWindow(rec, o.host)
	if err := b.drive(warm, total, w); err != nil {
		return nil, fmt.Errorf("write window: %w", err)
	}
	wall := time.Since(w.began) // sampling included
	w.sample()
	runtime.ReadMemStats(&after)
	gc1, cpu1 := cpuSeconds()
	if w.sealed == 0 {
		return nil, fmt.Errorf("write window sealed nothing")
	}
	rawTps := float64(w.sealed) / w.raw.Seconds()
	res.tps = float64(w.sealed) / w.norm.Seconds()
	fmt.Fprintf(o.log, "phase write window: %d transactions in %.3fs (%.1f/s) at host speed %.2f: %.3f host seconds (%.1f/s)\n",
		w.sealed, w.raw.Seconds(), rawTps, w.hostSpeed(), w.norm.Seconds(), res.tps)
	res.e2e["throughput_tps"] = res.tps
	res.e2e["commit_p50_ms"] = float64(w.latencyQuantile(0.50).Nanoseconds()) / 1e6
	res.e2e["alloc_kb_per_tx"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(w.sealed)

	// Read window, from a quiescent heap: a collection still marking the
	// write window's garbage would tax some passes and not others.
	runtime.GC()
	ops := b.queries(rand.New(rand.NewSource(o.seed+977)), o.reads)
	rw := newWindow(rec, o.host)
	qP50, qAll, qBy, qFailed := readWindow(b.state(), ops, rw)
	rw.sample()
	res.e2e["query_p50_us"] = qP50
	fmt.Fprintf(o.log, "phase read window: %d queries × %d passes in %.3fs at host speed %.2f\n", len(ops), readPasses, rw.raw.Seconds(), rw.hostSpeed())
	for i, us := range qBy {
		if len(us) > 0 {
			fmt.Fprintf(o.log, "  %-22s n=%d p50=%.1fus p99=%.1fus\n", queryNames[i], len(us), median(us), quantile(us, 0.99))
		}
	}

	// What the system retains for the committed transactions.
	if !o.keepInputs {
		b.dropInputs()
	}
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	res.e2e["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)

	res.attempted = w.sealed + w.rejected + w.failed + len(qAll)
	res.failed = w.failed + qFailed
	if qFailed != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d queries returned a wrong result count", qFailed, len(qAll)))
	}
	if w.failed != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d write operations did not have the expected outcome", w.failed))
	}

	// Correctness gate; for the disk workloads it ends with close →
	// reopen → compare.
	checkT := time.Now()
	res.problems = append(res.problems, b.check(w)...)
	fmt.Fprintf(o.log, "phase correctness gate: %.3fs\n", time.Since(checkT).Seconds())

	if tr != nil {
		m := metrics{}
		m["driver.gen_s"] = o.genD.Seconds()
		m["driver.commit_p99_ms"] = float64(w.latencyQuantile(0.99).Nanoseconds()) / 1e6
		m["driver.commit_samples"] = float64(w.sealed)
		m["driver.epoch_tps_iqr_pct"] = w.epochSpreadPct()
		m["driver.host_speed"] = w.hostSpeed()
		m["driver.raw_throughput_tps"] = rawTps
		m["server.open_s"] = openD.Seconds()
		m["server.preload_s"] = preloadD.Seconds()
		m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		m["runtime.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)
		for i, us := range qBy {
			m["query."+queryNames[i]+"_us"] = median(us)
		}
		m["query.p99_us"] = quantile(qAll, 0.99)
		m["query.samples"] = float64(len(qAll))

		path := filepath.Join(outDir(), "trace-"+o.name+".jsonl")
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		spans, err := readSpanStats(path)
		if err != nil {
			return nil, fmt.Errorf("read trace: %w", err)
		}
		m["driver.unattributed_share"] = 1 - ratio(float64(spans["unit"].Total-spans["unit"].Self), float64(wall))
		commonLayer(tr, m)
		b.layer(tr, spans, w, m)
		res.layer = m
	}
	if err := b.close(); err != nil {
		res.problems = append(res.problems, fmt.Sprintf("close: %v", err))
	}
	return res, nil
}

// commonLayer reads the per-layer counts every workload shares from
// the run's registries: all four run server nodes over ledger,
// docstore and storage.
func commonLayer(tr *tracing, m metrics) {
	tasks := tr.counter("server.admit.sig_tasks")
	m["server.sig_dedup_ratio"] = ratio(tr.counter("server.admit.sig_dedup_hits"), tasks)
	m["server.fence_apply_stalls"] = tr.counter("server.fence.apply_stalls")
	m["server.fence_stack_waits"] = tr.counter("server.fence.stack_waits")
	_, fenceNs, _ := tr.hist("server.fence.wait_ns")
	blocks := tr.counter("ledger.commit.blocks")
	m["server.fence_wait_ms_per_block"] = ratio(fenceNs/1e6, blocks)
	hits, misses := tr.gauge("txn.canonical_cache.hits"), tr.gauge("txn.canonical_cache.misses")
	m["txn.canonical_cache_hit_ratio"] = ratio(hits, hits+misses)

	_, planNs, _ := tr.hist("ledger.commit.plan_ns")
	m["ledger.plan_us_per_block"] = ratio(planNs/1e3, blocks)
	// Utilisation of the apply workers: busy time over wall time times
	// the two commit workers.
	m["ledger.apply_utilization"] = ratio(tr.counter("ledger.commit.apply_busy_ns"), 2*tr.counter("ledger.commit.apply_wall_ns"))
	m["ledger.seal_stalls"] = tr.counter("ledger.pipeline.seal_stalls")
	m["ledger.skipped"] = tr.counter("ledger.commit.skipped")

	_, _, fsync := tr.hist("storage.wal.fsync_ns")
	m["storage.fsync_p50_us"] = float64(fsync.P50) / 1e3
	m["storage.fsync_p99_us"] = float64(fsync.P99) / 1e3
	_, walBytes, _ := tr.hist("storage.wal.group_bytes")
	committed := tr.counter("ledger.commit.txs")
	m["storage.wal_groups_per_ktx"] = ratio(1000*tr.counter("storage.wal.groups"), committed)
	m["storage.wal_bytes_per_tx"] = ratio(walBytes, committed)
	m["storage.mvcc_pruned_versions"] = tr.counter("storage.mvcc.pruned_versions")

	pcHits, pcMisses := tr.counter("docstore.plan_cache.hits"), tr.counter("docstore.plan_cache.misses")
	m["docstore.plan_cache_hit_ratio"] = ratio(pcHits, pcHits+pcMisses)
	m["docstore.index_probes_per_query"] = ratio(tr.counter("docstore.index_probes"), pcHits+pcMisses)
	m["docstore.full_scans"] = tr.counter("docstore.full_scans")
}

// cpuSeconds reads the Go runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// outDir is where traces and the systems' data directories go:
// benchmark/out under the checkout's root, or out when run from inside
// benchmark/.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// decodeTx is what a node receiving a transaction as JSON pays before
// its first validation call: parse the bytes, then build the typed
// transaction. The object is fresh, so no memoised encoding or verdict
// comes with it.
func decodeTx(raw []byte) (*txn.Transaction, error) {
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return txn.FromDoc(doc)
}

func decodeAll(raws [][]byte) ([]*txn.Transaction, error) {
	out := make([]*txn.Transaction, len(raws))
	for i, raw := range raws {
		t, err := decodeTx(raw)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func asConsensus(txs []*txn.Transaction) []consensus.Tx {
	out := make([]consensus.Tx, len(txs))
	for i, t := range txs {
		out[i] = t
	}
	return out
}

// sealBytes signs t and returns its canonical JSON bytes — the form
// the generator keeps every input in.
func sealBytes(t *txn.Transaction, signers ...*keys.KeyPair) []byte {
	if err := txn.Sign(t, signers...); err != nil {
		// Inputs are built a few lines above every call; a failure is a
		// defect in the generator.
		panic(fmt.Sprintf("generator: sign %s: %v", t.Operation, err))
	}
	return t.MarshalCanonical()
}

// parallelFor runs fn(i) for i in [0, n) on two goroutines. Generation
// is the load generator's own cost (driver.gen_s) and happens before
// any set-up, so it may use both cores.
func parallelFor(n int, fn func(i int)) {
	done := make(chan struct{})
	half := n / 2
	go func() {
		defer close(done)
		for i := 0; i < half; i++ {
			fn(i)
		}
	}()
	for i := half; i < n; i++ {
		fn(i)
	}
	<-done
}

// unspentByAsset sums the unspent outputs of the given states by
// asset, for the conservation check.
func unspentByAsset(states ...*ledger.State) map[string]uint64 {
	sums := make(map[string]uint64)
	for _, st := range states {
		for _, doc := range st.View().Collection(ledger.ColUTXOs).Find(docstore.Eq("spent", false)) {
			asset, _ := doc["asset_id"].(string)
			amt, _ := doc["amount"].(float64)
			sums[asset] += uint64(amt)
		}
	}
	return sums
}

// conservation compares the systems' unspent sums with the shares the
// generator minted.
func conservation(minted map[string]uint64, states ...*ledger.State) []string {
	got := unspentByAsset(states...)
	var bad []string
	if len(got) != len(minted) {
		bad = append(bad, fmt.Sprintf("conservation: %d assets hold unspent outputs, generator minted %d", len(got), len(minted)))
	}
	wrong := 0
	for asset, want := range minted {
		if got[asset] != want {
			wrong++
		}
	}
	if wrong != 0 {
		bad = append(bad, fmt.Sprintf("conservation: %d assets' unspent outputs do not sum to the minted shares", wrong))
	}
	return bad
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var sum int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				sum += info.Size()
			}
		}
		return nil
	})
	return sum
}
