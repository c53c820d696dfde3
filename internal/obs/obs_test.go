package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrentExact pins the sharded counter's core contract:
// however increments spread over the cells, the aggregated total is
// exact.
func TestCounterConcurrentExact(t *testing.T) {
	reg := New()
	c := reg.Counter("test.hits")
	const workers, perWorker = 16, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(workers*perWorker); got != want {
		t.Fatalf("counter total = %d, want %d", got, want)
	}
	if got := reg.Counter("test.hits").Value(); got != uint64(workers*perWorker) {
		t.Fatalf("re-looked-up counter disagrees: %d", got)
	}
}

func TestGauge(t *testing.T) {
	reg := New()
	g := reg.Gauge("test.height")
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
}

// TestHistogramConcurrentExactTotals: N writers record a known value
// multiset; count and sum must be exact, min/max observed.
func TestHistogramConcurrentExactTotals(t *testing.T) {
	reg := New()
	h := reg.Histogram("test.lat_ns")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var wantSum int64
	var wantMin, wantMax int64 = math.MaxInt64, math.MinInt64
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWorker; i++ {
			v := rng.Int63n(1_000_000)
			wantSum += v
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Min != wantMin || s.Max != wantMax {
		t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, wantMin, wantMax)
	}
}

// TestHistogramQuantileErrorBound pins the log-linear design's error
// bound: every reported quantile is within 6.25% of the exact one.
func TestHistogramQuantileErrorBound(t *testing.T) {
	for _, dist := range []struct {
		name string
		gen  func(rng *rand.Rand) int64
	}{
		{"uniform", func(rng *rand.Rand) int64 { return rng.Int63n(10_000_000) }},
		{"exponential", func(rng *rand.Rand) int64 { return int64(rng.ExpFloat64() * 250_000) }},
		{"bimodal", func(rng *rand.Rand) int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(100_000)
			}
			return 10_000 + rng.Int63n(1000)
		}},
	} {
		t.Run(dist.name, func(t *testing.T) {
			h := newHistogram()
			rng := rand.New(rand.NewSource(7))
			const n = 200000
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = dist.gen(rng)
				h.Observe(vals[i])
			}
			exact := func(q float64) int64 { return quantileExact(vals, q) }
			s := h.Snapshot()
			for _, tc := range []struct {
				q   float64
				got int64
			}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}, {0.999, s.P999}} {
				want := exact(tc.q)
				// Relative error bound: bucket width / value <= 2^-histSubBits,
				// midpoint reporting halves it; allow the full bound.
				tol := float64(want) / float64(histSubCount)
				if tol < 1 {
					tol = 1
				}
				if diff := math.Abs(float64(tc.got - want)); diff > tol {
					t.Errorf("q%.3f: got %d, exact %d (diff %.0f > tol %.0f)", tc.q, tc.got, want, diff, tol)
				}
			}
		})
	}
}

func quantileExact(vals []int64, q float64) int64 {
	sorted := append([]int64(nil), vals...)
	slices.Sort(sorted)
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TestBucketIndexMonotone sanity-checks the log-linear indexing:
// indexes are monotone in the value and midpoints stay within bucket
// error of the value.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 63, 64, 1000, 4096, 1 << 20, 1 << 40, 1 << 62} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		if i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		mid := bucketMid(i)
		if v >= 16 {
			rel := math.Abs(float64(mid)-float64(v)) / float64(v)
			if rel > 1.0/histSubCount {
				t.Fatalf("bucketMid(%d)=%d for v=%d: rel err %.3f", i, mid, v, rel)
			}
		}
	}
}

// TestNilRegistryNoops: the nil registry is the documented no-op
// build; every handle and method must be callable.
func TestNilRegistryNoops(t *testing.T) {
	var reg *Registry
	reg.Counter("a").Inc()
	reg.Counter("a").Add(3)
	if reg.Counter("a").Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(5)
	reg.Histogram("h").ObserveDuration(time.Millisecond)
	reg.Histogram("h").ObserveSince(time.Now())
	_ = reg.Histogram("h").Snapshot()
	tr := reg.Tracer()
	tr.Arrive("x")
	tr.Observe("x", StageApply, time.Millisecond)
	tr.ObserveEach([]string{"x"}, StageSeal, time.Millisecond)
	tr.MarkReceived([]string{"x"})
	tr.Sealed([]string{"x"}, 1)
	tr.Drop([]string{"x"})
	if _, ok := tr.Trace("x"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	reg.Note("n", "text")
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Stages) != 0 || len(snap.Notes) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestNilHandlesAllocateNothing pins the other half of the no-op
// build's promise: an un-instrumented node holds nil handles, and a
// call through one — at every instrumentation site, on every
// transaction — costs no allocation.
func TestNilHandlesAllocateNothing(t *testing.T) {
	var reg *Registry
	c, g, h, tr := reg.Counter("c"), reg.Gauge("g"), reg.Histogram("h"), reg.Tracer()
	ids := []string{"x", "y"}
	t0 := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(5)
		h.ObserveDuration(time.Millisecond)
		h.ObserveSince(t0)
		tr.Arrive("x")
		tr.MarkReceived(ids)
		tr.Observe("x", StageApply, time.Millisecond)
		tr.ObserveEach(ids, StageSeal, time.Millisecond)
		tr.Sealed(ids, 1)
		tr.Drop(ids)
	})
	if allocs != 0 {
		t.Fatalf("nil handles allocated %.0f times per pass, want 0", allocs)
	}
}

// TestTracerFirstObservationWins pins the double-validation semantics:
// a stage observed twice keeps the first dwell and feeds the aggregate
// histogram once.
func TestTracerFirstObservationWins(t *testing.T) {
	reg := New()
	tr := reg.Tracer()
	tr.Observe("tx1", StageValidate, 10*time.Millisecond)
	tr.Observe("tx1", StageValidate, 99*time.Millisecond)
	got, ok := tr.Trace("tx1")
	if !ok {
		t.Fatal("trace missing")
	}
	if got.Stages[StageValidate] != int64(10*time.Millisecond) {
		t.Fatalf("validate dwell = %d, want first observation", got.Stages[StageValidate])
	}
	if s := tr.stage[StageValidate].Snapshot(); s.Count != 1 {
		t.Fatalf("stage histogram count = %d, want 1", s.Count)
	}
}

// TestTracerLifecycle: arrive -> stages -> sealed moves the trace to
// the completed ring, height-stamped, with recv dwell from Arrive.
func TestTracerLifecycle(t *testing.T) {
	reg := New()
	tr := reg.Tracer()
	tr.Arrive("tx1")
	time.Sleep(time.Millisecond)
	tr.MarkReceived([]string{"tx1"})
	for s := StageAdmitScreen; s < StageCount; s++ {
		tr.ObserveEach([]string{"tx1"}, s, time.Duration(s)*time.Millisecond)
	}
	tr.Sealed([]string{"tx1"}, 7)
	got, ok := tr.Trace("tx1")
	if !ok || got.Height != 7 {
		t.Fatalf("sealed trace: ok=%v height=%d", ok, got.Height)
	}
	for s := Stage(0); s < StageCount; s++ {
		if !got.Observed(s) {
			t.Fatalf("stage %v unobserved", s)
		}
	}
	if got.Stages[StageRecv] < int64(time.Millisecond)/2 {
		t.Fatalf("recv dwell = %dns, want >= ~1ms", got.Stages[StageRecv])
	}
	done := tr.Completed()
	if len(done) != 1 || done[0].ID != "tx1" {
		t.Fatalf("completed ring = %+v", done)
	}
	// Dropped traces disappear.
	tr.Arrive("tx2")
	tr.Drop([]string{"tx2"})
	if _, ok := tr.Trace("tx2"); ok {
		t.Fatal("dropped trace still present")
	}
}

// TestTracerBounded: the active map refuses new traces past the bound.
func TestTracerBounded(t *testing.T) {
	tr := newTracer()
	tr.maxActive = 4
	for i := 0; i < 10; i++ {
		tr.Arrive(fmt.Sprintf("tx%d", i))
	}
	if n := len(tr.active); n != 4 {
		t.Fatalf("%d active traces, want the bound 4", n)
	}
	if _, ok := tr.Trace("tx4"); ok {
		t.Fatal("an arrival past the bound was traced")
	}
	// Completed ring wraps at capacity.
	tr2 := newTracer()
	ids := make([]string, 0, defaultDoneCap+10)
	for i := 0; i < defaultDoneCap+10; i++ {
		id := fmt.Sprintf("tx%d", i)
		tr2.Observe(id, StageApply, time.Microsecond)
		tr2.Sealed([]string{id}, int64(i))
		ids = append(ids, id)
	}
	done := tr2.Completed()
	if len(done) != defaultDoneCap {
		t.Fatalf("ring len = %d, want %d", len(done), defaultDoneCap)
	}
	if done[0].ID != ids[10] || done[len(done)-1].ID != ids[len(ids)-1] {
		t.Fatalf("ring order wrong: first=%s last=%s", done[0].ID, done[len(done)-1].ID)
	}
}

// TestTracerConcurrent exercises the tracer under racing writers for
// the -race gate.
func TestTracerConcurrent(t *testing.T) {
	reg := New()
	tr := reg.Tracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("w%d-tx%d", w, i)
				tr.Arrive(id)
				tr.MarkReceived([]string{id})
				tr.ObserveEach([]string{id}, StageApply, time.Microsecond)
				tr.Sealed([]string{id}, int64(i))
			}
		}(w)
	}
	wg.Wait()
	if s := tr.stage[StageApply].Snapshot(); s.Count != 8*500 {
		t.Fatalf("apply observations = %d, want %d", s.Count, 8*500)
	}
}

// TestSnapshotAndOpsEndpoint: the registry snapshot reaches /metrics
// as JSON and /traces lists completed traces.
func TestSnapshotAndOpsEndpoint(t *testing.T) {
	reg := New()
	reg.Counter("a.hits").Add(3)
	reg.Gauge("a.height").Set(9)
	reg.Histogram("a.lat_ns").ObserveDuration(2 * time.Millisecond)
	reg.Tracer().Observe("txA", StageSeal, time.Millisecond)
	reg.Tracer().Sealed([]string{"txA"}, 5)

	snap := reg.Snapshot()
	if snap.Counters["a.hits"] != 3 || snap.Gauges["a.height"] != 9 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Histograms["a.lat_ns"].Count != 1 {
		t.Fatalf("histogram snapshot missing: %+v", snap.Histograms)
	}
	if snap.Stages["seal"].Count != 1 {
		t.Fatalf("stage snapshot missing: %+v", snap.Stages)
	}
	// A note is the latest text under its name, and absent from the
	// wire until there is one.
	if raw, _ := json.Marshal(snap); snap.Notes != nil || strings.Contains(string(raw), "notes") {
		t.Fatalf("snapshot without notes carries %v: %s", snap.Notes, raw)
	}
	reg.Note("a.failed", "disk full")
	reg.Note("a.failed", "read-only file system")
	if got := reg.Snapshot().Notes; len(got) != 1 || got["a.failed"] != "read-only file system" {
		t.Fatalf("notes = %v", got)
	}

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Counters["a.hits"] != 3 {
		t.Fatalf("/metrics counters = %+v", wire.Counters)
	}
	resp2, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var traces []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0]["id"] != "txA" {
		t.Fatalf("/traces = %+v", traces)
	}
}

// What one instrumentation site costs: with observability off (the nil
// handle every un-instrumented node holds), and with a live counter or
// histogram behind it.

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncLive(b *testing.B) {
	c := New().Counter("bench.counter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench.hist")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
