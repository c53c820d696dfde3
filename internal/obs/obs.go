// Package obs is the pipeline-wide observability layer: a dependency-
// free registry of sharded lock-free counters, gauges, log-linear
// latency histograms, and a height-stamped per-stage transaction
// tracer. Every layer of the node — mempool admission, the parallel
// scheduler, the ledger commit pipeline, the storage engine, the
// docstore planner, and the query engine — records into one Registry,
// and the same Registry backs the opt-in HTTP ops endpoint
// (smartchaindb -opsaddr) and scdb-bench's machine-readable output.
//
// Every handle and the Registry itself are nil-safe: a nil *Registry
// hands out nil handles whose methods are no-ops, so instrumented code
// never branches on "is observability on" — the nil receiver check is
// the no-op build, which allocates nothing
// (TestNilHandlesAllocateNothing); the benchmark's
// obs.trace_overhead_pct reads its cost against the instrumented one.
package obs

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// cellCount is the number of padded shards a Counter spreads its
// increments over: the next power of two covering GOMAXPROCS, capped
// so an idle many-core box doesn't pay a large read-side sum.
var cellCount, cellMask = func() (int, uint32) {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n, uint32(n - 1)
}()

// ccell is one padded counter shard. The padding keeps concurrent
// writers on different cells out of each other's cache lines.
type ccell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotone counter sharded across padded cells. Add picks
// a cell with cheap per-thread randomness (no lock, no allocation);
// Value sums the cells, so totals are exact regardless of how the
// increments were spread. All methods are nil-safe no-ops.
type Counter struct {
	cells []ccell
}

func newCounter() *Counter { return &Counter{cells: make([]ccell, cellCount)} }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.cells[rand.Uint32()&cellMask].n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the exact total across all cells.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// Gauge is a settable instantaneous value (heights, segment counts,
// pool sizes). Gauges are written rarely compared to counters, so a
// single atomic is enough. All methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is the root of the observability tree: named counters,
// gauges, histograms, and the stage tracer. Get-or-create lookups are
// lock-free after first use (sync.Map fast path); hot paths should
// nevertheless cache the returned handle — the handle, not the name
// lookup, is the allocation-free increment.
//
// A nil *Registry is the no-op registry: every accessor returns a nil
// handle whose methods do nothing.
type Registry struct {
	counters sync.Map // name -> *Counter
	gauges   sync.Map // name -> *Gauge
	hists    sync.Map // name -> *Histogram
	notes    sync.Map // name -> string
	tracer   *Tracer
}

// New builds an empty registry with an attached tracer.
func New() *Registry {
	return &Registry{tracer: newTracer()}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, newCounter())
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it on first use.
// Metric names ending in _ns hold durations in nanoseconds; others
// hold plain values (bytes, batch sizes, group counts).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, newHistogram())
	return v.(*Histogram)
}

// Note records text under name, replacing what was there: the latest
// reason behind a counter that counts failures, by convention under the
// counter's name. A number says how often; the note says what last.
func (r *Registry) Note(name, text string) {
	if r == nil {
		return
	}
	r.notes.Store(name, text)
}

// Tracer returns the registry's stage tracer (nil for a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	// Stages holds the tracer's aggregate per-stage dwell histograms,
	// keyed by stage name in pipeline order (recv ... seal).
	Stages map[string]HistSnapshot `json:"stages"`
	// Notes holds the latest text recorded under each Note name.
	Notes map[string]string `json:"notes,omitempty"`
}

// Snapshot captures every counter, gauge, histogram, and the tracer's
// per-stage aggregates. Safe to call concurrently with writers; each
// metric is read atomically (the snapshot as a whole is not a single
// consistent cut, which monitoring never needs).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
		Stages:     map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		s.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	r.hists.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	for st, h := range r.tracer.stageSnapshots() {
		s.Stages[st] = h
	}
	r.notes.Range(func(k, v any) bool {
		if s.Notes == nil {
			s.Notes = map[string]string{}
		}
		s.Notes[k.(string)] = v.(string)
		return true
	})
	return s
}
