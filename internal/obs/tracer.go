package obs

import (
	"sync"
	"time"
)

// Stage identifies one pipeline stage a transaction passes through on
// its way from the wire to the sealed chain.
type Stage uint8

const (
	// StageRecv is the receive queue: from client arrival at the node
	// to the admission batch being picked up.
	StageRecv Stage = iota
	// StageAdmitScreen is the mempool's O(1) structural screen
	// (duplicate IDs, claimed spend keys).
	StageAdmitScreen
	// StageAdmitVerify is semantic admission: schema plus condition
	// sets over the parallel scheduler.
	StageAdmitVerify
	// StagePack is block packing (conflict-group balancing).
	StagePack
	// StageValidate is block validation on the packed block.
	StageValidate
	// StageFenceWait is time blocked on the commit fence waiting for a
	// footprint-conflicting in-flight commit.
	StageFenceWait
	// StageApply is the commit pipeline's apply phase (conflict groups
	// staging writes concurrently).
	StageApply
	// StageSeal is the commit pipeline's seal phase (block-order seal
	// into the atomic WAL group).
	StageSeal

	// StageCount is the number of stages.
	StageCount
)

var stageNames = [StageCount]string{
	"recv", "admit-screen", "admit-verify", "pack",
	"validate", "fence-wait", "apply", "seal",
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if s < StageCount {
		return stageNames[s]
	}
	return "unknown"
}

// Trace is one transaction's per-stage dwell record.
type Trace struct {
	// ID is the transaction hash.
	ID string `json:"id"`
	// Height is the block height the transaction sealed at; 0 while it
	// is still in flight.
	Height int64 `json:"height"`
	// Stages holds the dwell time per stage in nanoseconds, indexed by
	// Stage; -1 marks a stage not yet observed.
	Stages [StageCount]int64 `json:"stages"`

	arrived time.Time
}

// Observed reports whether the stage has been recorded.
func (t *Trace) Observed(s Stage) bool { return t.Stages[s] >= 0 }

const (
	defaultMaxActive = 1 << 16
	defaultDoneCap   = 4096
)

// Tracer records per-transaction stage dwell times, height-stamped at
// seal. Each stage is first-observation-wins: the proposer validates a
// packed block once at propose and once at prevote, and only the first
// measurement counts — so a committed trace reports every stage
// exactly once. Memory is bounded: at most maxActive in-flight traces
// (later arrivals are refused) and a fixed ring of
// completed ones. All methods are nil-safe no-ops.
type Tracer struct {
	mu     sync.Mutex
	active map[string]*Trace
	done   []*Trace // ring of completed traces
	next   int
	stage  [StageCount]*Histogram

	maxActive int
}

func newTracer() *Tracer {
	t := &Tracer{
		active:    make(map[string]*Trace),
		done:      make([]*Trace, 0, defaultDoneCap),
		maxActive: defaultMaxActive,
	}
	for i := range t.stage {
		t.stage[i] = newHistogram()
	}
	return t
}

// newTrace builds an all-unset trace.
func newTrace(id string) *Trace {
	tr := &Trace{ID: id}
	for i := range tr.Stages {
		tr.Stages[i] = -1
	}
	return tr
}

// traceLocked returns the active trace for id, creating it if the
// bound allows. Caller holds t.mu.
func (t *Tracer) traceLocked(id string) *Trace {
	if tr, ok := t.active[id]; ok {
		return tr
	}
	if len(t.active) >= t.maxActive {
		return nil
	}
	tr := newTrace(id)
	t.active[id] = tr
	return tr
}

// Arrive opens a trace for a transaction entering the node, stamping
// its arrival time for the recv-stage dwell.
func (t *Tracer) Arrive(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if tr := t.traceLocked(id); tr != nil && tr.arrived.IsZero() {
		tr.arrived = time.Now()
	}
	t.mu.Unlock()
}

// MarkReceived closes the recv stage for each id: dwell is the time
// since Arrive. IDs that never arrived record a zero recv dwell.
func (t *Tracer) MarkReceived(ids []string) {
	if t == nil || len(ids) == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	for _, id := range ids {
		tr := t.traceLocked(id)
		if tr == nil || tr.Stages[StageRecv] >= 0 {
			continue
		}
		var d time.Duration
		if !tr.arrived.IsZero() {
			d = now.Sub(tr.arrived)
		}
		t.setLocked(tr, StageRecv, d)
	}
	t.mu.Unlock()
}

// setLocked records a stage dwell first-observation-wins and feeds the
// aggregate stage histogram. Caller holds t.mu.
func (t *Tracer) setLocked(tr *Trace, s Stage, d time.Duration) {
	if tr.Stages[s] >= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	tr.Stages[s] = int64(d)
	t.stage[s].ObserveDuration(d)
}

// Observe records one transaction's dwell in a stage.
func (t *Tracer) Observe(id string, s Stage, d time.Duration) {
	if t == nil || s >= StageCount {
		return
	}
	t.mu.Lock()
	if tr := t.traceLocked(id); tr != nil {
		t.setLocked(tr, s, d)
	}
	t.mu.Unlock()
}

// ObserveEach records the same dwell for a batch of transactions under
// one lock acquisition — the batch stages (screen, verify, pack,
// validate, apply, seal) attribute the phase latency to every member.
func (t *Tracer) ObserveEach(ids []string, s Stage, d time.Duration) {
	if t == nil || s >= StageCount || len(ids) == 0 {
		return
	}
	t.mu.Lock()
	for _, id := range ids {
		if tr := t.traceLocked(id); tr != nil {
			t.setLocked(tr, s, d)
		}
	}
	t.mu.Unlock()
}

// Sealed completes traces at a block height: each is height-stamped
// and moved to the completed ring.
func (t *Tracer) Sealed(ids []string, height int64) {
	if t == nil || len(ids) == 0 {
		return
	}
	t.mu.Lock()
	for _, id := range ids {
		tr, ok := t.active[id]
		if !ok {
			continue
		}
		delete(t.active, id)
		tr.Height = height
		if len(t.done) < cap(t.done) {
			t.done = append(t.done, tr)
		} else {
			t.done[t.next] = tr
			t.next = (t.next + 1) % cap(t.done)
		}
	}
	t.mu.Unlock()
}

// Drop discards the active traces of transactions leaving the pipeline
// uncommitted (rejections, evictions).
func (t *Tracer) Drop(ids []string) {
	if t == nil || len(ids) == 0 {
		return
	}
	t.mu.Lock()
	for _, id := range ids {
		delete(t.active, id)
	}
	t.mu.Unlock()
}

// Trace returns a copy of a transaction's trace, completed or active.
func (t *Tracer) Trace(id string) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.active[id]; ok {
		return *tr, true
	}
	for _, tr := range t.done {
		if tr.ID == id {
			return *tr, true
		}
	}
	return Trace{}, false
}

// Completed returns copies of the completed traces, oldest first.
func (t *Tracer) Completed() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.done))
	for i := 0; i < len(t.done); i++ {
		out = append(out, *t.done[(t.next+i)%len(t.done)])
	}
	return out
}

// stageSnapshots summarizes every stage's aggregate histogram, keyed
// by stage name. Nil-safe.
func (t *Tracer) stageSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot, StageCount)
	if t == nil {
		return out
	}
	for i := Stage(0); i < StageCount; i++ {
		out[i.String()] = t.stage[i].Snapshot()
	}
	return out
}
