package parallel

import (
	"fmt"
	"sync"

	"smartchaindb/internal/txn"
)

// PipelineFence is the commit fence: one slot holding the write
// footprint of the one block that may commit behind the next height's
// validation. While that block applies, its declarative write
// footprint is published here, and the *validation* paths at later
// heights consult it before computing verdicts. A validation whose own
// footprint intersects the in-flight write set blocks until the block
// seals; a disjoint one proceeds immediately.
//
// The fence is a verdict-ordering device, not a read barrier: since
// the storage layer grew height-stamped MVCC snapshots, plain reads
// (queries, analytics, fingerprint-at-height) never consult the fence
// — they resolve against the last sealed block's snapshot and can run
// concurrently with the applier no matter whose footprint they touch.
// What remains fenced is the cross-height data dependency: a verdict
// for height h+1 whose footprint overlaps the unsealed block's writes
// must be computed *after* that block seals, or replicas deciding at
// different points of the apply phase would disagree.
//
// One slot is the whole design, not the small case of a deeper ring:
// Begin parks while a block is in flight, so block h+1 is admitted
// only after block h has sealed. Staging therefore always reads the
// sequential prefix, WAL groups land in height order, and the durable
// prefix is a block prefix, with nothing left to order.
//
// The zero value is an idle fence and every wait on it returns
// immediately.
type PipelineFence struct {
	mu   sync.Mutex
	cond *sync.Cond

	// busy marks the slot taken; height and keys are the in-flight
	// block's height and the writes of its footprints.
	busy   bool
	height int64
	keys   map[string]struct{}
}

// signal returns the fence's condition variable, creating it on first
// use so the zero value works. Caller holds mu.
func (f *PipelineFence) signal() *sync.Cond {
	if f.cond == nil {
		f.cond = sync.NewCond(&f.mu)
	}
	return f.cond
}

// Begin admits block height with its transactions' footprints (the
// block plan's), parking while another block is in flight — the
// backpressure that keeps the pipeline at one commit behind one
// validation — and publishes their writes; the block's reads fence
// nothing. It reports whether the caller had to wait for the slot —
// the "fence stack wait" the pipeline metrics count.
func (f *PipelineFence) Begin(height int64, fps []txn.Footprint) (waited bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.busy {
		waited = true
		f.signal().Wait()
	}
	f.busy = true
	f.height = height
	n := 0
	for _, fp := range fps {
		n += len(fp.Writes)
	}
	f.keys = make(map[string]struct{}, n)
	for _, fp := range fps {
		for _, k := range fp.Writes {
			f.keys[k] = struct{}{}
		}
	}
	return waited
}

// End retires block height's slot once it has sealed and releases
// every waiter.
func (f *PipelineFence) End(height int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.busy || f.height != height {
		// invariant: only the block that took the slot releases it; a
		// stray End would let validation read under an unsealed block.
		panic(fmt.Sprintf("parallel: fence End(%d) but the slot holds height %d (in flight: %v)", height, f.height, f.busy))
	}
	f.busy = false
	f.keys = nil
	f.signal().Broadcast()
}

// WaitKeysReport blocks while the in-flight block writes a key that
// one of fps writes or reads — the reads-at-h+1-wait-on-unsealed-writes
// rule. A waiter that only reads keys the block only reads, or touches
// none of its keys, returns immediately, concurrent with the applier.
// inflight is whether a commit was applying when the call entered,
// blocked whether the footprints intersected its writes (so the call
// waited for the seal). The two counters behind the commit-overlap
// metrics — fenced waits lost vs. reads that overlapped the applier —
// come from here.
func (f *PipelineFence) WaitKeysReport(fps []txn.Footprint) (inflight, blocked bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	inflight = f.busy
	for f.intersects(fps) {
		blocked = true
		f.signal().Wait()
	}
	return inflight, blocked
}

// intersects reports whether the in-flight block writes a key some
// footprint of fps writes or reads. Caller holds mu.
func (f *PipelineFence) intersects(fps []txn.Footprint) bool {
	if len(f.keys) == 0 {
		return false
	}
	for _, fp := range fps {
		for _, keys := range [2][]string{fp.Writes, fp.Reads} {
			for _, k := range keys {
				if _, ok := f.keys[k]; ok {
					return true
				}
			}
		}
	}
	return false
}

// InFlight reports how many blocks are admitted and unsealed (0 or 1)
// — the live pipeline gauge of the ops endpoint.
func (f *PipelineFence) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.busy {
		return 1
	}
	return 0
}

// Drain blocks until no commit is in flight — the full barrier node
// shutdown and state-wide reads (fingerprints, snapshots) use.
func (f *PipelineFence) Drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.busy {
		f.signal().Wait()
	}
}
