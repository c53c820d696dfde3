package server

import (
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
)

// nodeObs caches the node's validation-path metric handles. The zero
// value (all-nil handles) is the no-op build — every obs method is
// nil-safe — so the instrumented paths never branch on "is
// observability on"; only tracer batch-ID slices are guarded to keep
// the no-op path allocation-free.
type nodeObs struct {
	fenceWaitNs *obs.Histogram // server.fence.wait_ns
	overlapWon  *obs.Counter   // server.fence.overlap_won
	overlapLost *obs.Counter   // server.fence.overlap_lost
	// Commit pipeline: whether a block is in flight (0 or 1), and
	// admissions that parked because the previous block had not sealed
	// yet (fence stack waits).
	inflight   *obs.Gauge     // server.pipeline.inflight
	stackWaits *obs.Counter   // server.fence.stack_waits
	validateNs *obs.Histogram // server.validate_ns
	groups     *obs.Histogram // server.validate.conflict_groups
	largest    *obs.Histogram // server.validate.largest_group
	sigTasks   *obs.Counter   // server.admit.sig_tasks
	sigDedup   *obs.Counter   // server.admit.sig_dedup_hits
	sigReused  *obs.Counter   // server.admit.sig_reused
	tracer     *obs.Tracer
}

func newNodeObs(reg *obs.Registry) nodeObs {
	if reg == nil {
		return nodeObs{}
	}
	return nodeObs{
		fenceWaitNs: reg.Histogram("server.fence.wait_ns"),
		overlapWon:  reg.Counter("server.fence.overlap_won"),
		overlapLost: reg.Counter("server.fence.overlap_lost"),
		inflight:    reg.Gauge("server.pipeline.inflight"),
		stackWaits:  reg.Counter("server.fence.stack_waits"),
		validateNs:  reg.Histogram("server.validate_ns"),
		groups:      reg.Histogram("server.validate.conflict_groups"),
		largest:     reg.Histogram("server.validate.largest_group"),
		sigTasks:    reg.Counter("server.admit.sig_tasks"),
		sigDedup:    reg.Counter("server.admit.sig_dedup_hits"),
		sigReused:   reg.Counter("server.admit.sig_reused"),
		tracer:      reg.Tracer(),
	}
}

// waitFence consults the commit fence with a validation's footprints
// and scores the overlap: a validation that proceeded concurrently with
// the in-flight appliers won the overlap, one whose footprint forced it
// to wait for the seal lost it. Returns the time spent at the fence.
func (n *Node) waitFence(fps []txn.Footprint) time.Duration {
	t0 := time.Now()
	inflight, blocked := n.fence.WaitKeysReport(fps)
	d := time.Since(t0)
	if inflight {
		if blocked {
			n.ob.overlapLost.Inc()
		} else {
			n.ob.overlapWon.Inc()
		}
		n.ob.fenceWaitNs.ObserveDuration(d)
	}
	return d
}

// batchIDs collects transaction IDs for a tracer batch call; returns
// nil (allocating nothing) when no tracer is attached.
func (n *Node) batchIDs(batch []*txn.Transaction) []string {
	if n.ob.tracer == nil || len(batch) == 0 {
		return nil
	}
	ids := make([]string, len(batch))
	for i, t := range batch {
		ids[i] = t.ID
	}
	return ids
}

// Obs returns the node's observability registry (nil when the node
// runs the no-op build). The consensus engine wires each node's
// mempool and stage tracer to the same registry.
func (n *Node) Obs() *obs.Registry { return n.cfg.Obs }

// observeValidation records one block validation's shape: the
// conflict-group fan-out the scheduler saw and the wall latency,
// attributed per member transaction as the validate stage.
func (n *Node) observeValidation(batch []*txn.Transaction, res *parallel.Result, d time.Duration) {
	n.ob.validateNs.ObserveDuration(d)
	n.ob.groups.Observe(int64(res.Groups))
	n.ob.largest.Observe(int64(res.Largest))
	if n.ob.tracer != nil {
		n.ob.tracer.ObserveEach(n.batchIDs(batch), obs.StageValidate, d)
	}
}
