package ledger

import (
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// ledgerObs caches the commit path's metric handles so the per-block
// cost is handle dereferences, never registry lookups. The zero value
// (all-nil handles) is the no-op build — every obs method is nil-safe.
type ledgerObs struct {
	blocks  *obs.Counter // ledger.commit.blocks
	txs     *obs.Counter // ledger.commit.txs
	skipped *obs.Counter // ledger.commit.skipped

	// Worker utilization of the parallel apply phase: busy is the sum
	// of per-group applier time, wall the phase's elapsed time, so
	// busy/(wall*workers) is the utilization ratio.
	applyBusyNs *obs.Counter // ledger.commit.apply_busy_ns
	applyWallNs *obs.Counter // ledger.commit.apply_wall_ns

	planNs   *obs.Histogram // ledger.commit.plan_ns
	applyNs  *obs.Histogram // ledger.commit.apply_ns
	sealNs   *obs.Histogram // ledger.commit.seal_ns
	totalNs  *obs.Histogram // ledger.commit.total_ns
	batchTxs *obs.Histogram // ledger.commit.batch_txs

	conflictGroups *obs.Histogram // ledger.commit.conflict_groups
	largestGroup   *obs.Histogram // ledger.commit.largest_group

	height *obs.Gauge // ledger.height

	tracer *obs.Tracer
}

func newLedgerObs(reg *obs.Registry) ledgerObs {
	if reg == nil {
		return ledgerObs{}
	}
	return ledgerObs{
		blocks:         reg.Counter("ledger.commit.blocks"),
		txs:            reg.Counter("ledger.commit.txs"),
		skipped:        reg.Counter("ledger.commit.skipped"),
		applyBusyNs:    reg.Counter("ledger.commit.apply_busy_ns"),
		applyWallNs:    reg.Counter("ledger.commit.apply_wall_ns"),
		planNs:         reg.Histogram("ledger.commit.plan_ns"),
		applyNs:        reg.Histogram("ledger.commit.apply_ns"),
		sealNs:         reg.Histogram("ledger.commit.seal_ns"),
		totalNs:        reg.Histogram("ledger.commit.total_ns"),
		batchTxs:       reg.Histogram("ledger.commit.batch_txs"),
		conflictGroups: reg.Histogram("ledger.commit.conflict_groups"),
		largestGroup:   reg.Histogram("ledger.commit.largest_group"),
		height:         reg.Gauge("ledger.height"),
		tracer:         reg.Tracer(),
	}
}

// SetObs attaches an observability registry: the ledger's own commit
// metrics plus, cascaded, the docstore's planner counters and the
// storage backend's WAL/MVCC/compaction metrics. A nil registry
// restores the no-op build. Not safe concurrently with commits.
func (s *State) SetObs(reg *obs.Registry) {
	s.store.SetObs(reg)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.ob = newLedgerObs(reg)
}

// ObsRegistry returns the registry attached by SetObs (nil for the
// no-op build). Layers built over the state — the query engine — pick
// their registry up here instead of being wired separately.
func (s *State) ObsRegistry() *obs.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reg
}

// txIDs projects a batch onto its transaction IDs for the tracer.
func txIDs(batch []*txn.Transaction) []string {
	ids := make([]string, len(batch))
	for i, t := range batch {
		ids[i] = t.ID
	}
	return ids
}

// recordBlock feeds one block commit's shape into the histograms and
// counters. The zero-value receiver makes every call a no-op chain of
// nil-receiver checks. Called with the commit lock held.
func (o *ledgerObs) recordBlock(height int64, planD, applyD, sealD, totalD time.Duration, batchN, committedN, skippedN int) {
	o.blocks.Inc()
	o.txs.Add(uint64(committedN))
	o.skipped.Add(uint64(skippedN))
	o.planNs.ObserveDuration(planD)
	o.applyNs.ObserveDuration(applyD)
	o.sealNs.ObserveDuration(sealD)
	o.totalNs.ObserveDuration(totalD)
	o.batchTxs.Observe(int64(batchN))
	o.height.Set(height)
}

// sealTraces completes the block members' traces: committed ids are
// height-stamped into the completed ring, skipped ones leave the
// pipeline uncommitted. Called with the commit lock held.
func (o *ledgerObs) sealTraces(height int64, committedIDs []string, skipped map[string]error) {
	if o.tracer == nil {
		return
	}
	o.tracer.Sealed(committedIDs, height)
	if len(skipped) > 0 {
		drop := make([]string, 0, len(skipped))
		for id := range skipped {
			drop = append(drop, id)
		}
		o.tracer.Drop(drop)
	}
}
