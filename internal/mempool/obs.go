package mempool

import "smartchaindb/internal/obs"

// poolObs caches the admission path's metric handles. The zero value
// (all-nil handles) is the no-op build — every obs method is nil-safe —
// so instrumented code never branches on "is observability on"; only
// the tracer's batch-ID slices are guarded, to keep the no-op path
// allocation-free.
type poolObs struct {
	screenDup     *obs.Counter   // mempool.screen_reject_duplicate
	screenClaimed *obs.Counter   // mempool.screen_reject_spend_claimed
	admitted      *obs.Counter   // mempool.admitted
	rejected      *obs.Counter   // mempool.rejected
	reuseHits     *obs.Counter   // mempool.verdict_reuse_hits
	reuseMisses   *obs.Counter   // mempool.verdict_reuse_misses
	batchSize     *obs.Histogram // mempool.admit_batch_size
	screenNs      *obs.Histogram // mempool.screen_ns
	verifyNs      *obs.Histogram // mempool.verify_ns
	packNs        *obs.Histogram // mempool.pack_ns
	live          *obs.Gauge     // mempool.live
	tracer        *obs.Tracer
}

func newPoolObs(reg *obs.Registry) poolObs {
	if reg == nil {
		return poolObs{}
	}
	return poolObs{
		screenDup:     reg.Counter("mempool.screen_reject_duplicate"),
		screenClaimed: reg.Counter("mempool.screen_reject_spend_claimed"),
		admitted:      reg.Counter("mempool.admitted"),
		rejected:      reg.Counter("mempool.rejected"),
		reuseHits:     reg.Counter("mempool.verdict_reuse_hits"),
		reuseMisses:   reg.Counter("mempool.verdict_reuse_misses"),
		batchSize:     reg.Histogram("mempool.admit_batch_size"),
		screenNs:      reg.Histogram("mempool.screen_ns"),
		verifyNs:      reg.Histogram("mempool.verify_ns"),
		packNs:        reg.Histogram("mempool.pack_ns"),
		live:          reg.Gauge("mempool.live"),
		tracer:        reg.Tracer(),
	}
}

// hashesOf collects transaction hashes for a tracer batch call; returns
// nil (allocating nothing) when no tracer is attached.
func (o *poolObs) hashesOf(txs []Tx) []string {
	if o.tracer == nil || len(txs) == 0 {
		return nil
	}
	out := make([]string, len(txs))
	for i, tx := range txs {
		out[i] = tx.Hash()
	}
	return out
}
