package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one declared metric. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names and
// units (bench_test.go holds the two equal), every workload emits every
// one of them, and a layer a workload does not use reports 0.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_tps", "1/s", "higher"},
	{"commit_p50_ms", "ms", "lower"},
	{"query_p50_us", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"alloc_kb_per_tx", "KB", "lower"},
}

var perLayer = []metricDef{
	// driver: the load generator's own cost and the window's shape.
	{"driver.gen_s", "s", "lower"},
	{"driver.commit_p99_ms", "ms", "lower"},
	{"driver.commit_samples", "count", "higher"},
	{"driver.epoch_tps_iqr_pct", "%", "lower"},
	{"driver.unattributed_share", "share", "lower"},
	{"driver.host_speed", "ratio", "higher"},
	{"driver.raw_throughput_tps", "1/s", "higher"},

	// server: outside spans around CheckTxBatch / ValidateBlock /
	// CommitStart→join, fence counts, the per-transaction probe.
	{"server.admit_us_per_tx", "us", "lower"},
	{"server.validate_us_per_tx", "us", "lower"},
	{"server.commit_us_per_tx", "us", "lower"},
	{"server.join_wait_share", "share", "lower"},
	{"server.open_s", "s", "lower"},
	{"server.preload_s", "s", "lower"},
	{"server.sig_dedup_ratio", "ratio", "higher"},
	{"server.fence_wait_ms_per_block", "ms", "lower"},
	{"server.fence_apply_stalls", "count", "lower"},
	{"server.fence_stack_waits", "count", "lower"},
	{"server.validate_tx_us", "us", "lower"},

	{"txn.decode_us_per_tx", "us", "lower"},
	{"txn.canonical_us_per_tx", "us", "lower"},
	{"txn.input_bytes_per_tx", "B", "lower"},
	{"txn.canonical_cache_hit_ratio", "ratio", "higher"},

	{"keys.verify_us", "us", "lower"},
	{"keys.verify_batch_us_per_tx", "us", "lower"},
	{"keys.sig_dedup_ratio", "ratio", "higher"},

	{"schema.validate_us_per_tx", "us", "lower"},

	{"parallel.plan_us_per_tx", "us", "lower"},
	{"parallel.groups_per_block", "count", "higher"},
	{"parallel.largest_group", "count", "lower"},

	{"mempool.admit_us_per_tx", "us", "lower"},
	{"mempool.pack_us_per_block", "us", "lower"},
	{"mempool.sweep_us_per_block", "us", "lower"},
	{"mempool.verdict_reuse_ratio", "ratio", "higher"},
	{"mempool.screen_rejects", "count", "lower"},

	{"consensus.blocks", "count", "lower"},
	{"consensus.txs_per_block", "count", "higher"},
	{"consensus.msgs_per_tx", "count", "lower"},
	{"consensus.sim_s", "s", "lower"},

	{"nested.children_per_accept", "count", "lower"},
	{"nested.child_commit_p50_ms", "ms", "lower"},

	{"ledger.stage_us_per_tx", "us", "lower"},
	{"ledger.seal_us_per_tx", "us", "lower"},
	{"ledger.plan_us_per_block", "us", "lower"},
	{"ledger.apply_utilization", "ratio", "higher"},
	{"ledger.seal_stalls", "count", "lower"},
	{"ledger.skipped", "count", "lower"},
	{"ledger.fingerprint_ms", "ms", "lower"},

	{"storage.fsync_p50_us", "us", "lower"},
	{"storage.fsync_p99_us", "us", "lower"},
	{"storage.wal_groups_per_ktx", "count", "lower"},
	{"storage.wal_bytes_per_tx", "B", "lower"},
	{"storage.disk_bytes_per_tx", "B", "lower"},
	{"storage.reopen_s", "s", "lower"},
	{"storage.compact_s", "s", "lower"},
	{"storage.mvcc_pruned_versions", "count", "higher"},

	{"docstore.put_us", "us", "lower"},
	{"docstore.get_us", "us", "lower"},
	{"docstore.find_point_us", "us", "lower"},
	{"docstore.find_range_us", "us", "lower"},
	{"docstore.plan_cache_hit_ratio", "ratio", "higher"},
	{"docstore.index_probes_per_query", "count", "lower"},
	{"docstore.full_scans", "count", "lower"},

	{"query.holder_of_us", "us", "lower"},
	{"query.asset_provenance_us", "us", "lower"},
	{"query.holdings_in_band_us", "us", "lower"},
	{"query.bids_for_request_us", "us", "lower"},
	{"query.recent_open_requests_us", "us", "lower"},
	{"query.bids_in_price_band_us", "us", "lower"},
	{"query.auction_outcome_us", "us", "lower"},
	{"query.p99_us", "us", "lower"},
	{"query.samples", "count", "higher"},

	{"shard.route_us_per_tx", "us", "lower"},
	{"shard.local_submit_us_per_tx", "us", "lower"},
	{"shard.drain_us_per_tx", "us", "lower"},
	{"shard.2pc_ms_per_tx", "ms", "lower"},
	{"shard.2pc_hold_us", "us", "lower"},
	{"shard.2pc_prepare_us", "us", "lower"},
	{"shard.2pc_decide_us", "us", "lower"},
	{"shard.2pc_apply_us", "us", "lower"},
	{"shard.2pc_aborted", "count", "lower"},
	{"shard.twopc_docs", "count", "lower"},

	{"runtime.gc_cpu_share", "share", "lower"},
	{"runtime.gc_cycles", "count", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},
}

// metrics holds one run's values by declared name.
type metrics map[string]float64

// value is the contract's shape for one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders the values of defs. Every declared metric must be
// present and finite: a missing name is a bug in the workload, not a
// zero.
func (m metrics) emit(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// zeroFill gives every declared per-layer metric the workload did not
// touch an explicit 0.
func (m metrics) zeroFill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
