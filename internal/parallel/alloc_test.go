package parallel

import (
	"testing"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestFootprintOfAllocationCeiling: a sized slice per side that has keys
// and one string per key built here — "tx:"+id, a read key per input,
// the asset read. The spend keys are the transaction's own
// (txn.Transaction.SpendKeys), built once however many times its
// footprint is derived: here by the warm-up call.
func TestFootprintOfAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, transfer4, create1k := workload.BenchmarkShapes()
	for _, c := range []struct {
		name    string
		tx      *txn.Transaction
		ceiling float64
	}{{"transfer4", transfer4, 2 + 1 + 4 + 1}, {"create1k", create1k, 1 + 1}} {
		if got := testing.AllocsPerRun(200, func() { FootprintOf(c.tx) }); got > c.ceiling {
			t.Errorf("FootprintOf(%s): %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

var sinkFootprint Footprint

func BenchmarkFootprintOf(b *testing.B) {
	_, transfer4, create1k := workload.BenchmarkShapes()
	for _, c := range []struct {
		name string
		tx   *txn.Transaction
	}{{"transfer4", transfer4}, {"create1k", create1k}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkFootprint = FootprintOf(c.tx)
			}
		})
	}
}
