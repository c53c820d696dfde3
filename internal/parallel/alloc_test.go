package parallel

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestFootprintOfAllocationCeiling: the footprint is the transaction's
// own (txn.Transaction.FootprintKeys), derived once however many times
// it is asked for — here by the warm-up call — so a warm transaction's
// footprint costs nothing.
func TestFootprintOfAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, transfer4, create1k := workload.BenchmarkShapes()
	for _, c := range []struct {
		name string
		tx   *txn.Transaction
	}{{"transfer4", transfer4}, {"create1k", create1k}} {
		if got := testing.AllocsPerRun(200, func() { FootprintOf(c.tx) }); got != 0 {
			t.Errorf("FootprintOf(%s): %v allocations on a warm transaction, want 0", c.name, got)
		}
	}
}

// auctionFootprints is one 64-transaction block of the marketplace
// mix: REQUESTs, their bid-backing CREATEs, BIDs and ACCEPT_BIDs.
func auctionFootprints() []Footprint {
	gen := workload.NewGenerator(3, keys.DeterministicKeyPair(97))
	var fps []Footprint
	for _, g := range gen.Groups(workload.Mix{Creates: 30, Bids: 30, Requests: 3, Accepts: 3}, 0) {
		for _, tx := range append(append(append([]*txn.Transaction{g.Request}, g.Creates...), g.Bids...), g.Accept) {
			fps = append(fps, FootprintOf(tx))
		}
	}
	return fps[:64]
}

// TestGroupFootprintsAllocationCeiling: the key table and the
// union-find are pooled scratch, so a call allocates what it returns
// and nothing else — the members' backing array and the groups over it.
func TestGroupFootprintsAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fps := auctionFootprints()
	if got := testing.AllocsPerRun(200, func() { GroupFootprints(fps) }); got > 2 {
		t.Errorf("GroupFootprints of %d footprints: %v allocations, ceiling 2 (its result)", len(fps), got)
	}
}

var (
	sinkFootprint Footprint
	sinkGroups    [][]int
)

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

// BenchmarkGroupFootprints groups one 64-transaction marketplace block,
// what every validator's block plan and the mempool's packer do.
func BenchmarkGroupFootprints(b *testing.B) {
	fps := auctionFootprints()
	b.ReportAllocs()
	for b.Loop() {
		sinkGroups = GroupFootprints(fps)
	}
}
