package parallel

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// auctionFootprints is one 64-transaction block of the marketplace
// mix: REQUESTs, their bid-backing CREATEs, BIDs and ACCEPT_BIDs.
func auctionFootprints() []txn.Footprint {
	gen := workload.NewGenerator(3, keys.DeterministicKeyPair(97))
	var fps []txn.Footprint
	for _, g := range gen.Groups(workload.Mix{Creates: 30, Bids: 30, Requests: 3, Accepts: 3}, 0) {
		for _, tx := range append(append(append([]*txn.Transaction{g.Request}, g.Creates...), g.Bids...), g.Accept) {
			fps = append(fps, tx.Footprint())
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

var sinkGroups [][]int

// BenchmarkGroupFootprints groups one 64-transaction marketplace block,
// what every validator's block plan and the mempool's packer do.
func BenchmarkGroupFootprints(b *testing.B) {
	fps := auctionFootprints()
	b.ReportAllocs()
	for b.Loop() {
		sinkGroups = GroupFootprints(fps)
	}
}
