package nested

import (
	"testing"

	"smartchaindb/internal/txn"
)

// marketBidders is the marketplace benchmark's auction width: one
// ACCEPT_BID parent, ten children.
const marketBidders = 10

// settledAuction commits an auction's ACCEPT_BID and all its children
// to the auction's state and returns the engine with the children, none
// of them yet through OnChildCommitted — where a validator stands when
// the block holding them has sealed.
func settledAuction(tb testing.TB) (*Engine, []*txn.Transaction) {
	tb.Helper()
	a := newAuction(tb, marketBidders)
	if err := commitOne(a.state, a.accept); err != nil {
		tb.Fatal(err)
	}
	var children []*txn.Transaction
	eng := NewEngine(a.state, a.escrow, func(c *txn.Transaction) { children = append(children, c) })
	if err := eng.OnParentCommitted(a.accept, a.requester.PublicBase58()); err != nil {
		tb.Fatal(err)
	}
	eng.Drain()
	for _, c := range children {
		if err := commitOne(a.state, c); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, children
}

// TestChildCommittedAllocations pins what OnChildCommitted — run on
// every validator for every committed child — allocates: it reads the
// recovery record in place, so the count is the record update, the
// decoded record and the parent's children vector, and never a copy of
// the stored record.
func TestChildCommittedAllocations(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	eng, children := settledAuction(t)
	next := 0
	// AllocsPerRun calls once to warm up, then runs times: one child each.
	got := testing.AllocsPerRun(len(children)-1, func() {
		eng.OnChildCommitted(children[next])
		next++
	})
	const ceiling = 40
	if got > ceiling {
		t.Errorf("OnChildCommitted: %v allocations per child, ceiling %d", got, ceiling)
	}
}

// BenchmarkChildCommitted is what every validator pays per committed
// child of a ten-bid auction. Each child is marked once, so every
// tenth iteration sets up a fresh auction off the clock.
func BenchmarkChildCommitted(b *testing.B) {
	var eng *Engine
	var children []*txn.Transaction
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(children) == 0 {
			b.StopTimer()
			eng, children = settledAuction(b)
			b.StartTimer()
		}
		eng.OnChildCommitted(children[0])
		children = children[1:]
	}
}
