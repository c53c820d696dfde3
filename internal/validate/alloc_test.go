package validate

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/workload"
)

// conditionShape is one condition set's input: a transaction to judge
// and the committed state it is judged against, signatures verified
// once (the verdict is memoized, as it is after admission).
type conditionShape struct {
	ty       *txtype.Type
	t        *txn.Transaction
	state    *ledger.State
	reserved *keys.Reserved
}

// run judges the transaction once, with a fresh Context over a pinned
// view: what CheckTx does per transaction.
func (c *conditionShape) run() error {
	return c.ty.Validate(&txtype.Context{State: c.state.View(), Reserved: c.reserved}, c.t)
}

func newShape(tb testing.TB, op string, t *txn.Transaction, reserved *keys.Reserved, committed ...[]*txn.Transaction) *conditionShape {
	tb.Helper()
	s := ledger.NewState()
	tb.Cleanup(func() { s.Close() })
	for _, block := range committed {
		if got, skipped := s.CommitBlock(block); len(got) != len(block) {
			tb.Fatalf("committed %d of %d: %v", len(got), len(block), skipped)
		}
	}
	ty, _ := NewRegistry().Type(op)
	c := &conditionShape{ty: ty, t: t, state: s, reserved: reserved}
	if err := c.run(); err != nil {
		tb.Fatalf("%s: %v", op, err)
	}
	return c
}

// transferShape is the transfer_fanin workload's transaction: a
// 4-input TRANSFER of one CREATE's outputs (workload.BenchmarkShapes).
func transferShape(tb testing.TB) *conditionShape {
	funding, transfer4, _ := workload.BenchmarkShapes()
	return newShape(tb, txn.OpTransfer, transfer4, keys.NewReservedWithDefaults(1), []*txn.Transaction{funding})
}

// auctionShapes are one ten-bid auction's BID (its CREATE and REQUEST
// committed) and ACCEPT_BID (every BID committed).
func auctionShapes(tb testing.TB) (bid, accept *conditionShape) {
	reserved := keys.NewReservedWithDefaults(1)
	grp := workload.NewGenerator(1, reserved.Escrow()).NewAuctionGroup(0, workload.AuctionGroupSpec{})
	setup := append([]*txn.Transaction{grp.Request}, grp.Creates...)
	bid = newShape(tb, txn.OpBid, grp.Bids[0], reserved, setup)
	accept = newShape(tb, txn.OpAcceptBid, grp.Accept, reserved, setup, grp.Bids)
	return bid, accept
}

// TestTransferConditionsAllocations pins what TRANSFER's condition set
// costs on a 4-input transfer: one keyed read of each spent output's
// record per condition that asks, each costing the key it looks up,
// and no decoded funding transaction.
func TestTransferConditionsAllocations(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	c := transferShape(t)
	got := testing.AllocsPerRun(200, func() {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 12 {
		t.Errorf("TRANSFER's condition set on a 4-input transfer allocates %v per call, ceiling 12", got)
	}
}

func BenchmarkTransferConditions(b *testing.B) {
	c := transferShape(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := c.run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuctionConditions is the auction's two condition sets: the
// ones that read the REQUEST in the reference vector more than once.
func BenchmarkAuctionConditions(b *testing.B) {
	bid, accept := auctionShapes(b)
	for _, c := range []struct {
		name  string
		shape *conditionShape
	}{{"bid", bid}, {"accept", accept}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := c.shape.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
