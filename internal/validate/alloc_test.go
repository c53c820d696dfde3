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
// committed), ACCEPT_BID (every BID committed) and a RETURN the
// committed ACCEPT_BID owes a losing bidder.
func auctionShapes(tb testing.TB) (bid, accept, ret *conditionShape) {
	reserved := keys.NewReservedWithDefaults(1)
	escrow := reserved.Escrow()
	grp := workload.NewGenerator(1, escrow).NewAuctionGroup(0, workload.AuctionGroupSpec{})
	setup := append([]*txn.Transaction{grp.Request}, grp.Creates...)
	bid = newShape(tb, txn.OpBid, grp.Bids[0], reserved, setup)
	accept = newShape(tb, txn.OpAcceptBid, grp.Accept, reserved, setup, grp.Bids)
	if got, skipped := accept.state.CommitBlock([]*txn.Transaction{grp.Accept}); len(got) != 1 {
		tb.Fatalf("the ACCEPT_BID did not commit: %v", skipped)
	}
	// The RETURN the committed ACCEPT_BID owes its first losing bidder,
	// built and signed as the nested engine builds it.
	rec, err := accept.state.RecoveryFor(grp.Accept.ID)
	if err != nil {
		tb.Fatal(err)
	}
	var child *txn.Transaction
	for _, spec := range rec.Pending {
		if spec.Kind == ledger.ChildReturn {
			child = ledger.BuildChild(spec, escrow.PublicBase58())
			break
		}
	}
	if child == nil {
		tb.Fatal("the ACCEPT_BID owes no RETURN")
	}
	if err := txn.Sign(child, escrow); err != nil {
		tb.Fatal(err)
	}
	ret = newShape(tb, txn.OpReturn, child, reserved, setup, grp.Bids, []*txn.Transaction{grp.Accept})
	// The first ACCEPT_BID shape's state now holds the ACCEPT_BID: judge
	// it on a state of its own again.
	accept = newShape(tb, txn.OpAcceptBid, grp.Accept, reserved, setup, grp.Bids)
	return bid, accept, ret
}

// TestTransferConditionsAllocations pins what TRANSFER's condition set
// costs on a 4-input transfer: one keyed read of each spent output's
// record per condition that asks, under the key the transaction's
// spend keys already hold (10 allocations a call while each read built
// its key), and no decoded funding transaction.
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
	if got > 2 {
		t.Errorf("TRANSFER's condition set on a 4-input transfer allocates %v per call, ceiling 2", got)
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

// TestAuctionConditionsAllocations pins the auction's three condition
// sets: BID, ACCEPT_BID over ten bids (324 allocations a call while it
// decoded every locked bid and every spent bid) and the RETURN of a
// losing bid (70 while it decoded its ten-input parent ACCEPT_BID).
// Every transaction they read is read in place, and a transaction's own
// inputs under the keys its spend keys hold (10, 88 and 3 while each
// such read built its key); what remains is the docstore's planned
// finds (the locked bids, the accept that must not exist yet), one
// string the locked bids' escrow-output keys are cut from (ACCEPT_BID
// made 78 while it built one key per bid), and the BID's owner set.
func TestAuctionConditionsAllocations(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	bid, accept, ret := auctionShapes(t)
	for _, c := range []struct {
		shape   *conditionShape
		ceiling float64
	}{{bid, 5}, {accept, 70}, {ret, 2}} {
		got := testing.AllocsPerRun(100, func() {
			if err := c.shape.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s's condition set allocates %v per call, ceiling %v", c.shape.ty.Op, got, c.ceiling)
		}
	}
}

// BenchmarkAuctionConditions is the auction's three condition sets:
// the ones that read the REQUEST in the reference vector more than once
// (BID, ACCEPT_BID), and the nested child that reads its parent.
func BenchmarkAuctionConditions(b *testing.B) {
	bid, accept, ret := auctionShapes(b)
	for _, c := range []struct {
		name  string
		shape *conditionShape
	}{{"bid", bid}, {"accept", accept}, {"return", ret}} {
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
