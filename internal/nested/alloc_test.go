package nested

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// marketBidders is the marketplace benchmark's auction width: one
// ACCEPT_BID parent, ten children.
const marketBidders = 10

// settledAuction commits a ten-bid auction's ACCEPT_BID and returns the
// auction with the children its seal logged, signed and none of them
// committed yet — where a validator stands when the parent's join has
// run — each document already built, as admission leaves it.
func settledAuction(tb testing.TB) (*auction, []*txn.Transaction) {
	tb.Helper()
	a := newAuction(tb, marketBidders)
	if err := commitOne(a.state, a.accept); err != nil {
		tb.Fatal(err)
	}
	var children []*txn.Transaction
	a.engine(&children).Submit(a.accept.ID)
	for _, c := range children {
		c.SharedDoc()
	}
	return a, children
}

// plainTransfers commits n CREATEs to a's state and returns a signed
// one-input TRANSFER of each, documents built, none committed: the
// shape of a child that no recovery record lists.
func plainTransfers(tb testing.TB, a *auction, n int) []*txn.Transaction {
	tb.Helper()
	owner := keys.MustGenerate()
	out := make([]*txn.Transaction, n)
	for i := range out {
		seq++
		c := txn.NewCreate(owner.PublicBase58(), map[string]any{"seq": seq}, 1, nil)
		if err := txn.Sign(c, owner); err != nil {
			tb.Fatal(err)
		}
		if err := commitOne(a.state, c); err != nil {
			tb.Fatal(err)
		}
		tr := txn.NewTransfer(c.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: c.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{a.requester.PublicBase58()}, Amount: 1, PrevOwners: []string{owner.PublicBase58()}}}, nil)
		if err := txn.Sign(tr, owner); err != nil {
			tb.Fatal(err)
		}
		tr.SharedDoc()
		out[i] = tr
	}
	return out
}

// TestChildCommittedAllocations pins what the nested bookkeeping adds
// to the seal of a child's block, on every validator for every child:
// the record is read in place, and the count is its replacement (the
// pending and done lists rebuilt, one done entry) and the parent's
// children field — never a copy of the stored record. It is measured
// against a block holding a one-input TRANSFER of a plain CREATE's
// output, which the seal looks up once and leaves.
func TestChildCommittedAllocations(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	a, children := settledAuction(t)
	plain := plainTransfers(t, a, len(children))
	perBlock := func(txs []*txn.Transaction) float64 {
		next := 0
		// AllocsPerRun calls once to warm up, then runs times: one block each.
		return testing.AllocsPerRun(len(txs)-1, func() {
			if err := commitOne(a.state, txs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	base := perBlock(plain)
	got := perBlock(children)
	const ceiling = 28 // 25 to 26 on go1.24, linux/amd64
	if got-base > ceiling {
		t.Errorf("a child's block: %v allocations, a plain transfer's %v: the bookkeeping costs %v, ceiling %d", got, base, got-base, ceiling)
	}
}

// BenchmarkChildCommitted is what every validator pays to commit one
// child of a ten-bid auction: the child's block, with the bookkeeping
// its seal writes. Each child commits once, so every tenth iteration
// sets up a fresh auction off the clock.
func BenchmarkChildCommitted(b *testing.B) {
	var a *auction
	var children []*txn.Transaction
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(children) == 0 {
			b.StopTimer()
			a, children = settledAuction(b)
			b.StartTimer()
		}
		if err := commitOne(a.state, children[0]); err != nil {
			b.Fatal(err)
		}
		children = children[1:]
	}
}
