package server

import (
	"testing"

	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestApplyIsABlock: a standalone node's Apply commits through the
// node's block commit. Each Apply is the block at the next height, each
// nested child its own block after its parent's, and a view taken
// before an Apply reads as of the height before it.
func TestApplyIsABlock(t *testing.T) {
	n := NewNode(Config{ReservedSeed: 5})
	defer n.Close()
	gen := workload.NewGenerator(9, n.Escrow())
	grp := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3})

	apply := func(tx *txn.Transaction, blocks int64) {
		t.Helper()
		h := n.State().Height()
		before := n.State().View()
		if err := n.Apply(tx); err != nil {
			t.Fatalf("apply %s %.8s: %v", tx.Operation, tx.ID, err)
		}
		if got := n.State().Height(); got != h+blocks {
			t.Fatalf("%s: height %d after Apply, want %d", tx.Operation, got, h+blocks)
		}
		if before.IsCommitted(tx.ID) {
			t.Fatalf("%s: a view taken at height %d before Apply sees the transaction", tx.Operation, h)
		}
		if !n.State().View().IsCommitted(tx.ID) {
			t.Fatalf("%s: a view taken after Apply misses the transaction", tx.Operation)
		}
	}
	for _, tx := range append(append([]*txn.Transaction{grp.Request}, grp.Creates...), grp.Bids...) {
		apply(tx, 1)
	}
	// The parent's block, then one block per child: one TRANSFER to the
	// requester and a RETURN per losing bid.
	apply(grp.Accept, 1+int64(len(grp.Bids)))
	rec, err := n.State().RecoveryFor(grp.Accept.ID)
	if err != nil || rec.Status != ledger.RecoveryComplete || len(rec.Done) != len(grp.Bids) {
		t.Fatalf("recovery record after Apply: %+v, %v", rec, err)
	}
	// A rejected Apply commits nothing and opens no block.
	h := n.State().Height()
	if err := n.Apply(grp.Accept); err == nil {
		t.Fatal("a second Apply of the ACCEPT_BID was accepted")
	}
	if got := n.State().Height(); got != h {
		t.Fatalf("height %d after a rejected Apply, want %d", got, h)
	}
}
