// Sealedbid-recovery: the §4.2.1 failure drill. A sealed-bid auction's
// ACCEPT_BID commits non-locking, and the seal of its block writes the
// recovery record naming its children; the node then "crashes" before
// submitting any of them, so no child transaction reaches the network.
// On restart, the recovery log replays the pending children and every
// escrowed bid settles — the eventual-commit guarantee of nested
// blockchain transactions.
//
//	go run ./examples/sealedbid-recovery
package main

import (
	"fmt"
	"log"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/nested"
	"smartchaindb/internal/txn"
)

func main() {
	state := ledger.NewState()
	reserved := keys.NewReservedWithDefaults(9)
	escrow := reserved.Escrow()
	requester := keys.MustGenerate()

	// Sealed bids: three suppliers lock assets into escrow.
	fmt.Println("Setting up a sealed-bid auction with 3 bids in escrow:")
	rfq := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": []any{"forging"}}, nil)
	must(txn.Sign(rfq, requester))
	commit(state, rfq)
	var bidders []*keys.KeyPair
	var bids []*txn.Transaction
	for i := 0; i < 3; i++ {
		kp := keys.MustGenerate()
		bidders = append(bidders, kp)
		asset := txn.NewCreate(kp.PublicBase58(), map[string]any{"capabilities": []any{"forging"}, "n": i}, 1, nil)
		must(txn.Sign(asset, kp))
		bid := txn.NewBid(kp.PublicBase58(), asset.ID,
			txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{kp.PublicBase58()}},
			1, escrow.PublicBase58(), rfq.ID, nil)
		must(txn.Sign(bid, kp))
		commit(state, asset, bid)
		bids = append(bids, bid)
		fmt.Printf("  bid %d escrowed (%s)\n", i+1, bid.ID[:12]+"...")
	}

	// The requester accepts bid 1. Non-locking: the parent commits
	// immediately, and its block's seal logs the children it owes.
	accept, err := txn.NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), rfq.ID, bids[0], bids[1:], nil)
	must(err)
	must(txn.Sign(accept, escrow, requester))
	commit(state, accept)
	fmt.Printf("\nACCEPT_BID committed (non-locking): %s\n", accept.ID[:12]+"...")

	// The node crashes before submitting any child. Immutability means
	// the committed parent cannot be undone, and the escrowed outputs
	// are frozen — but the recovery log sealed with the parent's block.
	rec, err := state.RecoveryFor(accept.ID)
	must(err)
	fmt.Printf("recovery log written: %d children pending\n", len(rec.Pending))
	fmt.Println("*** node crashes before submitting the children ***")
	fmt.Printf("after crash: recovery status=%s, pending=%d, committed children=%d\n",
		rec.Status, len(rec.Pending), len(rec.Done))

	// Restart: a fresh engine replays the log and submits the children;
	// each one's block marks it done in the record as it seals.
	fmt.Println("\n*** node restarts ***")
	var delivered []*txn.Transaction
	restarted := nested.NewEngine(state, escrow, func(_ txn.OutputRef, build func() *txn.Transaction) {
		delivered = append(delivered, build())
	})
	replayed := restarted.Recover()
	fmt.Printf("recovery replayed %d pending children\n", replayed)
	for _, child := range delivered {
		commit(state, child)
		fmt.Printf("  child %s (%s) committed\n", child.ID[:12]+"...", child.Operation)
	}

	rec, err = state.RecoveryFor(accept.ID)
	must(err)
	fmt.Printf("\nfinal recovery status: %s\n", rec.Status)
	fmt.Printf("requester owns winning asset: %v\n",
		state.Balance(requester.PublicBase58(), mustAsset(state, bids[0])) == 1)
	for i, kp := range bidders[1:] {
		fmt.Printf("losing bidder %d refunded:     %v\n", i+2,
			state.Balance(kp.PublicBase58(), mustAsset(state, bids[i+1])) == 1)
	}

	// Replaying recovery again is harmless: the record is COMPLETE, so
	// nothing is pending.
	if n := restarted.Recover(); n != 0 {
		log.Fatalf("second recovery re-enqueued %d children, want 0", n)
	}
	fmt.Println("second recovery pass: nothing to do (idempotent)")
}

func mustAsset(state *ledger.State, bid *txn.Transaction) string {
	t, ok := state.Tx(bid.ID)
	if !ok {
		log.Fatalf("bid %s is not committed", bid.ID)
	}
	asset, err := t.AssetID()
	if err != nil {
		log.Fatal(err)
	}
	return asset
}

// commit applies txs as one block, stopping on any it skips.
func commit(state *ledger.State, txs ...*txn.Transaction) {
	if _, skipped := state.CommitBlock(txs); len(skipped) != 0 {
		log.Fatal(skipped)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
