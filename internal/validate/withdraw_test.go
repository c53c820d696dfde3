package validate

import (
	"errors"
	"fmt"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// withdrawWorld sets up a committed RFQ with two escrowed bids.
func withdrawWorld(t *testing.T) (*world, *txn.Transaction, []*txn.Transaction, []*keys.KeyPair) {
	t.Helper()
	w := newWorld(t)
	rfq := w.request("cnc")
	w.mustCommit(rfq)
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	bid1 := w.bid(b1, rfq.ID, "cnc")
	w.mustCommit(bid1)
	bid2 := w.bid(b2, rfq.ID, "cnc")
	w.mustCommit(bid2)
	return w, rfq, []*txn.Transaction{bid1, bid2}, []*keys.KeyPair{b1, b2}
}

func TestWithdrawBidHappyPath(t *testing.T) {
	w, rfq, bids, bidders := withdrawWorld(t)
	wd, err := newWithdrawBid(w.escrow.PublicBase58(), bidders[0].PublicBase58(), bids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(wd, w.escrow, bidders[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(wd); err != nil {
		t.Fatalf("withdraw: %v", err)
	}
	if err := commitOne(w.state, wd); err != nil {
		t.Fatal(err)
	}
	// The bidder has the backing asset again.
	bidTx, _ := w.state.GetTx(bids[0].ID)
	if w.state.Balance(bidders[0].PublicBase58(), bidTx.AssetID()) != 1 {
		t.Error("bidder should have the asset back")
	}
	// Withdrawn bids no longer count as locked.
	if locked := w.state.LockedBidsForRFQ(rfq.ID); len(locked) != 1 {
		t.Fatalf("locked = %d, want 1", len(locked))
	}
	// ACCEPT_BID composes: only the remaining bid is spendable.
	acc := w.accept(rfq, bids[1])
	if err := w.validate(acc); err != nil {
		t.Fatalf("accept after withdrawal: %v", err)
	}
}

func TestWithdrawBidAuthorization(t *testing.T) {
	w, _, bids, _ := withdrawWorld(t)
	eve := keys.MustGenerate()
	// Eve builds a withdrawal routing the shares to herself.
	wd, err := newWithdrawBid(w.escrow.PublicBase58(), eve.PublicBase58(), bids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(wd, w.escrow, eve); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(wd); err == nil {
		t.Fatal("withdrawal to a non-bidder should fail")
	}
}

func TestWithdrawBidAfterAcceptRejected(t *testing.T) {
	w, rfq, bids, bidders := withdrawWorld(t)
	acc := w.accept(rfq, bids[0], bids[1])
	w.mustCommit(acc)
	wd, err := newWithdrawBid(w.escrow.PublicBase58(), bidders[1].PublicBase58(), bids[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(wd, w.escrow, bidders[1]); err != nil {
		t.Fatal(err)
	}
	err = w.validate(wd)
	if err == nil {
		t.Fatal("withdrawal after settlement should fail")
	}
	// Either WITHDRAW.5 fires or the double-spend check catches the
	// already-spent escrow output — both are correct rejections.
	var ds *txn.DoubleSpendError
	var ve *txn.ValidationError
	if !errors.As(err, &ds) && !errors.As(err, &ve) {
		t.Errorf("unexpected error type: %v", err)
	}
}

func TestWithdrawBidPartialAmountRejected(t *testing.T) {
	w, _, bids, bidders := withdrawWorld(t)
	wd, err := newWithdrawBid(w.escrow.PublicBase58(), bidders[0].PublicBase58(), bids[0])
	if err != nil {
		t.Fatal(err)
	}
	wd.Outputs[0].Amount = 2 // bid escrowed 1 share
	if err := txn.Sign(wd, w.escrow, bidders[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(wd); err == nil {
		t.Fatal("withdrawal of the wrong amount should fail")
	}
}

func TestWithdrawBidMustSpendABid(t *testing.T) {
	w, _, _, bidders := withdrawWorld(t)
	// Target a CREATE output instead of a BID output.
	asset := w.create(bidders[0], 1, "cnc")
	w.mustCommit(asset)
	// Hand-build a withdrawal spending the CREATE (escrow never owned it).
	wd := &txn.Transaction{
		Operation: OpWithdrawBid,
		Asset:     &txn.Asset{ID: asset.ID},
		Inputs: []*txn.Input{{
			Fulfills:     &txn.OutputRef{TxID: asset.ID, Index: 0},
			OwnersBefore: []string{w.escrow.PublicBase58(), bidders[0].PublicBase58()},
		}},
		Outputs: []*txn.Output{{PublicKeys: []string{bidders[0].PublicBase58()}, Amount: 1}},
		Refs:    []string{asset.ID},
		Version: txn.Version,
	}
	if err := txn.Sign(wd, w.escrow, bidders[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(wd); err == nil {
		t.Fatal("withdrawal of a non-bid output should fail")
	}
}

func TestWithdrawBidSchemaRegistered(t *testing.T) {
	w, _, bids, bidders := withdrawWorld(t)
	wd, err := newWithdrawBid(w.escrow.PublicBase58(), bidders[0].PublicBase58(), bids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(wd, w.escrow, bidders[0]); err != nil {
		t.Fatal(err)
	}
	// The embedded schema registry knows the extension type too.
	if err := w.schemas().ValidateTx(wd); err != nil {
		t.Fatalf("schema validation: %v", err)
	}
}

// newWithdrawBid builds the withdrawal transaction: the escrow-held
// bid output returns to the bidder, co-signed by escrow and bidder.
func newWithdrawBid(escrowPub, bidderPub string, bid *txn.Transaction) (*txn.Transaction, error) {
	if len(bid.Outputs) == 0 {
		return nil, fmt.Errorf("validate: bid %s has no outputs", short(bid.ID))
	}
	out := bid.Outputs[0]
	return &txn.Transaction{
		Operation: OpWithdrawBid,
		Asset:     &txn.Asset{ID: bid.AssetID()},
		Inputs: []*txn.Input{{
			Fulfills:     &txn.OutputRef{TxID: bid.ID, Index: 0},
			OwnersBefore: []string{escrowPub, bidderPub},
		}},
		Outputs: []*txn.Output{{
			PublicKeys: []string{bidderPub},
			Amount:     out.Amount,
			PrevOwners: []string{escrowPub},
		}},
		Refs:    []string{bid.ID},
		Version: txn.Version,
	}, nil
}
