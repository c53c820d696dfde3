package validate

import (
	"errors"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// world wires a chain state, reserved accounts, and the native type
// registry into a reusable test fixture.
type world struct {
	t         *testing.T
	state     *ledger.State
	reserved  *keys.Reserved
	registry  *txtype.Registry
	escrow    *keys.KeyPair
	requester *keys.KeyPair
	seq       int
}

// commitOne commits tx as its own block and returns the error the
// stage skipped it with, if any.
func commitOne(s *ledger.State, tx *txn.Transaction) error {
	_, skipped := s.CommitBlock([]*txn.Transaction{tx})
	return skipped[tx.ID]
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{
		t:         t,
		state:     ledger.NewState(),
		reserved:  keys.NewReservedWithDefaults(1),
		registry:  NewRegistry(),
		requester: keys.MustGenerate(),
	}
	w.escrow = w.reserved.Escrow()
	return w
}

func (w *world) ctx() *txtype.Context {
	return &txtype.Context{State: w.state, Reserved: w.reserved, Batch: txtype.NewBatch(nil)}
}

func (w *world) schemas() *schema.Registry { return schema.MustNewRegistry() }

func (w *world) validate(t *txn.Transaction) error {
	return w.registry.Validate(w.ctx(), t)
}

func (w *world) mustCommit(tx *txn.Transaction) {
	w.t.Helper()
	if err := w.validate(tx); err != nil {
		w.t.Fatalf("validate before commit: %v", err)
	}
	if err := commitOne(w.state, tx); err != nil {
		w.t.Fatal(err)
	}
}

func (w *world) create(owner *keys.KeyPair, shares uint64, caps ...any) *txn.Transaction {
	w.t.Helper()
	w.seq++
	tx := txn.NewCreate(owner.PublicBase58(), map[string]any{"capabilities": caps, "seq": w.seq}, shares, nil)
	if err := txn.Sign(tx, owner); err != nil {
		w.t.Fatal(err)
	}
	return tx
}

func (w *world) request(caps ...any) *txn.Transaction {
	w.t.Helper()
	w.seq++
	req := txn.NewRequest(w.requester.PublicBase58(), map[string]any{"capabilities": caps, "seq": w.seq}, nil)
	if err := txn.Sign(req, w.requester); err != nil {
		w.t.Fatal(err)
	}
	return req
}

func (w *world) bid(bidder *keys.KeyPair, rfqID string, caps ...any) *txn.Transaction {
	w.t.Helper()
	asset := w.create(bidder, 1, caps...)
	w.mustCommit(asset)
	bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		1, w.escrow.PublicBase58(), rfqID, nil)
	if err := txn.Sign(bid, bidder); err != nil {
		w.t.Fatal(err)
	}
	return bid
}

func (w *world) accept(rfq *txn.Transaction, win *txn.Transaction, losing ...*txn.Transaction) *txn.Transaction {
	w.t.Helper()
	acc, err := txn.NewAcceptBid(w.requester.PublicBase58(), w.escrow.PublicBase58(), rfq.ID, win, losing, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	if err := txn.Sign(acc, w.escrow, w.requester); err != nil {
		w.t.Fatal(err)
	}
	return acc
}

func TestValidCreateRequestTransfer(t *testing.T) {
	w := newWorld(t)
	alice, bob := keys.MustGenerate(), keys.MustGenerate()

	create := w.create(alice, 5, "cnc")
	if err := w.validate(create); err != nil {
		t.Fatalf("CREATE: %v", err)
	}
	w.mustCommit(create)

	req := w.request("cnc")
	if err := w.validate(req); err != nil {
		t.Fatalf("REQUEST: %v", err)
	}
	w.mustCommit(req)

	tr := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(tr, alice); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(tr); err != nil {
		t.Fatalf("TRANSFER: %v", err)
	}
}

func TestCreateConditionFailures(t *testing.T) {
	w := newWorld(t)
	alice := keys.MustGenerate()

	dup := w.create(alice, 1)
	w.mustCommit(dup)
	if err := w.validate(dup); err == nil {
		t.Error("duplicate CREATE should fail")
	}

	short := w.create(alice, 5)
	short.Outputs[0].Amount = 3
	if err := txn.Sign(short, alice); err != nil {
		t.Fatal(err)
	}
	var amt *txn.AmountError
	if err := w.validate(short); !errors.As(err, &amt) {
		t.Errorf("share mismatch should yield AmountError, got %v", err)
	}

	anchored := w.create(alice, 1)
	anchored.Inputs[0].Fulfills = &txn.OutputRef{TxID: strings.Repeat("a", 64), Index: 0}
	if err := txn.Sign(anchored, alice); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(anchored); err == nil {
		t.Error("anchored CREATE input should fail")
	}

	linked := w.create(alice, 1)
	linked.Asset.ID = strings.Repeat("b", 64)
	if err := txn.Sign(linked, alice); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(linked); err == nil {
		t.Error("CREATE with asset link should fail")
	}

	unsigned := w.create(alice, 1)
	unsigned.Inputs[0].Fulfillment = ""
	if err := w.validate(unsigned); err == nil {
		t.Error("unsigned CREATE should fail")
	}
}

func TestRequestConditionFailures(t *testing.T) {
	w := newWorld(t)

	noCaps := txn.NewRequest(w.requester.PublicBase58(), map[string]any{"capabilities": []any{}}, nil)
	if err := txn.Sign(noCaps, w.requester); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(noCaps); err == nil {
		t.Error("REQUEST with no capabilities should fail")
	}

	stranger := keys.MustGenerate()
	wrongOwner := w.request("cnc")
	wrongOwner.Outputs[0].PublicKeys = []string{stranger.PublicBase58()}
	if err := txn.Sign(wrongOwner, w.requester); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(wrongOwner); err == nil {
		t.Error("REQUEST output owned by stranger should fail")
	}
}

func TestTransferConditionFailures(t *testing.T) {
	w := newWorld(t)
	alice, bob, eve := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	create := w.create(alice, 5)
	w.mustCommit(create)
	ref := txn.OutputRef{TxID: create.ID, Index: 0}

	// Non-conserving transfer.
	leak := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: ref, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 9}}, nil)
	if err := txn.Sign(leak, alice); err != nil {
		t.Fatal(err)
	}
	var amt *txn.AmountError
	if err := w.validate(leak); !errors.As(err, &amt) {
		t.Errorf("want AmountError, got %v", err)
	}

	// Wrong asset link.
	other := w.create(alice, 5)
	w.mustCommit(other)
	wrongAsset := txn.NewTransfer(other.ID,
		[]txn.Spend{{Ref: ref, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(wrongAsset, alice); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(wrongAsset); err == nil {
		t.Error("transfer naming the wrong asset should fail")
	}

	// Stranger claiming to own the output.
	theft := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: ref, Owners: []string{eve.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{eve.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(theft, eve); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(theft); err == nil {
		t.Error("spend without owner signature should fail")
	}

	// Missing source transaction.
	ghost := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: strings.Repeat("0", 64), Index: 0}, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(ghost, alice); err != nil {
		t.Fatal(err)
	}
	var missing *txn.InputDoesNotExistError
	if err := w.validate(ghost); !errors.As(err, &missing) {
		t.Errorf("want InputDoesNotExistError, got %v", err)
	}

	// Double spend after commit.
	spend := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: ref, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(spend, alice); err != nil {
		t.Fatal(err)
	}
	w.mustCommit(spend)
	again := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: ref, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{eve.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(again, alice); err != nil {
		t.Fatal(err)
	}
	var ds *txn.DoubleSpendError
	if err := w.validate(again); !errors.As(err, &ds) {
		t.Errorf("want DoubleSpendError, got %v", err)
	}

	// Out-of-range output index.
	outOfRange := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 7}, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 5}}, nil)
	if err := txn.Sign(outOfRange, alice); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(outOfRange); err == nil {
		t.Error("out-of-range output index should fail")
	}
}

func TestIntraBlockDoubleSpendDetected(t *testing.T) {
	w := newWorld(t)
	alice, bob, eve := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	create := w.create(alice, 5)
	w.mustCommit(create)
	ref := txn.OutputRef{TxID: create.ID, Index: 0}

	mk := func(to string) *txn.Transaction {
		tr := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: ref, Owners: []string{alice.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to}, Amount: 5}}, nil)
		if err := txn.Sign(tr, alice); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first, second := mk(bob.PublicBase58()), mk(eve.PublicBase58())

	ctx := w.ctx()
	if err := w.registry.Validate(ctx, first); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Batch.Add(first); err != nil {
		t.Fatal(err)
	}
	var ds *txn.DoubleSpendError
	if err := w.registry.Validate(ctx, second); !errors.As(err, &ds) {
		t.Errorf("intra-block double spend: want DoubleSpendError, got %v", err)
	}
	// The batch itself also refuses the conflicting transaction.
	if err := ctx.Batch.Add(second); !errors.As(err, &ds) {
		t.Errorf("batch.Add: want DoubleSpendError, got %v", err)
	}
}

func TestBatchDependencyWithinBlock(t *testing.T) {
	// A transfer can spend the output of a CREATE validated in the same
	// block: dependencies resolve through the batch.
	w := newWorld(t)
	alice, bob := keys.MustGenerate(), keys.MustGenerate()
	create := w.create(alice, 2)
	ctx := w.ctx()
	if err := w.registry.Validate(ctx, create); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Batch.Add(create); err != nil {
		t.Fatal(err)
	}
	tr := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{alice.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{bob.PublicBase58()}, Amount: 2}}, nil)
	if err := txn.Sign(tr, alice); err != nil {
		t.Fatal(err)
	}
	if err := w.registry.Validate(ctx, tr); err != nil {
		t.Errorf("same-block dependency should validate: %v", err)
	}
}

func TestValidBidFlow(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc", "3d-printing")
	w.mustCommit(rfq)
	bidder := keys.MustGenerate()
	bid := w.bid(bidder, rfq.ID, "cnc", "3d-printing", "laser")
	if err := w.validate(bid); err != nil {
		t.Fatalf("BID: %v", err)
	}
}

func TestBidConditionFailures(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc", "3d-printing")
	w.mustCommit(rfq)
	bidder := keys.MustGenerate()

	// BID.7: missing capability.
	weak := w.bid(bidder, rfq.ID, "cnc")
	var insuf *txn.InsufficientCapabilitiesError
	if err := w.validate(weak); !errors.As(err, &insuf) {
		t.Errorf("want InsufficientCapabilitiesError, got %v", err)
	}

	// BID.3: reference is not a REQUEST.
	notRFQ := w.create(bidder, 1)
	w.mustCommit(notRFQ)
	badRef := w.bid(bidder, notRFQ.ID, "cnc", "3d-printing")
	if err := w.validate(badRef); err == nil {
		t.Error("BID referencing a non-REQUEST should fail")
	}

	// BID.3: REQUEST not committed.
	ghostRFQ := w.request("cnc")
	orphan := w.bid(bidder, ghostRFQ.ID, "cnc", "3d-printing")
	var missing *txn.InputDoesNotExistError
	if err := w.validate(orphan); !errors.As(err, &missing) {
		t.Errorf("want InputDoesNotExistError, got %v", err)
	}

	// BID.6: output not escrow-held.
	own := w.bid(bidder, rfq.ID, "cnc", "3d-printing")
	own.Outputs[0].PublicKeys = []string{bidder.PublicBase58()}
	if err := txn.Sign(own, bidder); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(own); err == nil {
		t.Error("BID output not under escrow should fail")
	}

	// BID.6: forged previous owner.
	stranger := keys.MustGenerate()
	forged := w.bid(bidder, rfq.ID, "cnc", "3d-printing")
	forged.Outputs[0].PrevOwners = []string{stranger.PublicBase58()}
	if err := txn.Sign(forged, bidder); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(forged); err == nil {
		t.Error("BID with forged previous owner should fail")
	}
}

func TestValidAcceptBidFlow(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc")
	w.mustCommit(rfq)
	b1, b2, b3 := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	win := w.bid(b1, rfq.ID, "cnc")
	w.mustCommit(win)
	lose1 := w.bid(b2, rfq.ID, "cnc")
	w.mustCommit(lose1)
	lose2 := w.bid(b3, rfq.ID, "cnc")
	w.mustCommit(lose2)

	acc := w.accept(rfq, win, lose1, lose2)
	if err := w.validate(acc); err != nil {
		t.Fatalf("ACCEPT_BID: %v", err)
	}
	w.mustCommit(acc)

	// ACCEPT_BID is the nested type: its commit, and no other, logs the
	// children it owes.
	for _, tx := range []*txn.Transaction{rfq, win, lose1, lose2} {
		if _, err := w.state.RecoveryFor(tx.ID); err == nil {
			t.Errorf("committing %s %.8s logged a recovery record", tx.Operation, tx.ID)
		}
	}
	rec, err := w.state.RecoveryFor(acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 3 {
		t.Fatalf("children = %d, want 3", len(rec.Pending))
	}
	// Children validate and commit.
	for _, spec := range rec.Pending {
		child := ledger.BuildChild(spec, w.escrow.PublicBase58())
		if err := txn.Sign(child, w.escrow); err != nil {
			t.Fatal(err)
		}
		if err := w.validate(child); err != nil {
			t.Fatalf("child %s: %v", spec.Kind, err)
		}
		if err := commitOne(w.state, child); err != nil {
			t.Fatal(err)
		}
	}
	// End state: requester owns the winning asset, losers are refunded.
	if w.state.Balance(w.requester.PublicBase58(), win.AssetID()) != 1 {
		t.Error("requester should own the winning asset")
	}
	if w.state.Balance(b2.PublicBase58(), lose1.AssetID()) != 1 {
		t.Error("losing bidder 2 should be refunded")
	}
	if w.state.Balance(b3.PublicBase58(), lose2.AssetID()) != 1 {
		t.Error("losing bidder 3 should be refunded")
	}
}

func TestAcceptBidConditionFailures(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc")
	w.mustCommit(rfq)
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	win := w.bid(b1, rfq.ID, "cnc")
	w.mustCommit(win)
	lose := w.bid(b2, rfq.ID, "cnc")
	w.mustCommit(lose)

	// ACCEPT_BID.1: not spending all locked bids.
	partial, err := txn.NewAcceptBid(w.requester.PublicBase58(), w.escrow.PublicBase58(), rfq.ID, win, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(partial, w.escrow, w.requester); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(partial); err == nil {
		t.Error("ACCEPT_BID ignoring a locked bid should fail")
	}

	// ACCEPT_BID.signer: accept not co-signed by the REQUEST owner.
	imposter := keys.MustGenerate()
	forged, err := txn.NewAcceptBid(imposter.PublicBase58(), w.escrow.PublicBase58(), rfq.ID, win, []*txn.Transaction{lose}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(forged, w.escrow, imposter); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(forged); err == nil {
		t.Error("ACCEPT_BID signed by an imposter should fail")
	}

	// Valid accept commits; a second accept for the same RFQ is a duplicate.
	acc := w.accept(rfq, win, lose)
	w.mustCommit(acc)
	// Re-arm: make two new bids for a *new* request to build a second accept
	// against the old request id — it must be rejected as duplicate before
	// any other condition fires.
	dup := w.accept(rfq, win, lose)
	var dupErr *txn.DuplicateTransactionError
	if err := w.validate(dup); !errors.As(err, &dupErr) {
		t.Errorf("second ACCEPT_BID: want DuplicateTransactionError, got %v", err)
	}
}

func TestAcceptBidWinnerMustBeEscrowHeldBid(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc")
	w.mustCommit(rfq)
	b1 := keys.MustGenerate()
	win := w.bid(b1, rfq.ID, "cnc")
	w.mustCommit(win)

	acc := w.accept(rfq, win)
	// Tamper: anchor the asset to the RFQ instead of the winning bid.
	acc.Asset.ID = rfq.ID
	if err := txn.Sign(acc, w.escrow, w.requester); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(acc); err == nil {
		t.Error("ACCEPT_BID anchored to a non-bid should fail")
	}
}

func TestAcceptBidOutputTampering(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc")
	w.mustCommit(rfq)
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	win := w.bid(b1, rfq.ID, "cnc")
	w.mustCommit(win)
	lose := w.bid(b2, rfq.ID, "cnc")
	w.mustCommit(lose)

	// Output routed to a non-reserved account.
	acc := w.accept(rfq, win, lose)
	acc.Outputs[1].PublicKeys = []string{w.requester.PublicBase58()}
	if err := txn.Sign(acc, w.escrow, w.requester); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(acc); err == nil {
		t.Error("ACCEPT_BID leaking an output out of escrow should fail")
	}

	// Previous-owner record replaced: RETURN would be misrouted.
	eve := keys.MustGenerate()
	acc2 := w.accept(rfq, win, lose)
	acc2.Outputs[1].PrevOwners = []string{eve.PublicBase58()}
	if err := txn.Sign(acc2, w.escrow, w.requester); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(acc2); err == nil {
		t.Error("ACCEPT_BID rerouting a return should fail")
	}

	// Children count mismatch.
	acc3 := w.accept(rfq, win, lose)
	acc3.Children = []string{strings.Repeat("a", 64)}
	if err := w.validate(acc3); err == nil {
		t.Error("ACCEPT_BID with |Ch| != |I| should fail")
	}
}

func TestReturnConditionFailures(t *testing.T) {
	w := newWorld(t)
	rfq := w.request("cnc")
	w.mustCommit(rfq)
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	win := w.bid(b1, rfq.ID, "cnc")
	w.mustCommit(win)
	lose := w.bid(b2, rfq.ID, "cnc")
	w.mustCommit(lose)
	acc := w.accept(rfq, win, lose)
	w.mustCommit(acc)

	rec, err := w.state.RecoveryFor(acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	retSpec := rec.Pending[1] // the RETURN child

	// Misrouted recipient.
	eve := keys.MustGenerate()
	misrouted := txn.NewReturn(w.escrow.PublicBase58(), retSpec.AcceptID, retSpec.OutputIndex,
		eve.PublicBase58(), retSpec.Amount, retSpec.AssetID, nil)
	if err := txn.Sign(misrouted, w.escrow); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(misrouted); err == nil {
		t.Error("RETURN to the wrong recipient should fail")
	}

	// Partial amount.
	partial := txn.NewReturn(w.escrow.PublicBase58(), retSpec.AcceptID, retSpec.OutputIndex,
		retSpec.Recipient, retSpec.Amount+1, retSpec.AssetID, nil)
	if err := txn.Sign(partial, w.escrow); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(partial); err == nil {
		t.Error("RETURN with wrong amount should fail")
	}

	// Spending a non-ACCEPT_BID output.
	notParent := txn.NewReturn(w.escrow.PublicBase58(), win.ID, 0,
		retSpec.Recipient, 1, retSpec.AssetID, nil)
	if err := txn.Sign(notParent, w.escrow); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(notParent); err == nil {
		t.Error("RETURN spending a non-parent output should fail")
	}

	// Valid RETURN passes.
	good := ledger.BuildChild(retSpec, w.escrow.PublicBase58())
	if err := txn.Sign(good, w.escrow); err != nil {
		t.Fatal(err)
	}
	if err := w.validate(good); err != nil {
		t.Errorf("valid RETURN rejected: %v", err)
	}
}

func TestUnknownOperationRejected(t *testing.T) {
	w := newWorld(t)
	alice := keys.MustGenerate()
	tx := w.create(alice, 1)
	tx.Operation = "DESTROY"
	if err := w.validate(tx); err == nil {
		t.Error("unknown operation should be rejected")
	}
}

func TestConditionSetIntrospection(t *testing.T) {
	// The declarative framework exposes its condition sets as data.
	r := NewRegistry()
	for _, op := range append(txn.Operations(), "WITHDRAW_BID") { // 6 paper types + WITHDRAW_BID
		if _, ok := r.Type(op); !ok {
			t.Errorf("no type registered for %s", op)
		}
	}
	bid, ok := r.Type(txn.OpBid)
	if !ok {
		t.Fatal("BID type missing")
	}
	if len(bid.Conditions) < 8 {
		t.Errorf("BID has %d conditions, want >= 8 (Definition 3 has 8)", len(bid.Conditions))
	}
	for _, c := range bid.Conditions {
		if c.Name == "" || c.Doc == "" || c.Check == nil {
			t.Errorf("condition %+v incomplete", c.Name)
		}
	}
}
