package ledger

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

type fixture struct {
	state     *State
	issuer    *keys.KeyPair
	escrow    *keys.KeyPair
	requester *keys.KeyPair
	seq       int // distinguishes otherwise-identical transactions
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	return &fixture{
		state:     NewState(),
		issuer:    keys.MustGenerate(),
		escrow:    keys.MustGenerate(),
		requester: keys.MustGenerate(),
	}
}

func (f *fixture) create(t *testing.T, owner *keys.KeyPair, shares uint64, caps ...any) *txn.Transaction {
	t.Helper()
	f.seq++
	data := map[string]any{"capabilities": caps, "seq": f.seq}
	tx := txn.NewCreate(owner.PublicBase58(), data, shares, nil)
	if err := txn.Sign(tx, owner); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, tx); err != nil {
		t.Fatal(err)
	}
	return tx
}

// commitOne commits tx as its own block and returns the error the
// stage skipped it with, if any.
func commitOne(s *State, tx *txn.Transaction) error {
	_, skipped := s.CommitBlock([]*txn.Transaction{tx})
	return skipped[tx.ID]
}

// commitAt commits batch as the block at height through
// BeginBlockCommit → Stage → Seal, returning the seal's outcome.
func commitAt(s *State, height int64, batch []*txn.Transaction) (committed []*txn.Transaction, skipped map[string]error, err error) {
	p := s.BeginBlockCommit(height)
	p.Stage(batch)
	return p.Seal()
}

func TestCommitAndLookup(t *testing.T) {
	f := newFixture(t)
	tx := f.create(t, f.issuer, 5, "cnc")
	if !f.state.IsCommitted(tx.ID) {
		t.Fatal("tx should be committed")
	}
	got, err := f.state.GetTx(tx.ID)
	if err != nil || got.ID != tx.ID {
		t.Fatalf("GetTx = %v, %v", got, err)
	}
	out, err := f.state.OutputAt(txn.OutputRef{TxID: tx.ID, Index: 0})
	if err != nil || out.Amount != 5 {
		t.Fatalf("OutputAt = %+v, %v", out, err)
	}
	if _, err := f.state.OutputAt(txn.OutputRef{TxID: tx.ID, Index: 3}); err == nil {
		t.Error("out-of-range output should error")
	}
	if _, err := f.state.GetTx("missing"); err == nil {
		t.Error("missing tx should error")
	}
	if f.state.TxCount() != 1 {
		t.Errorf("TxCount = %d", f.state.TxCount())
	}
}

func TestDuplicateCommitRejected(t *testing.T) {
	f := newFixture(t)
	tx := f.create(t, f.issuer, 1)
	err := commitOne(f.state, tx)
	var dup *txn.DuplicateTransactionError
	if !errors.As(err, &dup) {
		t.Fatalf("want DuplicateTransactionError, got %v", err)
	}
}

func TestSpendAndDoubleSpend(t *testing.T) {
	f := newFixture(t)
	asset := f.create(t, f.issuer, 5)
	ref := txn.OutputRef{TxID: asset.ID, Index: 0}
	if !f.state.IsUnspent(ref) {
		t.Fatal("fresh output should be unspent")
	}

	spend := func(to string) *txn.Transaction {
		tr := txn.NewTransfer(asset.ID,
			[]txn.Spend{{Ref: ref, Owners: []string{f.issuer.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to}, Amount: 5}}, nil)
		if err := txn.Sign(tr, f.issuer); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first := spend(f.requester.PublicBase58())
	if err := commitOne(f.state, first); err != nil {
		t.Fatal(err)
	}
	if f.state.IsUnspent(ref) {
		t.Fatal("output should be spent")
	}
	spender, ok := f.state.SpenderOf(ref)
	if !ok || spender != first.ID {
		t.Errorf("SpenderOf = %q, %v", spender, ok)
	}

	second := spend(f.escrow.PublicBase58())
	err := commitOne(f.state, second)
	var ds *txn.DoubleSpendError
	if !errors.As(err, &ds) {
		t.Fatalf("want DoubleSpendError, got %v", err)
	}
	if f.state.IsCommitted(second.ID) {
		t.Error("rejected commit must leave no state")
	}
}

func TestCommitMissingInputRejected(t *testing.T) {
	f := newFixture(t)
	ghost := txn.OutputRef{TxID: "0000000000000000000000000000000000000000000000000000000000000000", Index: 0}
	tr := txn.NewTransfer("asset",
		[]txn.Spend{{Ref: ghost, Owners: []string{f.issuer.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{f.issuer.PublicBase58()}, Amount: 1}}, nil)
	if err := txn.Sign(tr, f.issuer); err != nil {
		t.Fatal(err)
	}
	err := commitOne(f.state, tr)
	var missing *txn.InputDoesNotExistError
	if !errors.As(err, &missing) {
		t.Fatalf("want InputDoesNotExistError, got %v", err)
	}
}

func TestUnspentOutputsAndBalance(t *testing.T) {
	f := newFixture(t)
	a := f.create(t, f.issuer, 5)
	b := f.create(t, f.issuer, 7)
	refs := f.state.UnspentOutputs(f.issuer.PublicBase58())
	if len(refs) != 2 {
		t.Fatalf("UnspentOutputs = %v", refs)
	}
	if got := f.state.Balance(f.issuer.PublicBase58(), a.ID); got != 5 {
		t.Errorf("Balance(a) = %d", got)
	}
	if got := f.state.Balance(f.issuer.PublicBase58(), b.ID); got != 7 {
		t.Errorf("Balance(b) = %d", got)
	}
	if got := f.state.Balance(f.requester.PublicBase58(), a.ID); got != 0 {
		t.Errorf("stranger balance = %d", got)
	}
}

func (f *fixture) request(t *testing.T, caps ...any) *txn.Transaction {
	t.Helper()
	req := txn.NewRequest(f.requester.PublicBase58(), map[string]any{"capabilities": caps}, nil)
	if err := txn.Sign(req, f.requester); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, req); err != nil {
		t.Fatal(err)
	}
	return req
}

func (f *fixture) bid(t *testing.T, bidder *keys.KeyPair, rfqID string, caps ...any) *txn.Transaction {
	t.Helper()
	asset := f.create(t, bidder, 1, caps...)
	bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		1, f.escrow.PublicBase58(), rfqID, nil)
	if err := txn.Sign(bid, bidder); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, bid); err != nil {
		t.Fatal(err)
	}
	return bid
}

func TestLockedBidsForRFQ(t *testing.T) {
	f := newFixture(t)
	rfq := f.request(t, "cnc")
	b1 := f.bid(t, keys.MustGenerate(), rfq.ID, "cnc")
	b2 := f.bid(t, keys.MustGenerate(), rfq.ID, "cnc")
	other := f.request(t, "paint")
	f.bid(t, keys.MustGenerate(), other.ID, "paint")

	locked := f.state.LockedBidsForRFQ(rfq.ID)
	if len(locked) != 2 {
		t.Fatalf("locked bids = %d, want 2", len(locked))
	}
	ids := map[string]bool{locked[0].ID: true, locked[1].ID: true}
	if !ids[b1.ID] || !ids[b2.ID] {
		t.Errorf("locked = %v", ids)
	}
}

func TestAcceptBidFlowAndRecoveryLog(t *testing.T) {
	f := newFixture(t)
	rfq := f.request(t, "cnc")
	bidder1, bidder2, bidder3 := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	win := f.bid(t, bidder1, rfq.ID, "cnc")
	lose1 := f.bid(t, bidder2, rfq.ID, "cnc")
	lose2 := f.bid(t, bidder3, rfq.ID, "cnc")

	accept, err := txn.NewAcceptBid(f.requester.PublicBase58(), f.escrow.PublicBase58(), rfq.ID,
		win, []*txn.Transaction{lose1, lose2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(accept, f.escrow, f.requester); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, accept); err != nil {
		t.Fatal(err)
	}

	got, ok := f.state.AcceptForRFQ(rfq.ID)
	if !ok || got.ID != accept.ID {
		t.Fatalf("AcceptForRFQ = %v, %v", got, ok)
	}
	// All bid escrow outputs are now spent: no locked bids remain.
	if locked := f.state.LockedBidsForRFQ(rfq.ID); len(locked) != 0 {
		t.Errorf("locked after accept = %d", len(locked))
	}

	specs, err := f.state.PendingReturnsFor(accept, f.escrow.PublicBase58(), f.requester.PublicBase58())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("pending children = %d, want 3 (1 transfer + 2 returns)", len(specs))
	}
	if specs[0].Kind != ChildTransfer || specs[0].Recipient != f.requester.PublicBase58() {
		t.Errorf("first child should transfer to requester: %+v", specs[0])
	}
	recipients := map[string]bool{specs[1].Recipient: true, specs[2].Recipient: true}
	if !recipients[bidder2.PublicBase58()] || !recipients[bidder3.PublicBase58()] {
		t.Errorf("return recipients = %v", recipients)
	}
	if specs[1].Kind != ChildReturn || specs[2].Kind != ChildReturn {
		t.Errorf("children 1,2 should be returns: %+v", specs[1:])
	}

	if err := f.state.LogAcceptRecovery(accept.ID, rfq.ID, specs); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-log.
	if err := f.state.LogAcceptRecovery(accept.ID, rfq.ID, specs); err != nil {
		t.Fatal(err)
	}
	pend := f.state.PendingRecoveries()
	if len(pend) != 1 || len(pend[0].Pending) != 3 {
		t.Fatalf("PendingRecoveries = %+v", pend)
	}

	// Realize the first child (the winner TRANSFER) and mark it done.
	child := BuildChild(specs[0], f.escrow.PublicBase58())
	if child.Operation != txn.OpTransfer {
		t.Fatalf("first child op = %s, want TRANSFER", child.Operation)
	}
	if err := txn.Sign(child, f.escrow); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, child); err != nil {
		t.Fatal(err)
	}
	if err := f.state.MarkReturnDone(accept.ID, specs[0].OutputIndex, child.ID); err != nil {
		t.Fatal(err)
	}
	rec, err := f.state.RecoveryFor(accept.ID)
	if err != nil || rec.Status != RecoveryPending || len(rec.Pending) != 2 || len(rec.Done) != 1 {
		t.Fatalf("after one child: %+v, %v", rec, err)
	}
	// Recomputing pending children now excludes the realized one.
	specs2, err := f.state.PendingReturnsFor(accept, f.escrow.PublicBase58(), f.requester.PublicBase58())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs2) != 2 {
		t.Fatalf("pending after transfer = %d, want 2", len(specs2))
	}

	// Finish the two RETURNs.
	for _, spec := range specs2 {
		ret := BuildChild(spec, f.escrow.PublicBase58())
		if ret.Operation != txn.OpReturn {
			t.Fatalf("child op = %s, want RETURN", ret.Operation)
		}
		if err := txn.Sign(ret, f.escrow); err != nil {
			t.Fatal(err)
		}
		if err := commitOne(f.state, ret); err != nil {
			t.Fatal(err)
		}
		if err := f.state.MarkReturnDone(accept.ID, spec.OutputIndex, ret.ID); err != nil {
			t.Fatal(err)
		}
	}
	rec, _ = f.state.RecoveryFor(accept.ID)
	if rec.Status != RecoveryComplete {
		t.Errorf("status = %s, want COMPLETE", rec.Status)
	}
	if len(f.state.PendingRecoveries()) != 0 {
		t.Error("no recoveries should remain pending")
	}
	// Bidders got their assets back.
	if f.state.Balance(bidder2.PublicBase58(), lose1.AssetID()) != 1 {
		t.Error("bidder2 did not get asset back")
	}
	if f.state.Balance(bidder3.PublicBase58(), lose2.AssetID()) != 1 {
		t.Error("bidder3 did not get asset back")
	}
	// Requester owns the winning asset.
	if f.state.Balance(f.requester.PublicBase58(), win.AssetID()) != 1 {
		t.Error("requester did not receive winning asset")
	}
}

func TestMarkReturnDoneErrors(t *testing.T) {
	f := newFixture(t)
	if err := f.state.MarkReturnDone("missing", 0, "c"); err == nil {
		t.Error("missing record should error")
	}
	if err := f.state.LogAcceptRecovery("acc", "rfq", nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := f.state.RecoveryFor("acc")
	if rec.Status != RecoveryComplete {
		t.Error("no-children record should be COMPLETE immediately")
	}
	if err := f.state.MarkReturnDone("acc", 5, "c"); err == nil {
		t.Error("unknown output index should error")
	}
}

func TestRecoveryDoneOrderAndLegacyFormat(t *testing.T) {
	f := newFixture(t)
	specs := []ReturnSpec{
		{Kind: ChildTransfer, AcceptID: "acc", OutputIndex: 0, Recipient: "r", Amount: 1},
		{Kind: ChildReturn, AcceptID: "acc", OutputIndex: 1, Recipient: "a", Amount: 1},
		{Kind: ChildReturn, AcceptID: "acc", OutputIndex: 2, Recipient: "b", Amount: 1},
	}
	if err := f.state.LogAcceptRecovery("acc", "rfq", specs); err != nil {
		t.Fatal(err)
	}
	// Children commit out of output order; Done must come back in
	// output order regardless — that determinism is what keeps parent
	// children vectors identical across packing policies.
	for _, idx := range []int{2, 0, 1} {
		if err := f.state.MarkReturnDone("acc", idx, fmt.Sprintf("child%d", idx)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := f.state.RecoveryFor("acc")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"child0", "child1", "child2"}
	if !reflect.DeepEqual(rec.Done, want) {
		t.Fatalf("Done = %v, want %v", rec.Done, want)
	}
	// Every done entry MarkReturnDone writes names its output index; an
	// entry of any other shape (a plain child-ID string, which nothing
	// writes) is not a done child, and Done leaves it out.
	col := f.state.Store().Collection(ColRecovery)
	if err := col.Update("acc", func(doc map[string]any) error {
		done, _ := doc["done"].([]any)
		doc["done"] = append(done[:len(done):len(done)], "stray")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rec, err = f.state.RecoveryFor("acc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Done, want) {
		t.Fatalf("Done with a string entry = %v, want %v", rec.Done, want)
	}
}

func TestSetChildren(t *testing.T) {
	f := newFixture(t)
	tx := f.create(t, f.issuer, 1)
	if err := f.state.SetChildren(tx.ID, []string{"aa", "bb"}); err != nil {
		t.Fatal(err)
	}
	got, err := f.state.GetTx(tx.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != 2 || got.Children[0] != "aa" {
		t.Errorf("children = %v", got.Children)
	}
	if err := f.state.SetChildren("missing", nil); err == nil {
		t.Error("missing parent should error")
	}
}

func TestTxsByOperation(t *testing.T) {
	f := newFixture(t)
	f.create(t, f.issuer, 1)
	f.create(t, f.issuer, 1)
	f.request(t, "cnc")
	if got := len(f.state.TxsByOperation(txn.OpCreate)); got != 2 {
		t.Errorf("CREATE count = %d", got)
	}
	if got := len(f.state.TxsByOperation(txn.OpRequest)); got != 1 {
		t.Errorf("REQUEST count = %d", got)
	}
	if got := len(f.state.TxsByOperation(txn.OpBid)); got != 0 {
		t.Errorf("BID count = %d", got)
	}
}
