package ledger

import (
	"errors"
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
	out, ok := f.state.Output(txn.OutputRef{TxID: tx.ID, Index: 0})
	if !ok || out.Amount != 5 || out.AssetID != tx.ID || out.SpentBy != "" || len(out.Owners) != 1 || out.Owners.At(0) != f.issuer.PublicBase58() {
		t.Fatalf("Output = %+v, %v", out, ok)
	}
	if _, ok := f.state.Output(txn.OutputRef{TxID: tx.ID, Index: 3}); ok {
		t.Error("an out-of-range output has no fact")
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
	if out, ok := f.state.Output(ref); !ok || out.SpentBy != "" {
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
	// The spend marker keeps the asset and the spender, and no owners
	// or amount.
	out, ok := f.state.Output(ref)
	if !ok || out.SpentBy != first.ID || out.AssetID != asset.ID || out.Owners != nil || out.Amount != 0 {
		t.Errorf("Output of a spent output = %+v, %v", out, ok)
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
	refs := f.state.View().UnspentOutputs(f.issuer.PublicBase58())
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
	ids := map[string]bool{locked[0]: true, locked[1]: true}
	if !ids[b1.ID] || !ids[b2.ID] {
		t.Errorf("locked = %v", ids)
	}
}

// auction commits a REQUEST and three bids, then the ACCEPT_BID of the
// first over the other two, each its own block, and returns the accept
// and its bids, winner first.
func (f *fixture) auction(t *testing.T, bidders ...*keys.KeyPair) (*txn.Transaction, []*txn.Transaction) {
	t.Helper()
	rfq := f.request(t, "cnc")
	bids := make([]*txn.Transaction, len(bidders))
	for i, b := range bidders {
		bids[i] = f.bid(t, b, rfq.ID, "cnc")
	}
	accept, err := txn.NewAcceptBid(f.requester.PublicBase58(), f.escrow.PublicBase58(), rfq.ID,
		bids[0], bids[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(accept, f.escrow, f.requester); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, accept); err != nil {
		t.Fatal(err)
	}
	return accept, bids
}

// child builds and signs the child realizing spec.
func (f *fixture) child(t *testing.T, spec ReturnSpec) *txn.Transaction {
	t.Helper()
	child := BuildChild(spec, f.escrow.PublicBase58())
	if err := txn.Sign(child, f.escrow); err != nil {
		t.Fatal(err)
	}
	return child
}

// TestAcceptBidFlowAndRecoveryLog: the seal of an ACCEPT_BID logs its
// recovery record — one child per output, the winner's TRANSFER to the
// requester first, a RETURN to each losing bidder — and the seal of
// each child marks it done there and rewrites the parent's children
// field, with nothing but block commits.
func TestAcceptBidFlowAndRecoveryLog(t *testing.T) {
	f := newFixture(t)
	bidder1, bidder2, bidder3 := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	accept, bids := f.auction(t, bidder1, bidder2, bidder3)
	win, lose1, lose2 := bids[0], bids[1], bids[2]

	got, ok := f.state.AcceptForRFQ(accept.Refs[0])
	if !ok || got.ID != accept.ID {
		t.Fatalf("AcceptForRFQ = %v, %v", got, ok)
	}
	// All bid escrow outputs are now spent: no locked bids remain.
	if locked := f.state.LockedBidsForRFQ(accept.Refs[0]); len(locked) != 0 {
		t.Errorf("locked after accept = %d", len(locked))
	}

	rec, err := f.state.RecoveryFor(accept.ID)
	if err != nil || rec.Status != RecoveryPending || rec.RFQID != accept.Refs[0] || len(rec.Done) != 0 {
		t.Fatalf("record after the accept: %+v, %v", rec, err)
	}
	specs := rec.Pending
	if len(specs) != 3 {
		t.Fatalf("pending children = %d, want 3 (1 transfer + 2 returns)", len(specs))
	}
	want := []ReturnSpec{
		{Kind: ChildTransfer, AcceptID: accept.ID, OutputIndex: 0, Recipient: f.requester.PublicBase58(), Amount: 1, AssetID: win.AssetID()},
		{Kind: ChildReturn, AcceptID: accept.ID, OutputIndex: 1, Recipient: bidder2.PublicBase58(), Amount: 1, AssetID: lose1.AssetID()},
		{Kind: ChildReturn, AcceptID: accept.ID, OutputIndex: 2, Recipient: bidder3.PublicBase58(), Amount: 1, AssetID: lose2.AssetID()},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("pending children:\ngot  %+v\nwant %+v", specs, want)
	}
	if pend := f.state.PendingRecoveries(); len(pend) != 1 || len(pend[0].Pending) != 3 {
		t.Fatalf("PendingRecoveries = %+v", pend)
	}

	// Realize the first child (the winner TRANSFER): its block marks it.
	child := f.child(t, specs[0])
	if child.Operation != txn.OpTransfer {
		t.Fatalf("first child op = %s, want TRANSFER", child.Operation)
	}
	if err := commitOne(f.state, child); err != nil {
		t.Fatal(err)
	}
	rec, err = f.state.RecoveryFor(accept.ID)
	if err != nil || rec.Status != RecoveryPending || len(rec.Pending) != 2 || !reflect.DeepEqual(rec.Done, []string{child.ID}) {
		t.Fatalf("after one child: %+v, %v", rec, err)
	}
	if parent, _ := f.state.GetTx(accept.ID); !reflect.DeepEqual(parent.Children, []string{child.ID}) {
		t.Fatalf("parent children after one child = %v", parent.Children)
	}

	// Finish the two RETURNs.
	ids := []string{child.ID}
	for _, spec := range rec.Pending {
		ret := f.child(t, spec)
		if ret.Operation != txn.OpReturn {
			t.Fatalf("child op = %s, want RETURN", ret.Operation)
		}
		if err := commitOne(f.state, ret); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ret.ID)
	}
	rec, _ = f.state.RecoveryFor(accept.ID)
	if rec.Status != RecoveryComplete || len(rec.Pending) != 0 || !reflect.DeepEqual(rec.Done, ids) {
		t.Errorf("record after every child: %+v, want COMPLETE with done %v", rec, ids)
	}
	if parent, _ := f.state.GetTx(accept.ID); !reflect.DeepEqual(parent.Children, ids) {
		t.Errorf("parent children = %v, want %v", parent.Children, ids)
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
	// A transfer that is no child (it spends a plain CREATE's output)
	// writes no record and touches no other.
	owner := keys.MustGenerate()
	plain := f.create(t, owner, 1)
	tr := txn.NewTransfer(plain.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: plain.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{owner.PublicBase58()}, Amount: 1}}, nil)
	if err := txn.Sign(tr, owner); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(f.state, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := f.state.RecoveryFor(plain.ID); err == nil {
		t.Error("a plain transfer's input gained a recovery record")
	}
	if parent, _ := f.state.GetTx(plain.ID); parent.Children != nil {
		t.Errorf("a plain transfer's input gained children %v", parent.Children)
	}
}

// TestRecoveryDoneOrderAndLegacyFormat: children commit out of output
// order, yet the record's Done vector, and the parent's children field
// the seal derives from it, come back in output order — the
// determinism that keeps them identical across packing policies.
func TestRecoveryDoneOrderAndLegacyFormat(t *testing.T) {
	f := newFixture(t)
	accept, _ := f.auction(t, keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate())
	rec, err := f.state.RecoveryFor(accept.ID)
	if err != nil || len(rec.Pending) != 3 {
		t.Fatalf("record after the accept: %+v, %v", rec, err)
	}
	ids := make([]string, 3)
	for _, idx := range []int{2, 0, 1} {
		child := f.child(t, rec.Pending[idx])
		if err := commitOne(f.state, child); err != nil {
			t.Fatal(err)
		}
		ids[idx] = child.ID
	}
	rec, err = f.state.RecoveryFor(accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Done, ids) {
		t.Fatalf("Done = %v, want %v", rec.Done, ids)
	}
	if parent, _ := f.state.GetTx(accept.ID); !reflect.DeepEqual(parent.Children, ids) {
		t.Fatalf("parent children = %v, want %v", parent.Children, ids)
	}
	// Every done entry the seal writes names its output index; an entry
	// of any other shape (a plain child-ID string, which nothing writes)
	// is not a done child, and Done leaves it out.
	col := f.state.Store().Collection(ColRecovery)
	if err := updateDoc(col, accept.ID, func(doc map[string]any) error {
		done, _ := doc["done"].([]any)
		doc["done"] = append(done[:len(done):len(done)], "stray")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rec, err = f.state.RecoveryFor(accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Done, ids) {
		t.Fatalf("Done with a string entry = %v, want %v", rec.Done, ids)
	}
}

// TestRecoveryIsVersionedWithItsBlock: the record and the parent's
// children field are written by the blocks that change them, so a
// snapshot at height h reads exactly what block h left — no record
// below the accept's height, PENDING with every child at it, one child
// done per child block, COMPLETE at the last one's.
func TestRecoveryIsVersionedWithItsBlock(t *testing.T) {
	f := newFixture(t)
	f.state.SetRetain(64)
	accept, _ := f.auction(t, keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate())
	acceptH := f.state.Height()
	rec, err := f.state.RecoveryFor(accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range rec.Pending {
		if err := commitOne(f.state, f.child(t, spec)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := f.state.StateAt(acceptH - 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := before.RecoveryFor(accept.ID); err == nil {
		t.Fatalf("record below the accept's height: %+v", rec)
	}
	for k := 0; k <= 3; k++ {
		v, err := f.state.StateAt(acceptH + int64(k))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := v.RecoveryFor(accept.ID)
		if err != nil {
			t.Fatalf("height %d: %v", v.h, err)
		}
		status := RecoveryPending
		if k == 3 {
			status = RecoveryComplete
		}
		if rec.Status != status || len(rec.Pending) != 3-k || len(rec.Done) != k {
			t.Errorf("height %d (accept + %d): record %s with %d pending, %d done; want %s, %d, %d", v.h, k, rec.Status, len(rec.Pending), len(rec.Done), status, 3-k, k)
		}
		parent, err := v.GetTx(accept.ID)
		if err != nil || !reflect.DeepEqual(parent.Children, rec.Done) {
			t.Errorf("height %d: parent children %v, record done %v (%v)", v.h, parent.Children, rec.Done, err)
		}
	}
}

func TestTxsByOperation(t *testing.T) {
	f := newFixture(t)
	f.create(t, f.issuer, 1)
	f.create(t, f.issuer, 1)
	f.request(t, "cnc")
	if got := len(f.state.View().TxsByOperation(txn.OpCreate)); got != 2 {
		t.Errorf("CREATE count = %d", got)
	}
	if got := len(f.state.View().TxsByOperation(txn.OpRequest)); got != 1 {
		t.Errorf("REQUEST count = %d", got)
	}
	if got := len(f.state.View().TxsByOperation(txn.OpBid)); got != 0 {
		t.Errorf("BID count = %d", got)
	}
}
