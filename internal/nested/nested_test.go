package nested

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// auction bundles a committed REQUEST with escrow-held bids and an
// ACCEPT_BID ready to commit.
type auction struct {
	state     *ledger.State
	escrow    *keys.KeyPair
	requester *keys.KeyPair
	bidders   []*keys.KeyPair
	rfq       *txn.Transaction
	bids      []*txn.Transaction
	accept    *txn.Transaction
}

// commitOne commits tx as its own block and returns the error the
// stage skipped it with, if any.
func commitOne(s *ledger.State, tx *txn.Transaction) error {
	_, skipped := s.CommitBlock([]*txn.Transaction{tx})
	return skipped[tx.ID]
}

var seq int

func newAuction(t testing.TB, nBids int) *auction {
	t.Helper()
	a := &auction{
		state:     ledger.NewState(),
		escrow:    keys.MustGenerate(),
		requester: keys.MustGenerate(),
	}
	seq++
	rfq := txn.NewRequest(a.requester.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}, "seq": seq}, nil)
	if err := txn.Sign(rfq, a.requester); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(a.state, rfq); err != nil {
		t.Fatal(err)
	}
	a.rfq = rfq
	for i := 0; i < nBids; i++ {
		bidder := keys.MustGenerate()
		a.bidders = append(a.bidders, bidder)
		seq++
		asset := txn.NewCreate(bidder.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}, "seq": seq}, 1, nil)
		if err := txn.Sign(asset, bidder); err != nil {
			t.Fatal(err)
		}
		if err := commitOne(a.state, asset); err != nil {
			t.Fatal(err)
		}
		bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
			txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
			1, a.escrow.PublicBase58(), rfq.ID, nil)
		if err := txn.Sign(bid, bidder); err != nil {
			t.Fatal(err)
		}
		if err := commitOne(a.state, bid); err != nil {
			t.Fatal(err)
		}
		a.bids = append(a.bids, bid)
	}
	acc, err := txn.NewAcceptBid(a.requester.PublicBase58(), a.escrow.PublicBase58(), rfq.ID, a.bids[0], a.bids[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, a.escrow, a.requester); err != nil {
		t.Fatal(err)
	}
	a.accept = acc
	return a
}

// engine returns an engine over a's state whose submitter appends to
// *into.
func (a *auction) engine(into *[]*txn.Transaction) *Engine {
	return NewEngine(a.state, a.escrow, func(_ txn.OutputRef, build func() *txn.Transaction) { *into = append(*into, build()) })
}

func TestNonLockingPipeline(t *testing.T) {
	a := newAuction(t, 3)
	// Non-locking: the parent commits first, and its seal logs the
	// children it owes.
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	var submitted []*txn.Transaction
	a.engine(&submitted).Submit(a.accept.ID)
	if len(submitted) != 3 {
		t.Fatalf("submitted %d children, want 3 (1 transfer + 2 returns)", len(submitted))
	}
	// Children are valid, committable, and complete the recovery record.
	for _, child := range submitted {
		if err := commitOne(a.state, child); err != nil {
			t.Fatalf("commit child: %v", err)
		}
	}
	rec, err := a.state.RecoveryFor(a.accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != ledger.RecoveryComplete || len(rec.Done) != 3 {
		t.Errorf("recovery = %+v", rec)
	}
	// Parent's children vector filled in.
	parent, err := a.state.GetTx(a.accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.Children) != 3 {
		t.Errorf("children = %v", parent.Children)
	}
	// Funds routed: requester owns winner's asset, losers refunded.
	winAsset := a.bids[0].AssetID()
	if a.state.Balance(a.requester.PublicBase58(), winAsset) != 1 {
		t.Error("requester missing winning asset")
	}
	for i := 1; i < 3; i++ {
		if a.state.Balance(a.bidders[i].PublicBase58(), a.bids[i].AssetID()) != 1 {
			t.Errorf("bidder %d not refunded", i)
		}
	}
	// Nothing is left to submit: the record is COMPLETE.
	var again []*txn.Transaction
	if a.engine(&again).Submit(a.accept.ID); len(again) != 0 {
		t.Errorf("Submit after settlement: %d children", len(again))
	}
}

func TestCrashBeforeSubmitRecovers(t *testing.T) {
	a := newAuction(t, 3)
	// The parent's block seals its record; the node "crashes" before
	// submitting any child.
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	// Node restarts: a fresh engine replays the recovery log.
	var submitted []*txn.Transaction
	fresh := a.engine(&submitted)
	if n := fresh.Recover(); n != 3 || len(submitted) != 3 {
		t.Fatalf("Recover submitted %d children (reported %d), want 3", len(submitted), n)
	}
	for _, child := range submitted {
		if err := commitOne(a.state, child); err != nil {
			t.Fatalf("recovered child does not commit: %v", err)
		}
	}
	rec, _ := a.state.RecoveryFor(a.accept.ID)
	if rec.Status != ledger.RecoveryComplete {
		t.Errorf("recovery status = %s", rec.Status)
	}
	if n := fresh.Recover(); n != 0 {
		t.Errorf("second Recover submitted %d children", n)
	}
}

func TestCrashMidwayRecoversOnlyPending(t *testing.T) {
	a := newAuction(t, 3)
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	var firstBatch []*txn.Transaction
	a.engine(&firstBatch).Submit(a.accept.ID)
	// One child commits before the crash; its block marked it done.
	if err := commitOne(a.state, firstBatch[0]); err != nil {
		t.Fatal(err)
	}
	// Restart: recovery submits the two still pending.
	var resubmitted []*txn.Transaction
	if n := a.engine(&resubmitted).Recover(); n != 2 {
		t.Fatalf("Recover submitted %d, want 2", n)
	}
	for i, child := range resubmitted {
		if child.ID != firstBatch[i+1].ID {
			t.Errorf("resubmitted child %d is %.8s, the first submission's %.8s", i, child.ID, firstBatch[i+1].ID)
		}
		if err := commitOne(a.state, child); err != nil {
			t.Fatalf("resubmitted child: %v", err)
		}
	}
	if rec, _ := a.state.RecoveryFor(a.accept.ID); rec.Status != ledger.RecoveryComplete {
		t.Errorf("recovery status = %s", rec.Status)
	}
}

// TestSubmitterNamesTheSpentOutput: the engine hands its submitter, per
// owed child in output order, the escrow output the child spends and a
// build that signs the child once and returns that object on every
// later call.
func TestSubmitterNamesTheSpentOutput(t *testing.T) {
	a := newAuction(t, 3)
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	var outs []txn.OutputRef
	var builds []func() *txn.Transaction
	NewEngine(a.state, a.escrow, func(out txn.OutputRef, build func() *txn.Transaction) {
		outs = append(outs, out)
		builds = append(builds, build)
	}).Submit(a.accept.ID)
	if len(outs) != 3 {
		t.Fatalf("submitted %d children, want 3", len(outs))
	}
	for i, out := range outs {
		if want := (txn.OutputRef{TxID: a.accept.ID, Index: i}); out != want {
			t.Errorf("child %d names output %v, want %v", i, out, want)
		}
		child := builds[i]()
		if again := builds[i](); again != child {
			t.Errorf("child %d: a second build returned another object", i)
		}
		if len(child.Inputs) != 1 || *child.Inputs[0].Fulfills != out {
			t.Errorf("child %d spends %v, not the output it was submitted under, %v", i, child.Inputs[0].Fulfills, out)
		}
		if err := txn.VerifyFulfillments(child); err != nil {
			t.Errorf("child %d: %v", i, err)
		}
	}
}

func TestChildrenAreDeterministic(t *testing.T) {
	a := newAuction(t, 2)
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	collect := func() []string {
		var children []*txn.Transaction
		a.engine(&children).Submit(a.accept.ID)
		ids := make([]string, len(children))
		for i, c := range children {
			ids[i] = c.ID
		}
		return ids
	}
	x, y := collect(), collect()
	if len(x) != 2 || len(y) != 2 || x[0] != y[0] || x[1] != y[1] {
		t.Errorf("child IDs differ across replicas: %v vs %v", x, y)
	}
}

func TestLockingCommit(t *testing.T) {
	a := newAuction(t, 3)
	children, err := LockingCommit(a.state, a.escrow, a.accept)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 3 {
		t.Fatalf("children = %d", len(children))
	}
	parent, err := a.state.GetTx(a.accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.Children) != 3 {
		t.Errorf("parent children vector = %v", parent.Children)
	}
	if rec, err := a.state.RecoveryFor(a.accept.ID); err != nil || rec.Status != ledger.RecoveryComplete {
		t.Errorf("recovery record = %+v, %v", rec, err)
	}
	// Same end state as the non-locking path.
	if a.state.Balance(a.requester.PublicBase58(), a.bids[0].AssetID()) != 1 {
		t.Error("requester missing winning asset")
	}
	for i := 1; i < 3; i++ {
		if a.state.Balance(a.bidders[i].PublicBase58(), a.bids[i].AssetID()) != 1 {
			t.Errorf("bidder %d not refunded", i)
		}
	}
}

func TestLockingCommitDuplicateParent(t *testing.T) {
	a := newAuction(t, 2)
	if _, err := LockingCommit(a.state, a.escrow, a.accept); err != nil {
		t.Fatal(err)
	}
	if _, err := LockingCommit(a.state, a.escrow, a.accept); err == nil {
		t.Error("second locking commit should fail")
	}
}
