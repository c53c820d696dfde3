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

func TestNonLockingPipeline(t *testing.T) {
	a := newAuction(t, 3)
	// Non-locking: the parent commits first.
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}

	var submitted []*txn.Transaction
	eng := NewEngine(a.state, a.escrow, func(c *txn.Transaction) { submitted = append(submitted, c) })
	if err := eng.OnParentCommitted(a.accept, a.requester.PublicBase58()); err != nil {
		t.Fatal(err)
	}
	if eng.QueueLen() != 3 {
		t.Fatalf("queue = %d, want 3 (1 transfer + 2 returns)", eng.QueueLen())
	}
	if n := eng.Drain(); n != 3 {
		t.Fatalf("drained %d", n)
	}
	if eng.QueueLen() != 0 {
		t.Error("queue should be empty after drain")
	}
	// Children are valid, committable, and complete the recovery record.
	for _, child := range submitted {
		if err := commitOne(a.state, child); err != nil {
			t.Fatalf("commit child: %v", err)
		}
		eng.OnChildCommitted(child)
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
}

func TestCrashBeforeDrainRecovers(t *testing.T) {
	a := newAuction(t, 3)
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	// First engine logs and enqueues, then "crashes" before draining.
	dead := NewEngine(a.state, a.escrow, func(*txn.Transaction) { t.Fatal("must not submit") })
	if err := dead.OnParentCommitted(a.accept, a.requester.PublicBase58()); err != nil {
		t.Fatal(err)
	}
	// Node restarts: a fresh engine replays the recovery log.
	var submitted []*txn.Transaction
	fresh := NewEngine(a.state, a.escrow, func(c *txn.Transaction) { submitted = append(submitted, c) })
	if n := fresh.Recover(); n != 3 {
		t.Fatalf("Recover re-enqueued %d, want 3", n)
	}
	fresh.Drain()
	if len(submitted) != 3 {
		t.Fatalf("submitted %d children after recovery", len(submitted))
	}
	for _, child := range submitted {
		if err := commitOne(a.state, child); err != nil {
			t.Fatalf("recovered child does not commit: %v", err)
		}
		fresh.OnChildCommitted(child)
	}
	rec, _ := a.state.RecoveryFor(a.accept.ID)
	if rec.Status != ledger.RecoveryComplete {
		t.Errorf("recovery status = %s", rec.Status)
	}
}

func TestCrashMidwayRecoversOnlyPending(t *testing.T) {
	a := newAuction(t, 3)
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	var firstBatch []*txn.Transaction
	eng := NewEngine(a.state, a.escrow, func(c *txn.Transaction) { firstBatch = append(firstBatch, c) })
	if err := eng.OnParentCommitted(a.accept, a.requester.PublicBase58()); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	// One child commits before the crash; mark-done is lost (crash hit
	// between commit and mark).
	if err := commitOne(a.state, firstBatch[0]); err != nil {
		t.Fatal(err)
	}
	// Restart: recovery must skip the already-spent output.
	var resubmitted []*txn.Transaction
	fresh := NewEngine(a.state, a.escrow, func(c *txn.Transaction) { resubmitted = append(resubmitted, c) })
	if n := fresh.Recover(); n != 2 {
		t.Fatalf("Recover re-enqueued %d, want 2", n)
	}
	fresh.Drain()
	for _, child := range resubmitted {
		if err := commitOne(a.state, child); err != nil {
			t.Fatalf("resubmitted child: %v", err)
		}
	}
}

func TestChildrenAreDeterministic(t *testing.T) {
	a := newAuction(t, 2)
	if err := commitOne(a.state, a.accept); err != nil {
		t.Fatal(err)
	}
	collect := func() []string {
		var ids []string
		eng := NewEngine(a.state, a.escrow, func(c *txn.Transaction) { ids = append(ids, c.ID) })
		if err := eng.OnParentCommitted(a.accept, a.requester.PublicBase58()); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		return ids
	}
	x, y := collect(), collect()
	if len(x) != 2 || len(y) != 2 || x[0] != y[0] || x[1] != y[1] {
		t.Errorf("child IDs differ across replicas: %v vs %v", x, y)
	}
}

func TestOnChildCommittedIgnoresUnrelated(t *testing.T) {
	a := newAuction(t, 2)
	eng := NewEngine(a.state, a.escrow, func(*txn.Transaction) {})
	stranger := keys.MustGenerate()
	seq++
	create := txn.NewCreate(stranger.PublicBase58(), map[string]any{"seq": seq}, 1, nil)
	if err := txn.Sign(create, stranger); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(a.state, create); err != nil {
		t.Fatal(err)
	}
	tr := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{stranger.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{stranger.PublicBase58()}, Amount: 1}}, nil)
	if err := txn.Sign(tr, stranger); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(a.state, tr); err != nil {
		t.Fatal(err)
	}
	eng.OnChildCommitted(tr) // must not panic or corrupt anything
	eng.OnChildCommitted(create)
}

func TestLockingCommit(t *testing.T) {
	a := newAuction(t, 3)
	children, err := LockingCommit(a.state, a.escrow, a.accept, a.requester.PublicBase58())
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
	if _, err := LockingCommit(a.state, a.escrow, a.accept, a.requester.PublicBase58()); err != nil {
		t.Fatal(err)
	}
	if _, err := LockingCommit(a.state, a.escrow, a.accept, a.requester.PublicBase58()); err == nil {
		t.Error("second locking commit should fail")
	}
}
