package server

import (
	"testing"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/txn"
)

var seq int

func signedCreate(t *testing.T, owner *keys.KeyPair, caps ...any) *txn.Transaction {
	t.Helper()
	seq++
	tx := txn.NewCreate(owner.PublicBase58(), map[string]any{"capabilities": caps, "seq": seq}, 1, nil)
	if err := txn.Sign(tx, owner); err != nil {
		t.Fatal(err)
	}
	return tx
}

func signedRequest(t *testing.T, requester *keys.KeyPair, caps ...any) *txn.Transaction {
	t.Helper()
	seq++
	tx := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": caps, "seq": seq}, nil)
	if err := txn.Sign(tx, requester); err != nil {
		t.Fatal(err)
	}
	return tx
}

func signedBid(t *testing.T, bidder *keys.KeyPair, asset *txn.Transaction, escrowPub, rfqID string) *txn.Transaction {
	t.Helper()
	tx := txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		1, escrowPub, rfqID, nil)
	if err := txn.Sign(tx, bidder); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestStandaloneNodeFullAuction(t *testing.T) {
	n := NewNode(Config{ReservedSeed: 42})
	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	escrowPub := n.Escrow().PublicBase58()

	rfq := signedRequest(t, requester, "cnc")
	if err := n.Apply(rfq); err != nil {
		t.Fatal(err)
	}
	asset1 := signedCreate(t, b1, "cnc")
	asset2 := signedCreate(t, b2, "cnc")
	if err := n.Apply(asset1); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(asset2); err != nil {
		t.Fatal(err)
	}
	bid1 := signedBid(t, b1, asset1, escrowPub, rfq.ID)
	bid2 := signedBid(t, b2, asset2, escrowPub, rfq.ID)
	if err := n.Apply(bid1); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(bid2); err != nil {
		t.Fatal(err)
	}

	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPub, rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, n.Escrow(), requester); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(acc); err != nil {
		t.Fatal(err)
	}
	// Standalone mode applies children synchronously.
	if n.State().Balance(requester.PublicBase58(), asset1.ID) != 1 {
		t.Error("requester should own the winning asset")
	}
	if n.State().Balance(b2.PublicBase58(), asset2.ID) != 1 {
		t.Error("losing bidder should be refunded")
	}
	rec, err := n.State().RecoveryFor(acc.ID)
	if err != nil || rec.Status != "COMPLETE" {
		t.Errorf("recovery = %+v, %v", rec, err)
	}
	parent, _ := n.State().GetTx(acc.ID)
	if len(parent.Children) != 2 {
		t.Errorf("children = %v", parent.Children)
	}
}

func TestStandaloneNodeRejectsInvalid(t *testing.T) {
	n := NewNode(Config{ReservedSeed: 42})
	bidder := keys.MustGenerate()
	requester := keys.MustGenerate()

	rfq := signedRequest(t, requester, "cnc", "welding")
	if err := n.Apply(rfq); err != nil {
		t.Fatal(err)
	}
	asset := signedCreate(t, bidder, "cnc") // lacks welding
	if err := n.Apply(asset); err != nil {
		t.Fatal(err)
	}
	weak := signedBid(t, bidder, asset, n.Escrow().PublicBase58(), rfq.ID)
	if err := n.Apply(weak); err == nil {
		t.Fatal("bid lacking capability should be rejected")
	}
	// Schema violations are caught before semantics.
	garbage := signedCreate(t, bidder, "x")
	garbage.Version = "9.9"
	if err := n.Apply(garbage); err == nil {
		t.Fatal("bad version should be rejected at schema stage")
	}
}

func newTestCluster(nodes int, seed int64) *Cluster {
	return NewCluster(ClusterConfig{
		Nodes:         nodes,
		Seed:          seed,
		BlockInterval: 20 * time.Millisecond,
		MaxBlockTxs:   32,
		Pipelined:     true,
	})
}

func TestClusterFullAuctionConverges(t *testing.T) {
	c := newTestCluster(4, 7)
	escrowPair := c.ServerNode(0).Escrow()
	requester := keys.MustGenerate()
	b1, b2, b3 := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()

	rfq := signedRequest(t, requester, "cnc")
	a1, a2, a3 := signedCreate(t, b1, "cnc"), signedCreate(t, b2, "cnc"), signedCreate(t, b3, "cnc")
	for _, tx := range []*txn.Transaction{rfq, a1, a2, a3} {
		c.Submit(tx)
	}
	if got := c.RunUntilCommitted(4, time.Minute); got != 4 {
		t.Fatalf("phase 1 committed %d, want 4", got)
	}

	bid1 := signedBid(t, b1, a1, escrowPair.PublicBase58(), rfq.ID)
	bid2 := signedBid(t, b2, a2, escrowPair.PublicBase58(), rfq.ID)
	bid3 := signedBid(t, b3, a3, escrowPair.PublicBase58(), rfq.ID)
	for _, tx := range []*txn.Transaction{bid1, bid2, bid3} {
		c.Submit(tx)
	}
	if got := c.RunUntilCommitted(7, 2*time.Minute); got != 7 {
		t.Fatalf("phase 2 committed %d, want 7", got)
	}

	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPair.PublicBase58(), rfq.ID, bid2, []*txn.Transaction{bid1, bid3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrowPair, requester); err != nil {
		t.Fatal(err)
	}
	c.Submit(acc)
	// Parent + 3 children = 11 transactions total.
	if got := c.RunUntilCommitted(11, 5*time.Minute); got != 11 {
		t.Fatalf("final committed %d, want 11", got)
	}
	c.RunUntil(c.Sched().Now() + time.Second)

	// Every replica converged to the same state.
	for i := 0; i < 4; i++ {
		st := c.ServerNode(i).State()
		if st.TxCount() != 11 {
			t.Errorf("node %d has %d txs, want 11", i, st.TxCount())
		}
		if st.Balance(requester.PublicBase58(), a2.ID) != 1 {
			t.Errorf("node %d: requester lacks winning asset", i)
		}
		if st.Balance(b1.PublicBase58(), a1.ID) != 1 {
			t.Errorf("node %d: bidder 1 not refunded", i)
		}
		if st.Balance(b3.PublicBase58(), a3.ID) != 1 {
			t.Errorf("node %d: bidder 3 not refunded", i)
		}
		rec, err := st.RecoveryFor(acc.ID)
		if err != nil || rec.Status != "COMPLETE" {
			t.Errorf("node %d recovery: %+v, %v", i, rec, err)
		}
	}
	// Nested commit ordering: the parent committed before its children
	// (non-locking semantics).
	pCommit, _ := c.CommitTime(acc.ID)
	for _, childID := range mustChildren(t, c, acc.ID) {
		cCommit, ok := c.CommitTime(childID)
		if !ok {
			t.Fatalf("child %s never committed", childID[:8])
		}
		if cCommit < pCommit {
			t.Errorf("child committed before parent: %v < %v", cCommit, pCommit)
		}
	}
}

func mustChildren(t *testing.T, c *Cluster, acceptID string) []string {
	t.Helper()
	parent, err := c.ServerNode(0).State().GetTx(acceptID)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.Children) == 0 {
		t.Fatal("no children recorded")
	}
	return parent.Children
}

func TestClusterRejectsDoubleSpendAcrossSubmissions(t *testing.T) {
	c := newTestCluster(4, 9)
	alice, bob, eve := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	create := signedCreate(t, alice, "x")
	c.Submit(create)
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatal("create did not commit")
	}
	mk := func(to string) *txn.Transaction {
		tr := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{alice.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to}, Amount: 1}}, nil)
		if err := txn.Sign(tr, alice); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t1, t2 := mk(bob.PublicBase58()), mk(eve.PublicBase58())
	c.Submit(t1)
	c.Submit(t2)
	c.RunUntil(c.Sched().Now() + 10*time.Second)
	_, ok1 := c.CommitTime(t1.ID)
	_, ok2 := c.CommitTime(t2.ID)
	if ok1 && ok2 {
		t.Fatal("both conflicting transfers committed")
	}
	if !ok1 && !ok2 {
		t.Fatal("neither transfer committed")
	}
}

func TestClusterCrashRecoveryOfChildren(t *testing.T) {
	c := newTestCluster(4, 11)
	escrowPair := c.ServerNode(0).Escrow()
	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()

	rfq := signedRequest(t, requester, "cnc")
	a1, a2 := signedCreate(t, b1, "cnc"), signedCreate(t, b2, "cnc")
	for _, tx := range []*txn.Transaction{rfq, a1, a2} {
		c.Submit(tx)
	}
	c.RunUntilCommitted(3, time.Minute)
	bid1 := signedBid(t, b1, a1, escrowPair.PublicBase58(), rfq.ID)
	bid2 := signedBid(t, b2, a2, escrowPair.PublicBase58(), rfq.ID)
	c.Submit(bid1)
	c.Submit(bid2)
	c.RunUntilCommitted(5, 2*time.Minute)

	// Simulate "crash while enqueueing RETURNs": every node's child
	// submitter is disconnected before the accept commits.
	for i := 0; i < 4; i++ {
		c.ServerNode(i).SetChildSubmitter(dropChildren)
	}
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPair.PublicBase58(), rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrowPair, requester); err != nil {
		t.Fatal(err)
	}
	c.Submit(acc)
	if got := c.RunUntilCommitted(6, 2*time.Minute); got != 6 {
		t.Fatalf("accept did not commit: %d", got)
	}
	c.RunUntil(c.Sched().Now() + 5*time.Second)
	if c.CommittedCount() != 6 {
		t.Fatalf("children committed despite disconnected queue: %d", c.CommittedCount())
	}
	// Reconnect one node's submitter and replay its recovery log.
	n0 := c.ServerNode(0)
	n0.SetChildSubmitter(c.ChildInjector(0))
	c.Sched().After(0, func() { n0.Recover() })
	if got := c.RunUntilCommitted(8, c.Sched().Now()+5*time.Minute); got != 8 {
		t.Fatalf("recovery did not commit children: %d of 8", got)
	}
	c.RunUntil(c.Sched().Now() + 5*time.Second) // let node 0 apply stragglers
	rec, err := n0.State().RecoveryFor(acc.ID)
	if err != nil || rec.Status != "COMPLETE" {
		t.Errorf("recovery record = %+v, %v", rec, err)
	}
}

func TestClusterValidatorCrashDuringAuction(t *testing.T) {
	c := newTestCluster(4, 13)
	escrowPair := c.ServerNode(0).Escrow()
	requester := keys.MustGenerate()
	b1 := keys.MustGenerate()

	rfq := signedRequest(t, requester, "cnc")
	a1 := signedCreate(t, b1, "cnc")
	c.Submit(rfq)
	c.Submit(a1)
	c.RunUntilCommitted(2, time.Minute)

	c.Crash(2) // one validator down; quorum 3 of 4 remains
	bid1 := signedBid(t, b1, a1, escrowPair.PublicBase58(), rfq.ID)
	c.Submit(bid1)
	if got := c.RunUntilCommitted(3, 2*time.Minute); got != 3 {
		t.Fatalf("bid did not commit with one validator down: %d", got)
	}
	c.RestartNode(2)
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPair.PublicBase58(), rfq.ID, bid1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrowPair, requester); err != nil {
		t.Fatal(err)
	}
	c.Submit(acc)
	if got := c.RunUntilCommitted(5, c.Sched().Now()+5*time.Minute); got != 5 {
		t.Fatalf("auction did not complete after restart: %d of 5", got)
	}
}

// TestRegisteredSchemaStaysOnItsNode: nodes in one process share the
// compiled native schemas, but a schema one node registers is its own.
func TestRegisteredSchemaStaysOnItsNode(t *testing.T) {
	a, b := NewNode(Config{}), NewNode(Config{})
	defer a.Close()
	defer b.Close()
	if sa, _ := a.Schemas().ForOperation(txn.OpCreate); sa == nil {
		t.Fatal("node a has no CREATE schema")
	} else if sb, _ := b.Schemas().ForOperation(txn.OpCreate); sb != sa {
		t.Error("two nodes compiled the native CREATE schema twice")
	}
	s, err := schema.Compile(map[string]any{"type": "object"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Schemas().Register("INTEREST", s); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Schemas().ForOperation("INTEREST"); ok {
		t.Fatal("a schema registered on node a is visible on node b")
	}
	if err := b.Schemas().ValidateDoc(map[string]any{"operation": "INTEREST"}); err == nil {
		t.Error("node b accepts an operation only node a registered")
	}
	if err := b.Schemas().Register("INTEREST", s); err != nil {
		t.Errorf("node b cannot register an operation node a registered: %v", err)
	}
	c := NewNode(Config{})
	defer c.Close()
	if _, ok := c.Schemas().ForOperation("INTEREST"); ok {
		t.Error("a node opened after two registrations sees them")
	}
}
