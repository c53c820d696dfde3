package server

import (
	"fmt"
	"reflect"
	"testing"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// nodeDump captures the state the acceptance criterion compares across
// a kill/restart: committed height, TxCount, the full UTXO set, and
// the recovery records.
type nodeDump struct {
	Height   int64
	TxCount  int
	TxKeys   []string
	UTXOs    []map[string]any
	Recovery []map[string]any
}

func dumpNode(n *Node) nodeDump {
	st := n.State().Store()
	return nodeDump{
		Height:   n.State().Height(),
		TxCount:  n.State().TxCount(),
		TxKeys:   st.Collection(ledger.ColTransactions).Keys(),
		UTXOs:    st.Collection(ledger.ColUTXOs).Find(nil),
		Recovery: st.Collection(ledger.ColRecovery).Find(nil),
	}
}

// commitBlock pushes a batch through the consensus App surface the
// real cluster uses: ValidateBlock filters it, CommitStart and its
// join apply it at the given height.
func commitBlock(t *testing.T, n *Node, height int64, batch ...*txn.Transaction) {
	t.Helper()
	txs := make([]consensus.Tx, len(batch))
	for i, tx := range batch {
		txs[i] = tx
	}
	if invalid := n.ValidateBlock(txs); len(invalid) != 0 {
		t.Fatalf("block %d: %d transactions rejected", height, len(invalid))
	}
	n.CommitStart(height, txs)()
}

// TestNodeDataDirKillRestartRecoversIdenticalState is the acceptance
// test: a smartchaindb node started with a data directory, killed
// (abandoned, never closed) after committing N blocks including a
// nested ACCEPT_BID, restarts with identical TxCount, UTXO set, and
// recovery records, at the exact committed height.
func TestNodeDataDirKillRestartRecoversIdenticalState(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ReservedSeed: 42, DataDir: dir}
	n := NewNode(cfg)

	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	escrowPub := n.Escrow().PublicBase58()

	rfq := signedRequest(t, requester, "cnc")
	asset1 := signedCreate(t, b1, "cnc")
	asset2 := signedCreate(t, b2, "cnc")
	commitBlock(t, n, 1, rfq, asset1, asset2)

	bid1 := signedBid(t, b1, asset1, escrowPub, rfq.ID)
	bid2 := signedBid(t, b2, asset2, escrowPub, rfq.ID)
	commitBlock(t, n, 2, bid1, bid2)

	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPub, rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, n.Escrow(), requester); err != nil {
		t.Fatal(err)
	}
	// Route the nested children into block 4 instead of the default
	// synchronous apply, like the cluster does.
	var children []*txn.Transaction
	n.SetChildSubmitter(func(child *txn.Transaction) { children = append(children, child) })
	commitBlock(t, n, 3, acc)
	if len(children) != 2 {
		t.Fatalf("nested engine produced %d children, want 2", len(children))
	}
	commitBlock(t, n, 4, children...)

	want := dumpNode(n)
	if want.Height != 4 || want.TxCount != 8 {
		t.Fatalf("pre-kill height %d txcount %d", want.Height, want.TxCount)
	}
	rec, err := n.State().RecoveryFor(acc.ID)
	if err != nil || rec.Status != ledger.RecoveryComplete {
		t.Fatalf("pre-kill recovery record: %+v, %v", rec, err)
	}

	// "Kill" the node: every block was already fsynced at commit, so
	// Close adds no durability — it only releases the directory lock,
	// as the kernel would for a SIGKILLed process (the real-kill case
	// is exercised through the smartchaindb -datadir CLI).
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	got := dumpNode(n2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted node state differs:\ngot  %+v\nwant %+v", got, want)
	}
	// Semantic spot-checks on the recovered state.
	if n2.State().Balance(requester.PublicBase58(), asset1.ID) != 1 {
		t.Error("restarted node lost the requester's winning asset")
	}
	if n2.State().Balance(b2.PublicBase58(), asset2.ID) != 1 {
		t.Error("restarted node lost the losing bidder's refund")
	}
	// And the restarted node keeps committing: consensus numbers its
	// blocks from 1 again, but the ledger keeps counting from the
	// recovered height instead of overwriting history.
	extra := signedCreate(t, b1, "cnc")
	commitBlock(t, n2, 1, extra)
	if n2.State().Height() != 5 || !n2.State().IsCommitted(extra.ID) {
		t.Fatalf("restarted node cannot extend the chain (height %d)", n2.State().Height())
	}
	doc, err := n2.State().Store().Collection(ledger.ColBlocks).Get(fmt.Sprintf("%016d", 1))
	if err != nil {
		t.Fatal(err)
	}
	if doc["count"].(float64) != 3 {
		t.Fatalf("historical block 1 was overwritten: %v", doc)
	}
}

// TestNodeRestartReplaysPendingRecovery kills the node between the
// ACCEPT_BID block and its children: the restarted node must see the
// PENDING recovery record and Recover() must resubmit both children.
func TestNodeRestartReplaysPendingRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ReservedSeed: 42, DataDir: dir}
	n := NewNode(cfg)

	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	escrowPub := n.Escrow().PublicBase58()

	rfq := signedRequest(t, requester, "cnc")
	asset1 := signedCreate(t, b1, "cnc")
	asset2 := signedCreate(t, b2, "cnc")
	commitBlock(t, n, 1, rfq, asset1, asset2)
	bid1 := signedBid(t, b1, asset1, escrowPub, rfq.ID)
	bid2 := signedBid(t, b2, asset2, escrowPub, rfq.ID)
	commitBlock(t, n, 2, bid1, bid2)
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPub, rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, n.Escrow(), requester); err != nil {
		t.Fatal(err)
	}
	n.SetChildSubmitter(func(*txn.Transaction) {}) // children lost in flight
	commitBlock(t, n, 3, acc)

	// Kill before any child commits; restart and replay.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	rec, err := n2.State().RecoveryFor(acc.ID)
	if err != nil || rec.Status != ledger.RecoveryPending || len(rec.Pending) != 2 {
		t.Fatalf("recovered record = %+v, %v", rec, err)
	}
	var resubmitted []*txn.Transaction
	n2.SetChildSubmitter(func(child *txn.Transaction) { resubmitted = append(resubmitted, child) })
	if replayed := n2.Recover(); replayed != 2 {
		t.Fatalf("Recover replayed %d pending children, want 2", replayed)
	}
	if len(resubmitted) != 2 {
		t.Fatalf("Recover resubmitted %d children, want 2", len(resubmitted))
	}
	commitBlock(t, n2, 1, resubmitted...) // ledger height 4 = recovered 3 + consensus 1
	rec, err = n2.State().RecoveryFor(acc.ID)
	if err != nil || rec.Status != ledger.RecoveryComplete {
		t.Fatalf("post-replay record = %+v, %v", rec, err)
	}
	if n2.State().Balance(requester.PublicBase58(), asset1.ID) != 1 ||
		n2.State().Balance(b2.PublicBase58(), asset2.ID) != 1 {
		t.Error("replayed children did not settle the auction")
	}
}

// TestCrashBetweenSealAndJoinKeepsChildren kills a node between a
// block's seal and its join — the join runs the post-commit hooks — at
// two points of one auction: right after the ACCEPT_BID's block (its
// recovery record and children were never written or queued), and
// right after the block holding the first of its two children (that
// child never marked itself done). After the reopen, Recover and a
// commit of what it resubmits, the recovery record is COMPLETE and the
// chain is the one the same history reaches without a crash.
func TestCrashBetweenSealAndJoinKeepsChildren(t *testing.T) {
	escrow := NewNode(Config{ReservedSeed: 42}).Escrow()
	escrowPub := escrow.PublicBase58()
	requester := keys.MustGenerate()
	b1, b2 := keys.MustGenerate(), keys.MustGenerate()
	rfq := signedRequest(t, requester, "cnc")
	asset1, asset2 := signedCreate(t, b1, "cnc"), signedCreate(t, b2, "cnc")
	bid1 := signedBid(t, b1, asset1, escrowPub, rfq.ID)
	bid2 := signedBid(t, b2, asset2, escrowPub, rfq.ID)
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrowPub, rfq.ID, bid1, []*txn.Transaction{bid2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrow, requester); err != nil {
		t.Fatal(err)
	}

	// run commits the auction — blocks 1 to 3, then one block per child
	// — and cuts the node after block cut's seal, before its join
	// (0: no cut). It returns the fingerprint the history ends at.
	run := func(cut int64) string {
		cfg := Config{ReservedSeed: 42, DataDir: t.TempDir()}
		n := NewNode(cfg)
		var children []*txn.Transaction
		n.SetChildSubmitter(func(child *txn.Transaction) { children = append(children, child) })
		blocks := [][]*txn.Transaction{{rfq, asset1, asset2}, {bid1, bid2}, {acc}}
		for h := int64(1); ; h++ {
			if h > 3 {
				if len(children) < int(h-3) {
					break
				}
				blocks = append(blocks, children[h-4:h-3])
			}
			if h != cut {
				commitBlock(t, n, h, blocks[h-1]...)
				continue
			}
			txs := make([]consensus.Tx, len(blocks[h-1]))
			for i, tx := range blocks[h-1] {
				txs[i] = tx
			}
			n.CommitStart(h, txs) // never joined
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err = OpenNode(cfg); err != nil {
				t.Fatal(err)
			}
			var resubmitted []*txn.Transaction
			n.SetChildSubmitter(func(child *txn.Transaction) { resubmitted = append(resubmitted, child) })
			want := map[int64]int{3: 2, 4: 1}[cut]
			if got := n.Recover(); got != want || len(resubmitted) != want {
				t.Fatalf("cut after block %d: Recover resubmitted %d children (reported %d), want %d", cut, len(resubmitted), got, want)
			}
			for i, child := range resubmitted {
				commitBlock(t, n, int64(i+1), child) // consensus heights count on from the reopened ledger's
			}
			break
		}
		defer n.Close()
		rec, err := n.State().RecoveryFor(acc.ID)
		if err != nil || rec.Status != ledger.RecoveryComplete || len(rec.Done) != 2 {
			t.Fatalf("cut after block %d: recovery record %+v, %v", cut, rec, err)
		}
		return n.State().Fingerprint()
	}

	want := run(0)
	for _, cut := range []int64{3, 4} {
		if got := run(cut); got != want {
			t.Errorf("cut after block %d: fingerprint %s, the uncut history's %s", cut, got, want)
		}
	}
}
