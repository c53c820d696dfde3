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
