package server

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/obs"
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
	n.SetChildSubmitter(collectChildren(&children))
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
	n.SetChildSubmitter(dropChildren) // children lost in flight
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
	n2.SetChildSubmitter(collectChildren(&resubmitted))
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
// block's seal and its join — the join hands an ACCEPT_BID's children
// to the submitter — at two points of one auction: right after the
// ACCEPT_BID's block (no child was ever submitted), and right after the
// block holding the first of its two children. After the reopen,
// Recover and a commit of what it resubmits, the recovery record is
// COMPLETE and the chain is the one the same history reaches without a
// crash.
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
		n.SetChildSubmitter(collectChildren(&children))
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
			n.SetChildSubmitter(collectChildren(&resubmitted))
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

// auctionFixture is one three-bid auction, signed and uncommitted, its
// blocks in order: the REQUEST and the bidders' assets, the bids, the
// ACCEPT_BID, and one unrelated CREATE.
func auctionFixture(t *testing.T, escrow *keys.KeyPair) (acc *txn.Transaction, blocks [][]*txn.Transaction) {
	t.Helper()
	requester := keys.MustGenerate()
	rfq := signedRequest(t, requester, "cnc")
	fixed := [][]*txn.Transaction{{rfq}, nil}
	var bids []*txn.Transaction
	for i := 0; i < 3; i++ {
		bidder := keys.MustGenerate()
		asset := signedCreate(t, bidder, "cnc")
		fixed[0] = append(fixed[0], asset)
		bids = append(bids, signedBid(t, bidder, asset, escrow.PublicBase58(), rfq.ID))
	}
	fixed[1] = bids
	acc, err := txn.NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), rfq.ID, bids[0], bids[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(acc, escrow, requester); err != nil {
		t.Fatal(err)
	}
	return acc, append(fixed, []*txn.Transaction{acc}, []*txn.Transaction{signedCreate(t, keys.MustGenerate(), "cnc")})
}

func asConsensusTxs(batch []*txn.Transaction) []consensus.Tx {
	txs := make([]consensus.Tx, len(batch))
	for i, tx := range batch {
		txs[i] = tx
	}
	return txs
}

// TestOneWALGroupPerBlock: the nested bookkeeping seals with its block —
// the ACCEPT_BID's recovery record, and each child's mark and its
// parent's children field — so on a disk node every block of an
// auction, the ACCEPT_BID's and each child's, writes exactly one WAL
// group.
func TestOneWALGroupPerBlock(t *testing.T) {
	reg := obs.New()
	n := NewNode(Config{ReservedSeed: 42, DataDir: t.TempDir(), NoSync: true, Obs: reg})
	defer n.Close()
	acc, blocks := auctionFixture(t, n.Escrow())
	var children []*txn.Transaction
	n.SetChildSubmitter(collectChildren(&children))
	groups := func() uint64 { return reg.Snapshot().Counters["storage.wal.groups"] }
	for h, block := range blocks[:3] {
		before := groups()
		commitBlock(t, n, int64(h+1), block...)
		if got := groups() - before; block[0] == acc && got != 1 {
			t.Errorf("the ACCEPT_BID's block wrote %d WAL groups, want 1", got)
		}
	}
	if len(children) != 3 {
		t.Fatalf("the ACCEPT_BID's join submitted %d children, want 3", len(children))
	}
	for i, child := range children {
		before := groups()
		commitBlock(t, n, int64(4+i), child)
		if got := groups() - before; got != 1 {
			t.Errorf("child %d's block wrote %d WAL groups, want 1", i, got)
		}
	}
	if rec, err := n.State().RecoveryFor(acc.ID); err != nil || rec.Status != ledger.RecoveryComplete {
		t.Fatalf("recovery record %+v, %v", rec, err)
	}
}

// TestJoinWritesNothingAPinnedViewSees: block h's seal writes all of
// the nested bookkeeping, so a view pinned at h reads the same recovery
// record and the same parent children before the join of block h and
// after it — for the ACCEPT_BID's block and for a child's.
func TestJoinWritesNothingAPinnedViewSees(t *testing.T) {
	n := NewNode(Config{ReservedSeed: 42})
	defer n.Close()
	acc, blocks := auctionFixture(t, n.Escrow())
	var children []*txn.Transaction
	n.SetChildSubmitter(collectChildren(&children))
	read := func(v *ledger.StateView) string {
		var children []string
		if parent, err := v.GetTx(acc.ID); err == nil {
			children = parent.Children
		}
		rec, err := v.RecoveryFor(acc.ID)
		if err != nil {
			return fmt.Sprintf("no record, parent children %v", children)
		}
		return fmt.Sprintf("record %s pending %d done %v, parent children %v", rec.Status, len(rec.Pending), rec.Done, children)
	}
	step := func(h int64, batch ...*txn.Transaction) {
		t.Helper()
		if invalid := n.ValidateBlock(asConsensusTxs(batch)); len(invalid) != 0 {
			t.Fatalf("block %d: %d transactions rejected", h, len(invalid))
		}
		join := n.CommitStart(h, asConsensusTxs(batch))
		n.DrainCommits()      // sealed, not joined
		v := n.State().View() // pinned at block h
		before := read(v)
		join()
		if after := read(v); after != before {
			t.Errorf("block %d: the view pinned at %d read %q before the join, %q after it", h, h, before, after)
		}
	}
	for h, block := range blocks[:3] {
		step(int64(h+1), block...)
	}
	if len(children) != 3 {
		t.Fatalf("the ACCEPT_BID's join submitted %d children, want 3", len(children))
	}
	step(4, children[0])
}

// TestCrashCutsKeepTheAuction kills a node with sealed, unjoined blocks
// at every point of an auction's nested part, at CommitDepth 2: after
// the ACCEPT_BID's block and the next one, both unjoined — what
// consensus's decide leaves when it applies two decided heights in one
// event — and after each single block from the ACCEPT_BID's to its last
// child's. After the reopen, Recover, and a commit of the rest of the
// history and of what Recover submitted, the recovery record is
// COMPLETE and the fingerprint is the uncut history's.
func TestCrashCutsKeepTheAuction(t *testing.T) {
	escrow := NewNode(Config{ReservedSeed: 42}).Escrow()
	acc, fixed := auctionFixture(t, escrow)

	// run commits the four fixed blocks, then each child in a block of
	// its own, leaving blocks from to to sealed and unjoined (from 0: no
	// cut) and killing the node after to. It returns the fingerprint
	// the history ends at.
	run := func(from, to int64) string {
		cfg := Config{ReservedSeed: 42, DataDir: t.TempDir(), NoSync: true, CommitDepth: 2}
		n := NewNode(cfg)
		var children []*txn.Transaction
		n.SetChildSubmitter(collectChildren(&children))
		blocks := slices.Clone(fixed)
		for h := int64(1); ; h++ {
			if k := int(h) - len(fixed); k > 0 { // child k's block
				if k > len(children) {
					break
				}
				blocks = append(blocks, children[k-1:k])
			}
			if from == 0 || h < from {
				commitBlock(t, n, h, blocks[h-1]...)
				continue
			}
			n.CommitStart(h, asConsensusTxs(blocks[h-1])) // never joined
			if h < to {
				continue
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if n, err = OpenNode(cfg); err != nil {
				t.Fatal(err)
			}
			var resubmitted []*txn.Transaction
			n.SetChildSubmitter(collectChildren(&resubmitted))
			want := 3 - max(0, int(to)-len(fixed))
			if got := n.Recover(); got != want || len(resubmitted) != want {
				t.Fatalf("cut %d–%d: Recover resubmitted %d children (reported %d), want %d", from, to, len(resubmitted), got, want)
			}
			rest := blocks[min(int(to), len(fixed)):len(fixed)]
			for _, child := range resubmitted {
				rest = append(rest, []*txn.Transaction{child})
			}
			for i, block := range rest {
				commitBlock(t, n, int64(i+1), block...) // consensus heights count on from the reopened ledger's
			}
			break
		}
		defer n.Close()
		rec, err := n.State().RecoveryFor(acc.ID)
		if err != nil || rec.Status != ledger.RecoveryComplete || len(rec.Done) != 3 {
			t.Fatalf("cut %d–%d: recovery record %+v, %v", from, to, rec, err)
		}
		return n.State().Fingerprint()
	}

	want := run(0, 0)
	cuts := [][2]int64{{3, 4}} // the ACCEPT_BID's block and the next
	for h := int64(3); h <= 7; h++ {
		cuts = append(cuts, [2]int64{h, h})
	}
	for _, cut := range cuts {
		if got := run(cut[0], cut[1]); got != want {
			t.Errorf("cut %d–%d: fingerprint %s, the uncut history's %s", cut[0], cut[1], got, want)
		}
	}
}
