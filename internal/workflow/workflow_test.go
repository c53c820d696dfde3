package workflow

import (
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

func TestValidSequences(t *testing.T) {
	ra := ReverseAuction()
	good := [][]string{
		{txn.OpCreate},
		{txn.OpCreate, txn.OpTransfer},
		{txn.OpCreate, txn.OpBid, txn.OpAcceptBid},
		{txn.OpRequest, txn.OpBid, txn.OpAcceptBid},
		{txn.OpRequest, txn.OpBid, txn.OpAcceptBid, txn.OpTransfer},
		{txn.OpCreate, txn.OpBid, txn.OpAcceptBid, txn.OpReturn},
		{txn.OpCreate, txn.OpTransfer, txn.OpTransfer},
	}
	for _, seq := range good {
		if err := ra.ValidSequence(seq); err != nil {
			t.Errorf("%v rejected: %v", seq, err)
		}
	}
	bad := [][]string{
		{},
		{txn.OpBid},                     // cannot initiate
		{txn.OpCreate, txn.OpAcceptBid}, // illegal step
		{txn.OpRequest},                 // REQUEST is not terminal
		{txn.OpRequest, txn.OpBid},      // BID is not terminal
		{txn.OpCreate, txn.OpRequest},   // illegal step
		{txn.OpRequest, txn.OpBid, txn.OpAcceptBid, txn.OpBid}, // illegal step
	}
	for _, seq := range bad {
		if err := ra.ValidSequence(seq); err == nil {
			t.Errorf("%v accepted", seq)
		}
	}
}

func TestSimpleTransferSpec(t *testing.T) {
	st := SimpleTransfer()
	if err := st.ValidSequence([]string{txn.OpCreate, txn.OpTransfer, txn.OpTransfer}); err != nil {
		t.Error(err)
	}
	if err := st.ValidSequence([]string{txn.OpCreate, txn.OpBid}); err == nil {
		t.Error("BID should be illegal in simple-transfer")
	}
}

// buildAuction runs a complete auction on a standalone server node and
// returns the node plus the key transactions.
func buildAuction(t *testing.T) (*server.Node, *txn.Transaction, *txn.Transaction, *txn.Transaction) {
	t.Helper()
	n := server.NewNode(server.Config{ReservedSeed: 3})
	requester, bidder := keys.MustGenerate(), keys.MustGenerate()

	rfq := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}}, nil)
	if err := txn.Sign(rfq, requester); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(rfq); err != nil {
		t.Fatal(err)
	}
	asset := txn.NewCreate(bidder.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}}, 1, nil)
	if err := txn.Sign(asset, bidder); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(asset); err != nil {
		t.Fatal(err)
	}
	bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		1, n.Escrow().PublicBase58(), rfq.ID, nil)
	if err := txn.Sign(bid, bidder); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(bid); err != nil {
		t.Fatal(err)
	}
	accept, err := txn.NewAcceptBid(requester.PublicBase58(), n.Escrow().PublicBase58(), rfq.ID, bid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(accept, n.Escrow(), requester); err != nil {
		t.Fatal(err)
	}
	if err := n.Apply(accept); err != nil {
		t.Fatal(err)
	}
	return n, asset, bid, accept
}

func TestTraceReconstructsWorkflow(t *testing.T) {
	n, asset, _, accept := buildAuction(t)
	// The accept's child TRANSFER ends the winning asset's workflow.
	parent, err := n.State().GetTx(accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.Children) != 1 {
		t.Fatalf("children = %v", parent.Children)
	}
	ops, ids, err := Trace(n.State(), parent.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CREATE", "BID", "ACCEPT_BID", "TRANSFER"}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("ops = %v, want %v", ops, want)
	}
	if ids[0] != asset.ID {
		t.Errorf("trace head = %s, want the CREATE", ids[0][:8])
	}
	// The traced op path validates against the reverse-auction spec.
	if err := ReverseAuction().ValidSequence(ops); err != nil {
		t.Errorf("traced sequence invalid: %v", err)
	}
}

func TestTraceErrors(t *testing.T) {
	n := server.NewNode(server.Config{ReservedSeed: 3})
	if _, _, err := Trace(n.State(), "missing"); err == nil {
		t.Error("tracing a missing tx should fail")
	}
}
