package bench

import (
	"fmt"
	"testing"

	"smartchaindb/internal/ethchain"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/minisol"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// TestCrossSystemOutcomeEquivalence runs the *same* reverse auction on
// both systems — SmartchainDB's native types and the baseline's
// marketplace contract — and checks they agree on the economics: the
// winner receives the winning asset, every loser is made whole, and a
// second acceptance is rejected. The two implementations share no
// code, so agreement is strong evidence both model the paper's
// semantics correctly.
func TestCrossSystemOutcomeEquivalence(t *testing.T) {
	const bidders = 4
	const winIdx = 2 // accept the third bid in both systems

	// --- SmartchainDB side -------------------------------------------
	node := server.NewNode(server.Config{ReservedSeed: 77})
	requester := keys.MustGenerate()
	rfq := txn.NewRequest(requester.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}}, nil)
	if err := txn.Sign(rfq, requester); err != nil {
		t.Fatal(err)
	}
	if err := node.Apply(rfq); err != nil {
		t.Fatal(err)
	}
	var scdbBidders []*keys.KeyPair
	var scdbAssets, scdbBids []*txn.Transaction
	for i := 0; i < bidders; i++ {
		kp := keys.MustGenerate()
		scdbBidders = append(scdbBidders, kp)
		asset := txn.NewCreate(kp.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}, "i": i}, 1, nil)
		if err := txn.Sign(asset, kp); err != nil {
			t.Fatal(err)
		}
		if err := node.Apply(asset); err != nil {
			t.Fatal(err)
		}
		scdbAssets = append(scdbAssets, asset)
		bid := txn.NewBid(kp.PublicBase58(), asset.ID,
			txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{kp.PublicBase58()}},
			1, node.Escrow().PublicBase58(), rfq.ID, nil)
		if err := txn.Sign(bid, kp); err != nil {
			t.Fatal(err)
		}
		if err := node.Apply(bid); err != nil {
			t.Fatal(err)
		}
		scdbBids = append(scdbBids, bid)
	}
	var losing []*txn.Transaction
	for i, b := range scdbBids {
		if i != winIdx {
			losing = append(losing, b)
		}
	}
	accept, err := txn.NewAcceptBid(requester.PublicBase58(), node.Escrow().PublicBase58(), rfq.ID, scdbBids[winIdx], losing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(accept, node.Escrow(), requester); err != nil {
		t.Fatal(err)
	}
	if err := node.Apply(accept); err != nil {
		t.Fatal(err)
	}
	// Second acceptance attempt must fail.
	accept2, err := txn.NewAcceptBid(requester.PublicBase58(), node.Escrow().PublicBase58(), rfq.ID, scdbBids[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(accept2, node.Escrow(), requester); err != nil {
		t.Fatal(err)
	}
	scdbSecondAcceptRejected := node.Apply(accept2) != nil

	scdbWinnerHolds := node.State().Balance(requester.PublicBase58(), scdbAssets[winIdx].ID) == 1
	scdbLosersWhole := true
	for i, kp := range scdbBidders {
		if i == winIdx {
			continue
		}
		if node.State().Balance(kp.PublicBase58(), scdbAssets[i].ID) != 1 {
			scdbLosersWhole = false
		}
	}

	// --- ETH-SC side --------------------------------------------------
	src, err := ethchain.ContractSource("marketplace")
	if err != nil {
		t.Fatal(err)
	}
	chain := ethchain.NewChain()
	deploy := &ethchain.Tx{Kind: ethchain.KindDeploy, From: "genesis", Source: src, Contract: "Marketplace", Nonce: 1}
	dr := chain.Execute(deploy)
	if dr.Failed() {
		t.Fatal(dr.Err)
	}
	addr := dr.ContractAddr
	nonce := uint64(1)
	call := func(from, fn string, args ...minisol.Value) *ethchain.Receipt {
		nonce++
		return chain.Execute(&ethchain.Tx{Kind: ethchain.KindCall, From: from, To: addr, Fn: fn,
			Args: args, GasLimit: 1 << 40, Nonce: nonce})
	}
	capsArr := &minisol.Array{Elems: []minisol.Value{minisol.Str("cnc")}}
	if r := call("buyer", "createRfq", capsArr); r.Failed() {
		t.Fatal(r.Err)
	}
	for i := 0; i < bidders; i++ {
		if r := call(fmt.Sprintf("sup%d", i), "createAsset", capsArr); r.Failed() {
			t.Fatal(r.Err)
		}
	}
	for i := 0; i < bidders; i++ {
		if r := call(fmt.Sprintf("sup%d", i), "createBid", minisol.Int(1), minisol.Int(int64(i+1))); r.Failed() {
			t.Fatal(r.Err)
		}
	}
	if r := call("buyer", "acceptBid", minisol.Int(1), minisol.Int(int64(winIdx+1))); r.Failed() {
		t.Fatal(r.Err)
	}
	ethSecondAcceptRejected := call("buyer", "acceptBid", minisol.Int(1), minisol.Int(1)).Failed()

	ethWinnerHolds := call("x", "assetOwner", minisol.Int(int64(winIdx+1))).Ret == minisol.Addr("buyer")
	ethLosersWhole := true
	for i := 0; i < bidders; i++ {
		if i == winIdx {
			continue
		}
		owner := call("x", "assetOwner", minisol.Int(int64(i+1))).Ret
		locked := call("x", "assetLocked", minisol.Int(int64(i+1))).Ret
		if owner != minisol.Addr(fmt.Sprintf("sup%d", i)) || locked != minisol.Bool(false) {
			ethLosersWhole = false
		}
	}

	// --- The two systems must agree -----------------------------------
	if !scdbWinnerHolds || !ethWinnerHolds {
		t.Errorf("winner outcome: scdb=%v eth=%v", scdbWinnerHolds, ethWinnerHolds)
	}
	if !scdbLosersWhole || !ethLosersWhole {
		t.Errorf("loser refunds: scdb=%v eth=%v", scdbLosersWhole, ethLosersWhole)
	}
	if !scdbSecondAcceptRejected || !ethSecondAcceptRejected {
		t.Errorf("double accept: scdb rejected=%v eth rejected=%v",
			scdbSecondAcceptRejected, ethSecondAcceptRejected)
	}
}

// TestServerAcceptsCustomTypeEndToEnd registers a brand-new operation
// on a running server node — schema and semantics — and validates a
// transaction of that type through the full receiver path, proving the
// extensibility story at the node level.
func TestServerAcceptsCustomTypeEndToEnd(t *testing.T) {
	node := server.NewNode(server.Config{ReservedSeed: 5})
	// NOTARIZE: like CREATE but requires a non-empty "document" hash in
	// the asset data. One schema + one condition set, no server changes.
	schemaSrc := `
type: object
required: [id, operation, asset, outputs, inputs, version]
properties:
  operation:
    enum: [NOTARIZE]
  asset:
    type: object
    required: [data]
    properties:
      data:
        type: object
        required: [document]
`
	compiled, err := schema.CompileYAML(schemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Schemas().Register("NOTARIZE", compiled); err != nil {
		t.Fatal(err)
	}
	if err := node.Types().Register(&txtype.Type{
		Op: "NOTARIZE",
		Conditions: []txtype.Condition{
			{Name: "NOTARIZE.1", Doc: "all fulfillments verify", Check: func(_ *txtype.Context, t *txn.Transaction) error {
				return txn.VerifyFulfillments(t)
			}},
			{Name: "NOTARIZE.2", Doc: "not a duplicate", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if ctx.State.IsCommitted(t.ID) {
					return &txn.DuplicateTransactionError{TxID: t.ID, Reason: "already committed"}
				}
				return nil
			}},
		},
	}); err != nil {
		t.Fatal(err)
	}

	kp := keys.MustGenerate()
	tx := txn.NewCreate(kp.PublicBase58(), map[string]any{"document": "abc123"}, 1, nil)
	tx.Operation = "NOTARIZE"
	if err := txn.Sign(tx, kp); err != nil {
		t.Fatal(err)
	}
	if err := node.Apply(tx); err != nil {
		t.Fatalf("custom type rejected: %v", err)
	}
	// Missing document: schema rejects.
	bad := txn.NewCreate(kp.PublicBase58(), map[string]any{"other": 1}, 1, nil)
	bad.Operation = "NOTARIZE"
	if err := txn.Sign(bad, kp); err != nil {
		t.Fatal(err)
	}
	if err := node.Apply(bad); err == nil {
		t.Fatal("schema should reject document-less NOTARIZE")
	}
}
