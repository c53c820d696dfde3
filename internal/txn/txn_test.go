package txn

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"smartchaindb/internal/keys"
)

func testCreate(t *testing.T, issuer *keys.KeyPair) *Transaction {
	t.Helper()
	tx := NewCreate(issuer.PublicBase58(), map[string]any{
		"capabilities": []any{"3d-printing", "cnc"},
		"model":        "MX-9",
	}, 10, map[string]any{"note": "test asset"})
	if err := Sign(tx, issuer); err != nil {
		t.Fatalf("sign: %v", err)
	}
	return tx
}

func TestCreateSignVerify(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	if tx.ID == "" || len(tx.ID) != 64 {
		t.Fatalf("ID = %q, want 64 hex chars", tx.ID)
	}
	if err := VerifyFulfillments(tx); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if tx.AssetID() != tx.ID {
		t.Errorf("CREATE AssetID = %s, want own ID", tx.AssetID())
	}
}

func TestTamperedPayloadFailsVerification(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)

	tampered := tx.Clone()
	tampered.Outputs[0].Amount = 9999
	if err := VerifyFulfillments(tampered); err == nil {
		t.Fatal("tampered amount should fail verification")
	}

	tampered = tx.Clone()
	tampered.Metadata["note"] = "changed"
	if err := VerifyFulfillments(tampered); err == nil {
		t.Fatal("tampered metadata should fail verification")
	}

	tampered = tx.Clone()
	other := keys.MustGenerate()
	tampered.Outputs[0].PublicKeys = []string{other.PublicBase58()}
	if err := VerifyFulfillments(tampered); err == nil {
		t.Fatal("rerouted output should fail verification")
	}
}

func TestIDIndependentOfFulfillment(t *testing.T) {
	issuer := keys.MustGenerate()
	a := NewCreate(issuer.PublicBase58(), map[string]any{"k": "v"}, 1, nil)
	b := NewCreate(issuer.PublicBase58(), map[string]any{"k": "v"}, 1, nil)
	if err := Sign(a, issuer); err != nil {
		t.Fatal(err)
	}
	if err := Sign(b, issuer); err != nil {
		t.Fatal(err)
	}
	// ed25519 signatures are deterministic, but the ID must be derived
	// from the unsigned payload regardless.
	if a.ID != b.ID {
		t.Errorf("identical payloads got different IDs: %s vs %s", a.ID, b.ID)
	}
	if a.ComputeID() != a.ID {
		t.Error("ComputeID changed after signing")
	}
}

func TestChildrenExcludedFromID(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	withChildren := tx.Clone()
	withChildren.Children = []string{"deadbeef"}
	if withChildren.ComputeID() != tx.ID {
		t.Error("assigning children must not change the transaction ID")
	}
	if err := VerifyFulfillments(withChildren); err != nil {
		t.Errorf("children assignment must not break signatures: %v", err)
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	a := tx.MarshalCanonical()
	b := tx.Clone().MarshalCanonical()
	if string(a) != string(b) {
		t.Error("canonical form differs between clones")
	}
	var doc map[string]any
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("canonical form is not valid JSON: %v", err)
	}
}

func TestCanonicalSortsKeys(t *testing.T) {
	got := string(CanonicalizeDoc(map[string]any{"b": 1.0, "a": []any{map[string]any{"z": nil, "y": "s"}}}))
	want := `{"a":[{"y":"s","z":null}],"b":1}`
	if got != want {
		t.Errorf("canonicalize = %s, want %s", got, want)
	}
}

func TestCanonicalPropertyRoundTrip(t *testing.T) {
	// For arbitrary string->string maps, canonical JSON must round-trip
	// and be insensitive to insertion order.
	f := func(m map[string]string) bool {
		doc := make(map[string]any, len(m))
		for k, v := range m {
			doc[k] = v
		}
		c1 := CanonicalizeDoc(doc)
		var back map[string]any
		if err := json.Unmarshal(c1, &back); err != nil {
			return false
		}
		return string(CanonicalizeDoc(back)) == string(c1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToDocFromDocRoundTrip(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	back, err := FromDoc(tx.ToDoc())
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != tx.ID || back.Operation != tx.Operation {
		t.Errorf("round trip lost identity: %+v", back)
	}
	if string(back.MarshalCanonical()) != string(tx.MarshalCanonical()) {
		t.Error("round trip changed canonical form")
	}
	if err := VerifyFulfillments(back); err != nil {
		t.Errorf("round-tripped transaction no longer verifies: %v", err)
	}
}

func TestTransferBuilderAndMultiOwner(t *testing.T) {
	alice, bob, carol := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	create := NewCreate(alice.PublicBase58(), map[string]any{"thing": 1}, 5, nil)
	if err := Sign(create, alice); err != nil {
		t.Fatal(err)
	}
	// Transfer 5 shares to joint ownership of bob+carol.
	tr := NewTransfer(create.ID,
		[]Spend{{Ref: OutputRef{TxID: create.ID, Index: 0}, Owners: []string{alice.PublicBase58()}}},
		[]*Output{{PublicKeys: []string{bob.PublicBase58(), carol.PublicBase58()}, Amount: 5, PrevOwners: []string{alice.PublicBase58()}}},
		nil)
	if err := Sign(tr, alice); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFulfillments(tr); err != nil {
		t.Fatal(err)
	}
	// Spend the joint output: requires both signatures.
	tr2 := NewTransfer(create.ID,
		[]Spend{{Ref: OutputRef{TxID: tr.ID, Index: 0}, Owners: []string{bob.PublicBase58(), carol.PublicBase58()}}},
		[]*Output{{PublicKeys: []string{alice.PublicBase58()}, Amount: 5}},
		nil)
	if err := Sign(tr2, bob); err == nil {
		t.Fatal("signing a joint input without all keys should fail")
	}
	if err := Sign(tr2, bob, carol); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFulfillments(tr2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tr2.Inputs[0].Fulfillment, "ms:") {
		t.Error("joint input should carry a multisig fulfillment")
	}
}

func TestMultisigMissingOwnerSignatureRejected(t *testing.T) {
	alice, bob, eve := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	tr := NewTransfer("someasset",
		[]Spend{{Ref: OutputRef{TxID: "ff", Index: 0}, Owners: []string{alice.PublicBase58(), bob.PublicBase58()}}},
		[]*Output{{PublicKeys: []string{eve.PublicBase58()}, Amount: 1}}, nil)
	if err := Sign(tr, alice, bob); err != nil {
		t.Fatal(err)
	}
	// Swap bob's signature for eve's: owner coverage must fail.
	ms, err := keys.ParseMultiSig(tr.Inputs[0].Fulfillment)
	if err != nil {
		t.Fatal(err)
	}
	payload := tr.SigningPayload()
	delete(ms.Sigs, bob.PublicBase58())
	ms.Sigs[eve.PublicBase58()] = eve.Sign(payload)
	tr.Inputs[0].Fulfillment = ms.String()
	if err := VerifyFulfillments(tr); err == nil {
		t.Fatal("fulfillment missing an owner's signature should fail")
	}
}

func TestBidBuilder(t *testing.T) {
	bidder, escrow := keys.MustGenerate(), keys.MustGenerate()
	asset := testCreate(t, bidder)
	bid := NewBid(bidder.PublicBase58(), asset.ID,
		Spend{Ref: OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		10, escrow.PublicBase58(), "rfq-id-123", map[string]any{"price": 250})
	if err := Sign(bid, bidder); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFulfillments(bid); err != nil {
		t.Fatal(err)
	}
	if !bid.HasRef("rfq-id-123") {
		t.Error("BID must reference its REQUEST")
	}
	if bid.Outputs[0].PublicKeys[0] != escrow.PublicBase58() {
		t.Error("BID output must be owned by escrow")
	}
	if bid.Outputs[0].PrevOwners[0] != bidder.PublicBase58() {
		t.Error("BID output must record bidder as previous owner")
	}
}

func TestAcceptBidBuilder(t *testing.T) {
	requester, escrow := keys.MustGenerate(), keys.MustGenerate()
	bidder1, bidder2 := keys.MustGenerate(), keys.MustGenerate()

	mkBid := func(b *keys.KeyPair) *Transaction {
		asset := testCreate(t, b)
		bid := NewBid(b.PublicBase58(), asset.ID,
			Spend{Ref: OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{b.PublicBase58()}},
			10, escrow.PublicBase58(), "rfq-1", nil)
		if err := Sign(bid, b); err != nil {
			t.Fatal(err)
		}
		return bid
	}
	win, lose := mkBid(bidder1), mkBid(bidder2)

	acc, err := NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), "rfq-1", win, []*Transaction{lose}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Sign(acc, escrow, requester); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFulfillments(acc); err != nil {
		t.Fatal(err)
	}
	if len(acc.Inputs) != 2 || len(acc.Outputs) != 2 {
		t.Fatalf("inputs/outputs = %d/%d, want 2/2", len(acc.Inputs), len(acc.Outputs))
	}
	// All parent outputs stay escrow-held; children realize them.
	if acc.Outputs[0].PublicKeys[0] != escrow.PublicBase58() {
		t.Error("winning output must stay under escrow pending child TRANSFER")
	}
	if acc.Outputs[0].PrevOwners[0] != bidder1.PublicBase58() {
		t.Error("winning output must record the winning bidder")
	}
	if acc.Outputs[1].PublicKeys[0] != escrow.PublicBase58() {
		t.Error("losing output must stay under escrow pending RETURN")
	}
	if acc.Outputs[1].PrevOwners[0] != bidder2.PublicBase58() {
		t.Error("losing output must record the original bidder")
	}
	if acc.Asset.ID != win.ID {
		t.Error("ACCEPT_BID asset must anchor to the winning bid")
	}
}

func TestAcceptBidRejectsBidWithoutPrevOwner(t *testing.T) {
	requester, escrow, bidder := keys.MustGenerate(), keys.MustGenerate(), keys.MustGenerate()
	bad := testCreate(t, bidder) // a CREATE, not a BID: no PrevOwners
	if _, err := NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), "r", bad, nil, nil); err == nil {
		t.Fatal("expected error for bid lacking previous owner")
	}
}

func TestReturnBuilder(t *testing.T) {
	escrow, bidder := keys.MustGenerate(), keys.MustGenerate()
	ret := NewReturn(escrow.PublicBase58(), "accept-id", 1, bidder.PublicBase58(), 10, "asset-id", nil)
	if err := Sign(ret, escrow); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFulfillments(ret); err != nil {
		t.Fatal(err)
	}
	if ret.Inputs[0].Fulfills.TxID != "accept-id" || ret.Inputs[0].Fulfills.Index != 1 {
		t.Errorf("RETURN must spend the parent output: %+v", ret.Inputs[0].Fulfills)
	}
	if !ret.HasRef("accept-id") {
		t.Error("RETURN must reference its parent")
	}
}

func TestSignMissingKey(t *testing.T) {
	alice, bob := keys.MustGenerate(), keys.MustGenerate()
	tx := NewCreate(alice.PublicBase58(), nil, 1, nil)
	if err := Sign(tx, bob); err == nil {
		t.Fatal("signing with the wrong key should fail")
	}
}

func TestHelpers(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	if got := tx.OutputAmount(); got != 10 {
		t.Errorf("OutputAmount = %d, want 10", got)
	}
	if refs := tx.SpentRefs(); len(refs) != 0 {
		t.Errorf("CREATE should spend nothing, got %v", refs)
	}
	owners := tx.OwnerSet()
	if len(owners) != 1 || owners[0] != issuer.PublicBase58() {
		t.Errorf("OwnerSet = %v", owners)
	}
	if !tx.Outputs[0].OwnedBy(issuer.PublicBase58()) {
		t.Error("OwnedBy should find issuer")
	}
	if tx.Outputs[0].OwnedBy("someone-else") {
		t.Error("OwnedBy should reject stranger")
	}
	if len(Operations()) != 6 {
		t.Errorf("Operations() = %v", Operations())
	}
}

func TestCloneIsDeep(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	c := tx.Clone()
	c.Outputs[0].PublicKeys[0] = "mutated"
	c.Asset.Data["capabilities"].([]any)[0] = "mutated"
	c.Metadata["note"] = "mutated"
	if tx.Outputs[0].PublicKeys[0] == "mutated" {
		t.Error("clone shares output key slice")
	}
	if tx.Asset.Data["capabilities"].([]any)[0] == "mutated" {
		t.Error("clone shares asset data")
	}
	if tx.Metadata["note"] == "mutated" {
		t.Error("clone shares metadata")
	}
	if (*Transaction)(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestErrorStrings(t *testing.T) {
	errs := []error{
		&SchemaError{Op: "BID", Path: "/outputs/0", Msg: "missing"},
		&ValidationError{Op: "BID", Cond: "BID.6", Reason: "not escrow"},
		&ValidationError{Op: "BID", Reason: "generic"},
		&InputDoesNotExistError{TxID: "abcdef0123456789"},
		&DoubleSpendError{Ref: OutputRef{TxID: "abcdef0123456789", Index: 2}, SpentBy: "fedcba9876543210"},
		&DuplicateTransactionError{TxID: "abcdef0123456789", Reason: "accept exists"},
		&InsufficientCapabilitiesError{Missing: []string{"cnc"}},
		&AmountError{Op: "TRANSFER", Want: 5, Got: 7},
	}
	for _, e := range errs {
		if e.Error() == "" {
			t.Errorf("%T has empty message", e)
		}
	}
}

func TestDocTypesAreJSONSafe(t *testing.T) {
	issuer := keys.MustGenerate()
	tx := testCreate(t, issuer)
	doc := tx.ToDoc()
	// Everything in a doc must be JSON-native so the schema validator
	// and docstore can treat documents uniformly.
	var walk func(v any) bool
	walk = func(v any) bool {
		switch x := v.(type) {
		case nil, bool, string, float64:
			return true
		case map[string]any:
			for _, e := range x {
				if !walk(e) {
					return false
				}
			}
			return true
		case []any:
			for _, e := range x {
				if !walk(e) {
					return false
				}
			}
			return true
		default:
			t.Errorf("non-JSON type %T in doc", v)
			return false
		}
	}
	walk(doc)
	if !reflect.DeepEqual(doc["operation"], "CREATE") {
		t.Errorf("operation = %#v", doc["operation"])
	}
}
