package txn_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// corpus is what the codec differential and the fuzz target both start
// from: every generator in internal/workload at three payload sizes,
// the nested children, and hand-built transactions for each rule the
// JSON round trip applied silently.
func corpus() []*txn.Transaction {
	txs := generated()

	hand := func(mut func(t *txn.Transaction)) {
		t := txn.NewTransfer("a<s&s>et ",
			[]txn.Spend{
				{Ref: txn.OutputRef{TxID: "funding", Index: 0}, Owners: []string{"alice"}},
				{Ref: txn.OutputRef{TxID: "funding", Index: -3}, Owners: []string{"alice", "bob"}},
			},
			[]*txn.Output{{PublicKeys: []string{"carol"}, Amount: 7, PrevOwners: []string{"alice"}}},
			map[string]any{"note": "n"})
		t.ID = "some-id"
		t.Inputs[0].Fulfillment = "sig"
		mut(t)
		txs = append(txs, t)
	}
	hand(func(t *txn.Transaction) {})
	// Nil and empty at every level the struct allows them.
	hand(func(t *txn.Transaction) { t.Asset = nil })
	hand(func(t *txn.Transaction) { t.Asset = &txn.Asset{} })
	hand(func(t *txn.Transaction) { t.Asset = &txn.Asset{Data: map[string]any{}} })
	hand(func(t *txn.Transaction) { t.Asset = &txn.Asset{Data: map[string]any{"k": "v"}, Shares: 12} })
	hand(func(t *txn.Transaction) {
		t.Asset = &txn.Asset{ID: "link", Data: map[string]any{"dropped": true}, Shares: 3}
	})
	hand(func(t *txn.Transaction) { t.Outputs, t.Inputs = nil, nil })
	hand(func(t *txn.Transaction) { t.Outputs, t.Inputs = []*txn.Output{}, []*txn.Input{} })
	hand(func(t *txn.Transaction) { t.Outputs, t.Inputs = []*txn.Output{nil, {}}, []*txn.Input{nil, {}} })
	hand(func(t *txn.Transaction) { t.Outputs[0].PrevOwners = []string{} })
	hand(func(t *txn.Transaction) { t.Outputs[0].PrevOwners, t.Outputs[0].PublicKeys = nil, []string{} })
	hand(func(t *txn.Transaction) { t.Metadata = nil })
	hand(func(t *txn.Transaction) { t.Metadata = map[string]any{} })
	hand(func(t *txn.Transaction) { t.Children, t.Refs = []string{}, []string{} })
	hand(func(t *txn.Transaction) { t.Children, t.Refs = []string{"c1", "c2"}, []string{"r<1>"} })
	hand(func(t *txn.Transaction) { t.ID, t.Operation, t.Version = "", "", "" })
	hand(func(t *txn.Transaction) { t.Outputs[0].Amount = txn.MaxAmount })
	hand(func(t *txn.Transaction) { t.Outputs[0].Amount = math.MaxUint64 })
	// Strings: HTML-escaped on the way out, invalid UTF-8 replaced per
	// byte on the way through.
	hand(func(t *txn.Transaction) {
		t.ID, t.Operation = "bad\xffid", "<OP>& "
		t.Outputs[0].PublicKeys = []string{"\xfe\xfd", "ok"}
		t.Inputs[0].Fulfillment = "sig\xc0"
		t.Inputs[1].Fulfills.TxID = "tx\xff"
		t.Refs = []string{"ref\x80"}
	})
	hand(func(t *txn.Transaction) {
		t.Metadata = map[string]any{
			"bad\xffkey": "v\xfe", "bad\xfekey": "collides", "fine": []any{"\xff", map[string]any{"\xc0": 1}},
		}
	})
	// Free-form values: Go integers, nesting, nil containers, awkward
	// floats, and Go types outside the document shape.
	hand(func(t *txn.Transaction) {
		t.Metadata = map[string]any{
			"int": 250, "neg": -4, "i64": int64(1)<<62 + 1, "u64": uint64(math.MaxUint64),
			"f": 3.25, "negzero": math.Copysign(0, -1), "big": 1e21, "small": 2e-7,
			"nil": nil, "bool": true, "nilmap": map[string]any(nil), "nilslice": []any(nil),
			"nested": map[string]any{"list": []any{1, "two", 3.0, []any{}, map[string]any{}}, "deep": map[string]any{"n": uint64(9)}},
		}
		t.Asset = &txn.Asset{Data: map[string]any{"capabilities": []any{"cnc", 3}, "seq": 41}, Shares: 2}
	})
	hand(func(t *txn.Transaction) {
		t.Metadata = map[string]any{
			"strings": []string{"a", "b"}, "typedmap": map[string]int{"x": 1}, "f32": float32(0.1),
			"i32": int32(-9), "u8": uint8(200), "num": json.Number("12.50"), "bytes": []byte("hi"),
			"struct": struct {
				A int `json:"a"`
			}{A: 1},
		}
	})
	return txs
}

// generated is the corpus's share built by internal/workload: every
// generator at three payload sizes, the nested children, and a fan-in.
func generated() []*txn.Transaction {
	escrow := keys.DeterministicKeyPair(7)
	g := workload.NewGenerator(11, escrow)
	var txs []*txn.Transaction
	for i, payload := range []int{0, 100, 1024} {
		grp := g.NewAuctionGroup(i*8, workload.AuctionGroupSpec{BiddersPerAuction: 3, PayloadBytes: payload})
		txs = append(txs, grp.Request, grp.Accept)
		txs = append(txs, grp.Creates...)
		txs = append(txs, grp.Bids...)

		ret := txn.NewReturn(escrow.PublicBase58(), grp.Accept.ID, 1, grp.Bidders[0].PublicBase58(), 1, grp.Creates[0].ID, nil)
		if err := txn.Sign(ret, escrow); err != nil {
			panic(err)
		}
		withChildren := grp.Accept.Clone()
		withChildren.Children = []string{ret.ID}
		txs = append(txs, ret, withChildren)
	}
	fund, fanIn := workload.FanIn(g.Account(90), g.Account(91).PublicBase58(), 3, 4)
	return append(txs, fund, fanIn)
}

func mustRef[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestCodecMatchesJSONReference pins the direct codec to the JSON
// round trips it replaced: the same document, the same signing and
// canonical bytes, the same decoded struct.
func TestCodecMatchesJSONReference(t *testing.T) {
	for i, tx := range corpus() {
		want := mustRef(txn.RefToDoc(tx))
		got := tx.ToDoc()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tx %d: ToDoc\n got %#v\nwant %#v", i, got, want)
		}
		if g, w := tx.SigningPayload(), mustRef(txn.RefSigningPayload(tx)); !bytes.Equal(g, w) {
			t.Fatalf("tx %d: SigningPayload\n got %s\nwant %s", i, g, w)
		}
		if g, w := tx.MarshalCanonical(), mustRef(txn.RefMarshalCanonical(tx)); !bytes.Equal(g, w) {
			t.Fatalf("tx %d: MarshalCanonical\n got %s\nwant %s", i, g, w)
		}
		checkFromDoc(t, got)
		// The struct's own JSON form is what a client posts.
		var posted map[string]any
		if err := json.Unmarshal(mustRef(json.Marshal(tx)), &posted); err != nil {
			t.Fatal(err)
		}
		checkFromDoc(t, posted)
	}
}

// TestCloneKeepsShape: a clone encodes to the original's bytes, nil
// and empty slices, nil entries and nil free-form lists included, so
// it signs the same payload and hashes to the same ID.
func TestCloneKeepsShape(t *testing.T) {
	for i, tx := range corpus() {
		c := tx.Clone()
		if g, w := c.MarshalCanonical(), tx.MarshalCanonical(); !bytes.Equal(g, w) {
			t.Fatalf("tx %d: MarshalCanonical of the clone\n got %s\nwant %s", i, g, w)
		}
		if g, w := c.SigningPayload(), tx.SigningPayload(); !bytes.Equal(g, w) {
			t.Fatalf("tx %d: SigningPayload of the clone\n got %s\nwant %s", i, g, w)
		}
	}
}

// checkFromDoc decodes doc with the direct decoder and with the
// reference and requires the same verdict and, on success, the same
// struct — then the same document and bytes back out of it.
func checkFromDoc(t *testing.T, doc map[string]any) {
	t.Helper()
	got, gerr := txn.FromDoc(doc)
	want, werr := txn.RefFromDoc(stripFolded(doc))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("FromDoc(%#v)\n direct error: %v\nreference error: %v", doc, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromDoc(%#v)\n got %s\nwant %s", doc, mustRef(json.Marshal(got)), mustRef(json.Marshal(want)))
	}
	if g, w := got.ToDoc(), mustRef(txn.RefToDoc(got)); !reflect.DeepEqual(g, w) {
		t.Fatalf("ToDoc of decoded %#v\n got %#v\nwant %#v", doc, g, w)
	}
	if g, w := got.SigningPayload(), mustRef(txn.RefSigningPayload(got)); !bytes.Equal(g, w) {
		t.Fatalf("SigningPayload of decoded %#v\n got %s\nwant %s", doc, g, w)
	}
	if g, w := got.MarshalCanonical(), mustRef(txn.RefMarshalCanonical(got)); !bytes.Equal(g, w) {
		t.Fatalf("MarshalCanonical of decoded %#v\n got %s\nwant %s", doc, g, w)
	}
}

// Field names per object level, for stripFolded.
var (
	txFields     = []string{"id", "operation", "asset", "outputs", "inputs", "children", "refs", "metadata", "version"}
	assetFields  = []string{"id", "data", "shares"}
	outputFields = []string{"public_keys", "amount", "prev_owners"}
	inputFields  = []string{"fulfills", "owners_before", "fulfillment"}
	refFields    = []string{"transaction_id", "output_index"}
)

// stripFolded returns doc without the keys that only match a struct
// field when case is folded ("ID", "Amount"). encoding/json lets such
// a key fill the field; the direct decoder must treat it as unknown —
// it is never more permissive than the reference, and on every other
// document the two agree exactly.
func stripFolded(doc map[string]any) map[string]any {
	out := stripLevel(doc, txFields)
	if a, ok := out["asset"].(map[string]any); ok {
		out["asset"] = stripLevel(a, assetFields)
	}
	stripList := func(key string, fields []string, each func(map[string]any)) {
		list, ok := out[key].([]any)
		if !ok || list == nil {
			return
		}
		cp := make([]any, len(list))
		for i, e := range list {
			if m, ok := e.(map[string]any); ok {
				m = stripLevel(m, fields)
				each(m)
				e = m
			}
			cp[i] = e
		}
		out[key] = cp
	}
	stripList("outputs", outputFields, func(map[string]any) {})
	stripList("inputs", inputFields, func(in map[string]any) {
		if ref, ok := in["fulfills"].(map[string]any); ok {
			in["fulfills"] = stripLevel(ref, refFields)
		}
	})
	return out
}

func stripLevel(m map[string]any, fields []string) map[string]any {
	if m == nil {
		return nil
	}
	out := make(map[string]any, len(m))
next:
	for k, v := range m {
		for _, f := range fields {
			if k != f && strings.EqualFold(k, f) {
				continue next
			}
		}
		out[k] = v
	}
	return out
}

// handDocs are documents no transaction encodes to: every shape the
// round trip refused, and the odd ones it accepted.
func handDocs() []map[string]any {
	out := func(amount any) map[string]any {
		return map[string]any{"outputs": []any{map[string]any{"public_keys": []any{"k"}, "amount": amount}}}
	}
	index := func(i any) map[string]any {
		return map[string]any{"inputs": []any{map[string]any{"fulfills": map[string]any{"transaction_id": "t", "output_index": i}}}}
	}
	return []map[string]any{
		{},
		nil,
		// Amounts and shares.
		out(5.0), out(0.0), out(float64(txn.MaxAmount)), out(float64(txn.MaxAmount) + 2), out(1e21),
		out(-1.0), out(1.5), out(math.Copysign(0, -1)), out("5"), out(true), out(nil), out([]any{}),
		out(5), out(-5), out(int64(9)), out(uint64(9)), out(uint64(math.MaxUint64)), out(int64(txn.MaxAmount) + 1),
		out(math.NaN()), out(math.Inf(1)), out(json.Number("7")), out(json.Number("7.5")), out(float32(3)),
		{"asset": map[string]any{"shares": 4.0}}, {"asset": map[string]any{"shares": -4.0}},
		{"asset": map[string]any{"shares": float64(txn.MaxAmount) * 2}},
		// Output indexes.
		index(0.0), index(-1.0), index(1.5), index(math.Copysign(0, -1)), index(9.3e18), index(-9.3e18),
		index(float64(1 << 62)), index("0"), index(nil), index(3), index(uint64(math.MaxUint64)),
		// Wrong kinds, nulls and unknown keys at every level.
		{"id": 5.0}, {"id": nil}, {"id": []any{}}, {"operation": true}, {"version": map[string]any{}},
		{"asset": "a"}, {"asset": nil}, {"asset": []any{}}, {"asset": map[string]any(nil)},
		{"asset": map[string]any{"id": 1.0}}, {"asset": map[string]any{"data": 5.0}},
		{"asset": map[string]any{"data": nil}}, {"asset": map[string]any{"data": map[string]any{}, "x": "y"}},
		{"outputs": "o"}, {"outputs": nil}, {"outputs": []any{}}, {"outputs": []any(nil)},
		{"outputs": []any{nil, map[string]any{}}}, {"outputs": []any{"o"}}, {"outputs": map[string]any{}},
		{"outputs": []any{map[string]any{"public_keys": []any{"a", nil, "b"}}}},
		{"outputs": []any{map[string]any{"public_keys": []any{"a", 1.0}}}},
		{"outputs": []any{map[string]any{"public_keys": "a"}}},
		{"outputs": []any{map[string]any{"prev_owners": []any{}, "extra": 1.0}}},
		{"outputs": []map[string]any{{"public_keys": []string{"a"}, "amount": 2}}},
		{"inputs": 1.0}, {"inputs": []any{nil}}, {"inputs": []any{1.0}},
		{"inputs": []any{map[string]any{"fulfills": nil, "owners_before": nil, "fulfillment": nil}}},
		{"inputs": []any{map[string]any{"fulfills": "ref"}}},
		{"inputs": []any{map[string]any{"fulfills": map[string]any{"transaction_id": 1.0}}}},
		{"inputs": []any{map[string]any{"owners_before": []any{[]any{}}}}},
		{"inputs": []any{map[string]any{"fulfillment": 1.0}}},
		{"children": []any{"c"}, "refs": []any{}}, {"children": "c"}, {"refs": []any{1.0}}, {"refs": []string{"r"}},
		{"metadata": map[string]any{}}, {"metadata": nil}, {"metadata": "m"}, {"metadata": []any{}},
		{"metadata": map[string]any{"n": 1, "nested": map[string]any{"list": []any{int64(2), nil}}}},
		{"metadata": map[string]any{"nan": math.NaN()}}, {"metadata": map[string]any{"ch": make(chan int)}},
		{"unknown": 1.0, "another": map[string]any{"x": []any{}}}, {"unknown": math.NaN()}, {"unknown": func() {}},
		// Case-folded keys fill nothing.
		{"ID": "folded", "Operation": "X", "ASSET": map[string]any{"id": "a"}, "id": "exact"},
		{"ID": 5.0, "Outputs": "not a list"},
		{"asset": map[string]any{"ID": "folded", "Shares": -1.0}},
		{"outputs": []any{map[string]any{"Amount": 1.5, "PUBLIC_KEYS": 7.0, "amount": 3.0}}},
		{"inputs": []any{map[string]any{"Fulfills": "x", "fulfills": map[string]any{"Transaction_ID": 1.0, "OUTPUT_INDEX": "x"}}}},
		{"ſhares": 1.0, "asset": map[string]any{"ſhares": "long s folds to s"}, "Key": 1.0},
	}
}

func TestFromDocMatchesJSONReferenceOnHandDocs(t *testing.T) {
	for _, doc := range handDocs() {
		checkFromDoc(t, doc)
	}
}

// TestToDocPanicsWhereMarshalFailed: a value JSON cannot carry is a
// programming error in both.
func TestToDocPanicsWhereMarshalFailed(t *testing.T) {
	for _, bad := range []any{math.NaN(), math.Inf(-1), make(chan int), []any{map[string]any{"deep": math.NaN()}}} {
		tx := txn.NewCreate("issuer", map[string]any{"k": "v"}, 1, map[string]any{"bad": bad})
		if _, err := txn.RefToDoc(tx); err == nil {
			t.Fatalf("reference encoded %v", bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ToDoc did not panic on %v", bad)
				}
			}()
			tx.ToDoc()
		}()
	}
}

// TestAmountBound pins the one deliberate difference from the round
// trip: 2^53 is the largest share count a document carries exactly, so
// it is the largest FromDoc accepts.
func TestAmountBound(t *testing.T) {
	doc := func(amount, shares float64) map[string]any {
		return map[string]any{
			"asset":   map[string]any{"data": nil, "shares": shares},
			"outputs": []any{map[string]any{"public_keys": []any{"k"}, "amount": amount}},
		}
	}
	const max = float64(txn.MaxAmount)
	tx, err := txn.FromDoc(doc(max, max))
	if err != nil {
		t.Fatalf("2^53 refused: %v", err)
	}
	if tx.Outputs[0].Amount != txn.MaxAmount || tx.Asset.Shares != txn.MaxAmount {
		t.Fatalf("2^53 decoded as amount %d, shares %d", tx.Outputs[0].Amount, tx.Asset.Shares)
	}
	if back := tx.ToDoc()["outputs"].([]any)[0].(map[string]any)["amount"]; back != max {
		t.Fatalf("2^53 re-encoded as %v", back)
	}
	above := math.Nextafter(max, math.Inf(1))
	if _, err := txn.FromDoc(doc(above, 1)); err == nil {
		t.Error("amount above 2^53 accepted")
	}
	if _, err := txn.FromDoc(doc(1, above)); err == nil {
		t.Error("shares above 2^53 accepted")
	}
	for _, v := range []any{uint64(txn.MaxAmount) + 1, int64(txn.MaxAmount) + 1, int(txn.MaxAmount) + 1} {
		d := doc(1, 1)
		d["outputs"].([]any)[0].(map[string]any)["amount"] = v
		if _, err := txn.FromDoc(d); err == nil {
			t.Errorf("%T amount above 2^53 accepted", v)
		}
	}
}

// FuzzTxnCodec feeds FromDoc what a server feeds it — any JSON object —
// and requires the direct decoder and the JSON round trip to agree on
// accept or reject and on the decoded value, and the direct encoders
// to agree with the reference on whatever was decoded. The one
// permitted difference is stated by stripFolded.
func FuzzTxnCodec(f *testing.F) {
	for _, tx := range corpus() {
		f.Add(tx.MarshalCanonical())
	}
	for _, doc := range handDocs() {
		if raw, err := json.Marshal(doc); err == nil {
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var doc map[string]any
		if json.Unmarshal(raw, &doc) != nil {
			return
		}
		checkFromDoc(t, doc)
	})
}

// TestVerifyFulfillmentsMatchesReferenceOnCorpus runs the verifier
// differential (txn.CheckVerifyDifferential) over every generator in
// internal/workload, and shows that deduplication across transactions
// of different IDs finds nothing on what they build: the triples a
// whole-batch dedup sees collapse exactly as far as each transaction's
// own pairs do. (An ACCEPT_BID and its copy with children share an ID
// and a payload; only one of them is counted.)
func TestVerifyFulfillmentsMatchesReferenceOnCorpus(t *testing.T) {
	all := generated()
	st := txn.CheckVerifyDifferential(t, all)
	if st.Sig.DedupHits == 0 {
		t.Fatalf("the corpus has a fan-in, yet no dedup hits: %+v", st)
	}
	var valid []*txn.Transaction
	seen := make(map[string]bool)
	for _, tx := range all {
		if !seen[tx.ID] && txn.VerifyFulfillments(tx.Clone()) == nil {
			seen[tx.ID] = true
			valid = append(valid, tx)
		}
	}
	_, per := txn.RefVerifyFulfillmentsBatch(valid)
	tasks, unique := txn.RefBatchTriples(valid)
	if tasks != per.Sig.Tasks || unique != per.Sig.Unique {
		t.Fatalf("whole-batch triples %d/%d unique, per-transaction pairs %d/%d", tasks, unique, per.Sig.Tasks, per.Sig.Unique)
	}
	if len(valid) < len(all)/2 {
		t.Fatalf("only %d of %d corpus transactions verify", len(valid), len(all))
	}
}
