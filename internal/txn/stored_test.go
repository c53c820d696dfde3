package txn_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// checkStored reads doc through every accessor of txn.Stored, indexes
// one past either end included, and, where txn.FromStoredDoc decodes
// doc, holds each to the decoded transaction's value. A document the
// decoder refuses must still read without a panic.
func checkStored(t testing.TB, doc map[string]any) {
	t.Helper()
	s := txn.ReadStored(doc)
	id, idErr := s.ID()
	op, opErr := s.Operation()
	assetID, assetIDErr := s.AssetID()
	data, dataErr := s.AssetData()
	refs, refsErr := s.Refs()
	owners, ownersErr := s.OwnerSet()
	nOut, outsErr := s.Outputs()
	nIn, insErr := s.Inputs()
	type output struct {
		o   txn.StoredOutput
		err error
	}
	type spend struct {
		ref txn.OutputRef
		ok  bool
		err error
	}
	outs := map[int]output{}
	for i := -1; i <= nOut; i++ {
		o, err := s.Output(i)
		outs[i] = output{o, err}
		for j := range o.Owners {
			if !o.Owners.Contains(o.Owners.At(j)) {
				t.Fatalf("output %d's owners do not contain their own key %d", i, j)
			}
		}
		o.PrevOwners.Strings()
	}
	spends := map[int]spend{}
	for i := -1; i <= nIn; i++ {
		ref, ok, err := s.Spends(i)
		spends[i] = spend{ref, ok, err}
	}

	want, err := txn.FromStoredDoc(doc)
	if err != nil {
		return
	}
	fail := func(what string, got, want any, err error) {
		t.Helper()
		t.Fatalf("%s of %#v\n got %#v (%v)\nwant %#v", what, doc, got, err, want)
	}
	if idErr != nil || id != want.ID {
		fail("ID", id, want.ID, idErr)
	}
	if opErr != nil || op != want.Operation {
		fail("Operation", op, want.Operation, opErr)
	}
	if assetIDErr != nil || assetID != want.AssetID() {
		fail("AssetID", assetID, want.AssetID(), assetIDErr)
	}
	var wantData map[string]any
	if want.Asset != nil {
		wantData = want.Asset.Data
	}
	if dataErr != nil || !reflect.DeepEqual(data, wantData) {
		fail("AssetData", data, wantData, dataErr)
	}
	if refsErr != nil || !reflect.DeepEqual(refs.Strings(), want.Refs) {
		fail("Refs", refs.Strings(), want.Refs, refsErr)
	}
	if ownersErr != nil || !reflect.DeepEqual(owners, want.OwnerSet()) {
		fail("OwnerSet", owners, want.OwnerSet(), ownersErr)
	}
	if outsErr != nil || nOut != len(want.Outputs) {
		fail("Outputs", nOut, len(want.Outputs), outsErr)
	}
	for i, o := range want.Outputs {
		got := outs[i]
		var w [3]any // owners, amount, prev_owners
		if o != nil {
			w = [3]any{o.PublicKeys, o.Amount, o.PrevOwners}
		} else {
			w = [3]any{[]string(nil), uint64(0), []string(nil)}
		}
		if g := [3]any{got.o.Owners.Strings(), got.o.Amount, got.o.PrevOwners.Strings()}; got.err != nil || !reflect.DeepEqual(g, w) {
			fail("Output", g, w, got.err)
		}
	}
	for _, i := range []int{-1, nOut} {
		if outs[i].err == nil {
			t.Fatalf("Output(%d) of %d outputs read %+v", i, nOut, outs[i].o)
		}
	}
	if insErr != nil || nIn != len(want.Inputs) {
		fail("Inputs", nIn, len(want.Inputs), insErr)
	}
	for i, in := range want.Inputs {
		got := spends[i]
		w := spend{}
		if in != nil && in.Fulfills != nil {
			w = spend{*in.Fulfills, true, nil}
		}
		if got != w {
			fail("Spends", got, w, got.err)
		}
	}
	if tx, err := s.Decode(); err != nil || !reflect.DeepEqual(tx, want) {
		fail("Decode", tx, want, err)
	}
}

// storedDocs are the corpus's documents as a store holds them: the
// transaction's own document (what a block commit stores) and the same
// document read back through JSON (what the disk engine's decoder
// hands back), plus the hand-built documents of every rule the decoder
// applies.
func storedDocs() []map[string]any {
	txs := corpus()
	funding, transfer4, create1k := workload.BenchmarkShapes()
	txs = append(txs, funding, transfer4, create1k)
	var docs []map[string]any
	for _, tx := range txs {
		docs = append(docs, tx.SharedDoc())
		var back map[string]any
		if err := json.Unmarshal(tx.MarshalCanonical(), &back); err != nil {
			panic(err)
		}
		docs = append(docs, back)
	}
	return append(docs, handDocs()...)
}

// TestStoredMatchesDecoder: every field the in-place reader exposes
// reads what txn.FromStoredDoc decodes, over every internal/workload
// generator's transactions, as stored and as read back from disk.
func TestStoredMatchesDecoder(t *testing.T) {
	for _, doc := range storedDocs() {
		checkStored(t, doc)
	}
}

// FuzzStoredTx: on any JSON object, the in-place reader never panics,
// and wherever txn.FromStoredDoc decodes the object every accessor
// agrees with it (`make fuzz`).
func FuzzStoredTx(f *testing.F) {
	for _, doc := range storedDocs() {
		if raw, err := json.Marshal(doc); err == nil {
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var doc map[string]any
		if json.Unmarshal(raw, &doc) != nil {
			return
		}
		checkStored(t, doc)
	})
}
