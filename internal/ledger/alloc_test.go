package ledger

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"testing"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// shapeState commits the transactions the repo benchmark streams
// (workload.BenchmarkShapes) and returns a view of the result.
func shapeState(tb testing.TB) (v *StateView, transfer4, create1k *txn.Transaction) {
	funding, transfer4, create1k := workload.BenchmarkShapes()
	s := NewState()
	tb.Cleanup(func() { s.Close() })
	batch := []*txn.Transaction{funding, transfer4, create1k}
	if committed, skipped := s.CommitBlock(batch); len(committed) != len(batch) {
		tb.Fatalf("committed %d of %d: %v", len(committed), len(batch), skipped)
	}
	return s.View(), transfer4, create1k
}

// TestStateViewReadAllocationCeilings: a point read of committed state
// borrows the stored document, so the UTXO questions cost the key they
// look up and nothing else — nothing at all under a key the caller
// holds (OutputKeyed, a transaction's own input) — and GetTx costs the decoded transaction's
// structure: its free-form maps are the stored ones
// (txn.FromStoredDoc). The CREATE carries asset data and metadata; 8 is
// what decoding it costs with both borrowed, and copying them (FromDoc)
// costs 16.
func TestStateViewReadAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v, transfer4, create1k := shapeState(t)
	spent := *transfer4.Inputs[3].Fulfills
	unspent := txn.OutputRef{TxID: transfer4.ID, Index: 0}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"Output/spent", 1, func() {
			if f, ok := v.Output(spent); !ok || f.SpentBy != transfer4.ID {
				t.Fatalf("Output = %+v, %v", f, ok)
			}
		}},
		{"Output/unspent", 1, func() {
			if f, ok := v.Output(unspent); !ok || f.AssetID != transfer4.Asset.ID || f.SpentBy != "" || f.Amount != transfer4.Outputs[0].Amount {
				t.Fatalf("Output = %+v, %v", f, ok)
			}
		}},
		{"OutputKeyed/spent", 0, func() {
			if f, ok := v.OutputKeyed(spent, transfer4.SpentKey(3)); !ok || f.SpentBy != transfer4.ID {
				t.Fatalf("OutputKeyed = %+v, %v", f, ok)
			}
		}},
		{"IsCommitted", 0, func() {
			if !v.IsCommitted(transfer4.ID) {
				t.Fatal("IsCommitted is wrong")
			}
		}},
		{"GetTx", 20, func() {
			if got, err := v.GetTx(transfer4.ID); err != nil || got.ID != transfer4.ID {
				t.Fatalf("GetTx: %v", err)
			}
		}},
		{"GetTx create1k", 8, func() {
			if got, err := v.GetTx(create1k.ID); err != nil || len(got.Metadata) == 0 {
				t.Fatalf("GetTx: %v", err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// TestCommitPathAllocationCeilings pins the write side of the ownership
// contract the way the read side is pinned above: a stored document is
// built once and never copied. The counts are compared with each other
// wherever that says it better than a number: storing a document costs
// the same whatever it holds, and so does replacing one.
func TestCommitPathAllocationCeilings(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	const runs = 50
	v, transfer4, _ := shapeState(t)
	s := v.s
	toDoc := testing.AllocsPerRun(runs, func() { transfer4.ToDoc() })

	// Insert takes the document it is handed: the 4-input TRANSFER's
	// document (two allocations per object, a box per string and
	// number) costs what a one-key document costs.
	insert := func(name string, docs []map[string]any) float64 {
		col, i := s.store.Collection("pins"), 0
		keys := make([]string, len(docs))
		for j := range keys {
			keys[j] = fmt.Sprint(name, j)
		}
		return testing.AllocsPerRun(runs, func() {
			if err := col.Insert(keys[i], docs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	big, small := make([]map[string]any, runs+1), make([]map[string]any, runs+1)
	for i := range big {
		big[i], small[i] = transfer4.ToDoc(), map[string]any{"id": "x"}
	}
	if b, sm := insert("big", big), insert("small", small); b != sm || b >= toDoc {
		t.Errorf("Insert of the TRANSFER document: %v allocations, of a one-key document %v (ToDoc: %v): the document was copied", b, sm, toDoc)
	}

	// Update — the children vector's write, and the mark-spent of the
	// copy-on-spend reference — copies a record's top level and nothing
	// below it: it costs what the same update of a record with nothing
	// below the top level costs.
	record, _ := s.store.Collection(ColUTXOs).Get(utxoKey(txn.OutputRef{TxID: transfer4.ID, Index: 0}))
	flat := make(map[string]any, len(record))
	for k, val := range record {
		if _, list := val.([]any); list {
			val = "flat"
		}
		flat[k] = val
	}
	plain := s.store.Collection("pins")
	if err := errors.Join(plain.Insert("record", record), plain.Insert("flat", flat)); err != nil {
		t.Fatal(err)
	}
	markSpent := func(col *docstore.Collection, key string) float64 {
		return testing.AllocsPerRun(runs, func() {
			if err := updateDoc(col, key, func(doc map[string]any) error {
				doc["spent"], doc["spent_by"] = true, transfer4.ID
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if deep, shallow := markSpent(plain, "record"), markSpent(plain, "flat"); deep != shallow {
		t.Errorf("mark-spent of a UTXO record: %v allocations, of a flat record %v: the replacement copied below the top level", deep, shallow)
	}
	// A spend stores its transaction's marker — a three-key map and the
	// spender's box, three allocations built once — and a version per
	// key it spends: one spend costs 4 allocations, the 4-input
	// TRANSFER's four spends 7, not four markers' worth. (The outputs
	// are spent already, so the marks re-mark them and no index moves:
	// this is the marker path alone.)
	var spends []stagedOp
	for _, in := range transfer4.Inputs {
		spends = append(spends, stagedOp{kind: opMarkSpent, key: utxoKey(*in.Fulfills), spender: transfer4.ID})
	}
	for _, c := range []struct {
		ops     []stagedOp
		ceiling float64
	}{{spends[3:], 4}, {spends, 7}} {
		if got := testing.AllocsPerRun(runs, func() {
			if err := s.sealTx(&stagedTx{ops: c.ops}); err != nil {
				t.Fatal(err)
			}
		}); got > c.ceiling {
			t.Errorf("sealing %d mark-spents of one transaction: %v allocations, ceiling %v", len(c.ops), got, c.ceiling)
		}
	}

	// One document per transaction. Staging a transaction whose
	// document exists builds none — the whole stage costs six
	// allocations — and a transaction that arrives without one pays for
	// exactly one, and its memo cell, between the schema check and the
	// sealed block.
	owner := keys.DeterministicKeyPair(41)
	funding, transfers := make([]*txn.Transaction, 3*(runs+1)), make([]*txn.Transaction, 3*(runs+1))
	for i := range funding {
		funding[i], transfers[i] = workload.FanIn(owner, owner.PublicBase58(), 1000+i, 4)
	}
	if committed, skipped := s.CommitBlock(funding); len(committed) != len(funding) {
		t.Fatal(skipped)
	}
	schemas := schema.MustNewRegistry()
	next := 0
	commitValidated := func() float64 {
		return testing.AllocsPerRun(runs, func() {
			tx := transfers[next]
			next++
			if err := schemas.ValidateTx(tx); err != nil {
				t.Fatal(err)
			}
			if committed, skipped := s.CommitBlock([]*txn.Transaction{tx}); len(committed) != 1 {
				t.Fatal(skipped)
			}
		})
	}
	cold := commitValidated()
	for _, tx := range transfers[next:] {
		tx.SharedDoc()
	}
	warm := commitValidated()
	// The two averages are taken over a state that grows under them
	// (index and version-chain upkeep is amortised), so they are held
	// to one document give or take a quarter, not to the allocation:
	// a second build would be another whole ToDoc.
	if built := cold - warm; built < toDoc*3/4 || built > toDoc*5/4 {
		t.Errorf("validate + stage + seal of a TRANSFER: %v allocations without a document, %v with one: the difference is %v, one ToDoc is %v", cold, warm, built, toDoc)
	}
	for _, tx := range transfers[next:] {
		tx.Footprint() // admission derived the footprint long before the stage
	}
	if staged := testing.AllocsPerRun(runs, func() {
		if st := newGroupOverlay(s).stageTx(transfers[next]); st.err != nil {
			t.Fatal(st.err)
		}
		next++
	}); staged > 6 || staged >= toDoc {
		// The overlay, the ops, and the output's key and record: the
		// record's values are the document's own.
		t.Errorf("staging a TRANSFER whose document exists: %v allocations, ceiling 6 (ToDoc: %v)", staged, toDoc)
	}
}

var (
	sinkTx   *txn.Transaction
	sinkFact txn.OutputFact
	sinkOK   bool
)

func BenchmarkStateViewGetTx(b *testing.B) {
	v, transfer4, create1k := shapeState(b)
	for _, c := range []struct {
		name string
		id   string
	}{{"transfer4", transfer4.ID}, {"create1k", create1k.ID}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkTx, _ = v.GetTx(c.id)
			}
		})
	}
}

// BenchmarkStateViewOutput reads one output's fact: an unspent
// output's record and a spent one's marker.
func BenchmarkStateViewOutput(b *testing.B) {
	v, transfer4, _ := shapeState(b)
	for _, c := range []struct {
		name string
		ref  txn.OutputRef
	}{{"unspent", txn.OutputRef{TxID: transfer4.ID, Index: 0}}, {"spent", *transfer4.Inputs[3].Fulfills}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkFact, sinkOK = v.Output(c.ref)
			}
		})
	}
}

// BenchmarkInsertDoc hands a transaction document to the store: the
// cost is the version node, the iteration-log entry and the key — the
// same for either shape, since the document is not copied. (One
// document is stored under every key, which the contract allows: a
// stored document is an immutable value.)
func BenchmarkInsertDoc(b *testing.B) {
	_, transfer4, create1k := workload.BenchmarkShapes()
	for _, c := range []struct {
		name string
		doc  map[string]any
	}{{"transfer4", transfer4.ToDoc()}, {"create1k", create1k.ToDoc()}} {
		b.Run(c.name, func(b *testing.B) {
			s := NewState()
			b.Cleanup(func() { s.Close() })
			col, i := s.store.Collection("bench"), 0
			b.ReportAllocs()
			for b.Loop() {
				if err := col.Insert(strconv.Itoa(i), c.doc); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// BenchmarkMarkSpent seals one spent mark of a fresh unspent output:
// the spending transaction's marker (a three-key map and the spender's
// box), the new version, and the postings it closes in the three
// indexes over unspent outputs. The
// outputs — copies of a committed UTXO record — are minted untimed, a
// block of them at a time, and each block re-mints the keys the last
// one spent as fresh unspent versions, so the state stays one size
// however long the benchmark runs. The marks run inside a block, as a
// commit's do.
func BenchmarkMarkSpent(b *testing.B) {
	v, transfer4, _ := shapeState(b)
	s, bk := v.s, v.s.store.Backend()
	utxos := s.store.Collection(ColUTXOs)
	record, _ := utxos.Borrow(utxoKey(txn.OutputRef{TxID: transfer4.ID, Index: 0}))
	const batch = 1024
	keys := make([]string, batch)
	height := s.Height()
	mint := func() {
		height++
		bk.BeginBlock(height)
		for i := range keys {
			doc := maps.Clone(record)
			doc["transaction_id"], doc["output_index"] = "mint", float64(i)
			keys[i] = utxoKey(txn.OutputRef{TxID: "mint", Index: i})
			if err := utxos.Upsert(keys[i], doc); err != nil {
				b.Fatal(err)
			}
		}
		bk.SealBlock(height)
		s.store.SweepIndexes()
		height++
		bk.BeginBlock(height)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			mint()
			b.StartTimer()
		}
		if err := s.sealTx(&stagedTx{ops: []stagedOp{{kind: opMarkSpent, key: keys[i%batch], spender: transfer4.ID}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageBlock stages (does not seal) a block of the two shapes
// against the state that funds it: EncodableDoc, the overlay, the UTXO
// reads and the output records. The transactions' documents and spend
// keys exist after the first pass, as they do when a validated block
// reaches the stage.
func BenchmarkStageBlock(b *testing.B) {
	owner := keys.DeterministicKeyPair(41)
	recipient := keys.DeterministicKeyPair(42).PublicBase58()
	gen := workload.NewGenerator(1, keys.DeterministicKeyPair(43))
	const n = 32
	funding := make([]*txn.Transaction, n)
	block := make([]*txn.Transaction, 0, 2*n)
	for i := range funding {
		var transfer *txn.Transaction
		funding[i], transfer = workload.FanIn(owner, recipient, i, 4)
		block = append(block, transfer, gen.Create(owner, []string{"cnc"}, 1024))
	}
	s := NewState()
	b.Cleanup(func() { s.Close() })
	if committed, _ := s.CommitBlock(funding); len(committed) != n {
		b.Fatalf("funded %d of %d", len(committed), n)
	}
	b.ReportAllocs()
	for b.Loop() {
		p := &PendingCommit{s: s, height: s.Height() + 1}
		p.Stage(block)
		for i, st := range p.staged {
			if st.err != nil {
				b.Fatalf("tx %d: %v", i, st.err)
			}
		}
	}
}
