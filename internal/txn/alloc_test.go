package txn_test

import (
	"testing"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestCodecAllocationCeilings holds each codec primitive to an
// allocation count on the 4-input transfer, so that a regression fails
// here and not in a benchmark. ToDoc's count is what the document shape
// costs: two allocations per object, one box per string and number.
func TestCodecAllocationCeilings(t *testing.T) {
	if txn.RaceEnabled || txn.TripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	_, tr, _ := workload.BenchmarkShapes()
	doc := tr.ToDoc()
	// cold runs derive on a fresh clone each call: a clone starts with
	// no memo. Each case is run once to warm up and 201 times measured.
	cold := func(derive func(*txn.Transaction)) func() {
		clones := make([]*txn.Transaction, 202)
		for i := range clones {
			clones[i] = tr.Clone()
		}
		return func() { derive(clones[0]); clones = clones[1:] }
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"ToDoc", 58, func() { tr.ToDoc() }},
		{"FromDoc", 20, func() {
			if _, err := txn.FromDoc(doc); err != nil {
				t.Fatal(err)
			}
		}},
		// The exact-size copy and the memo cell it is published in.
		{"cold SigningPayload", 2, cold(func(t *txn.Transaction) { t.SigningPayload() })},
		{"cold MarshalCanonical", 2, cold(func(t *txn.Transaction) { t.MarshalCanonical() })},
		{"OutputRef.String", 1, func() { _ = tr.Inputs[3].Fulfills.String() }},
		// One string per spent output, once: the warm-up call built them.
		{"spend keys and a UTXO key", 0, func() { _ = tr.Footprint().Spends[3][len(txn.SpendKeyPrefix):] }},
		{"SharedDoc", 0, func() { tr.SharedDoc() }},
	} {
		c.fn() // warm the encoder pool
		if got := testing.AllocsPerRun(200, c.fn); got > c.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// TestFootprintAllocationCeiling: a transaction's footprint is derived
// once however many times it is asked for — here by the warm-up call —
// so a warm transaction's footprint costs nothing. The cold derivation
// is the memo cell, the writes (spend keys included) and the reads,
// and one string per spent output.
func TestFootprintAllocationCeiling(t *testing.T) {
	if txn.RaceEnabled || txn.TripwireEnabled {
		t.Skip("allocation counts are meaningless under the race detector or the tripwire")
	}
	_, transfer4, create1k := workload.BenchmarkShapes()
	for _, c := range []struct {
		name string
		tx   *txn.Transaction
	}{{"transfer4", transfer4}, {"create1k", create1k}} {
		c.tx.Footprint()
		if got := testing.AllocsPerRun(200, func() { c.tx.Footprint() }); got != 0 {
			t.Errorf("Footprint(%s): %v allocations on a warm transaction, want 0", c.name, got)
		}
	}
	clones := make([]*txn.Transaction, 201)
	for i := range clones {
		clones[i] = transfer4.Clone()
	}
	if got := testing.AllocsPerRun(200, func() { clones[0].Footprint(); clones = clones[1:] }); got != 7 {
		t.Errorf("cold Footprint(transfer4): %v allocations, want 7 (memo, writes, reads, four spend keys)", got)
	}
}

// BenchmarkFootprint asks a warm transaction for its footprint, as
// every stage after admission does.
func BenchmarkFootprint(b *testing.B) {
	benchShapes(b, func(b *testing.B, t *txn.Transaction) {
		b.ReportAllocs()
		for b.Loop() {
			sinkFootprint = t.Footprint()
		}
	})
}

func benchShapes(b *testing.B, fn func(b *testing.B, t *txn.Transaction)) {
	_, transfer4, create1k := workload.BenchmarkShapes()
	b.Run("transfer4", func(b *testing.B) { fn(b, transfer4) })
	b.Run("create1k", func(b *testing.B) { fn(b, create1k) })
}

// Typed sinks: storing into an any would count its box.
var (
	sinkDoc   map[string]any
	sinkTx    *txn.Transaction
	sinkBytes []byte
	sinkStr   string

	sinkFootprint txn.Footprint
)

func BenchmarkToDoc(b *testing.B) {
	benchShapes(b, func(b *testing.B, t *txn.Transaction) {
		b.ReportAllocs()
		for b.Loop() {
			sinkDoc = t.ToDoc()
		}
	})
}

func BenchmarkFromDoc(b *testing.B) {
	benchShapes(b, func(b *testing.B, t *txn.Transaction) {
		doc := t.ToDoc()
		b.ReportAllocs()
		for b.Loop() {
			got, err := txn.FromDoc(doc)
			if err != nil {
				b.Fatal(err)
			}
			sinkTx = got
		}
	})
}

// benchCold times derive on transactions with nothing memoized: fresh
// clones, made with the timer (and the allocation count) stopped.
func benchCold(b *testing.B, derive func(t *txn.Transaction)) {
	benchShapes(b, func(b *testing.B, t *txn.Transaction) {
		b.ReportAllocs()
		var clones []*txn.Transaction
		for range b.N {
			if len(clones) == 0 {
				b.StopTimer()
				clones = make([]*txn.Transaction, 1024)
				for i := range clones {
					clones[i] = t.Clone()
				}
				b.StartTimer()
			}
			derive(clones[0])
			clones = clones[1:]
		}
	})
}

func BenchmarkSigningPayloadCold(b *testing.B) {
	benchCold(b, func(t *txn.Transaction) { sinkBytes = t.SigningPayload() })
}

func BenchmarkMarshalCanonicalCold(b *testing.B) {
	benchCold(b, func(t *txn.Transaction) { sinkBytes = t.MarshalCanonical() })
}

// BenchmarkOutputRefString is what naming one spent output costs: built
// from the reference (a state read by reference still does), and taken
// as the suffix of the transaction's spend key, which every stage from
// admission to the log does.
func BenchmarkOutputRefString(b *testing.B) {
	_, transfer4, _ := workload.BenchmarkShapes()
	ref := *transfer4.Inputs[3].Fulfills
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sinkStr = ref.String()
		}
	})
	b.Run("SpendKeySuffix", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sinkStr = transfer4.Footprint().Spends[3][len(txn.SpendKeyPrefix):]
		}
	})
}
