package mempool

import (
	"fmt"
	"testing"
)

// TestScreenPrimitivesZeroAlloc pins the O(1) structural-screen
// primitives — the spend-key lookup and the hash lookup — at zero
// allocations per call on a warm pool, so the admission hot path stays
// garbage-free.
func TestScreenPrimitivesZeroAlloc(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 64; i++ {
		admit(t, p, spender(fmt.Sprintf("tx-%d", i), fmt.Sprintf("utxo:%d", i)))
	}
	hit, miss := []string{"utxo:13"}, []string{"utxo:9999"}
	hash, absent := "tx-13", "tx-9999"
	batch := map[string]string{"utxo:batch": "tx-batch"}

	allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := p.claimed(hit, batch); !ok {
			t.Fatal("claimed key not found")
		}
		if _, _, ok := p.claimed(miss, batch); ok {
			t.Fatal("unclaimed key found")
		}
	})
	if allocs != 0 {
		t.Fatalf("claimed allocations = %v, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(500, func() {
		if !p.Contains(hash) {
			t.Fatal("pooled hash not found")
		}
		if p.Contains(absent) {
			t.Fatal("absent hash found")
		}
	})
	if allocs != 0 {
		t.Fatalf("Contains allocations = %v, want 0", allocs)
	}
}

var sinkAdmit AdmitResult

// BenchmarkAdmitBatch takes one 64-transaction marketplace block
// through a fresh pool's admission with no semantic check behind it:
// the structural screen, the intra-batch conflict grouping and the
// insert.
func BenchmarkAdmitBatch(b *testing.B) {
	block := marketBatch(64)
	batch := make([]Tx, len(block))
	for i, tx := range block {
		tx.Footprint() // warm: this measures the pool, not the derivation
		batch[i] = tx
	}
	b.ReportAllocs()
	for b.Loop() {
		sinkAdmit = New(Config{}).AdmitBatch(batch)
	}
}

// BenchmarkPoolSteadyState takes the same 64-transaction marketplace
// block through admission and then its commit sweep (RemoveCommitted)
// on one long-lived pool, as a validator's pool sees block after
// block: the pool's maps are grown once, so what is left is what a
// block's stay in the pool allocates.
func BenchmarkPoolSteadyState(b *testing.B) {
	block := marketBatch(64)
	batch := make([]Tx, len(block))
	for i, tx := range block {
		tx.Footprint()
		batch[i] = tx
	}
	p := New(Config{})
	b.ReportAllocs()
	for b.Loop() {
		if res := p.AdmitBatch(batch); len(res.Admitted) != len(batch) {
			b.Fatalf("admitted %d of %d", len(res.Admitted), len(batch))
		}
		p.RemoveCommitted(batch)
	}
	if p.PendingCount() != 0 {
		b.Fatalf("%d transactions left pending", p.PendingCount())
	}
}
