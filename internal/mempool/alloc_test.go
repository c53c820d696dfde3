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

// warmBlock is one 64-transaction marketplace block as a pool batch,
// footprints derived: the pool is measured, not the derivation.
func warmBlock() []Tx {
	block := marketBatch(64)
	batch := make([]Tx, len(block))
	for i, tx := range block {
		tx.Footprint()
		batch[i] = tx
	}
	return batch
}

// BenchmarkAdmitBatch takes one 64-transaction marketplace block
// through a fresh pool's admission with no semantic check behind it:
// the structural screen, the intra-batch conflict grouping and the
// insert.
func BenchmarkAdmitBatch(b *testing.B) {
	batch := warmBlock()
	b.ReportAllocs()
	for b.Loop() {
		sinkAdmit = New(Config{}).AdmitBatch(batch)
	}
}

// steadyBlock admits batch into p and then sweeps it as committed.
func steadyBlock(tb testing.TB, p *Pool, batch []Tx) {
	if res := p.AdmitBatch(batch); len(res.Admitted) != len(batch) {
		tb.Fatalf("admitted %d of %d", len(res.Admitted), len(batch))
	}
	p.RemoveCommitted(batch)
}

// BenchmarkPoolSteadyState takes the same 64-transaction marketplace
// block through admission and then its commit sweep (RemoveCommitted)
// on one long-lived pool, as a validator's pool sees block after
// block: the pool's maps are grown once, so what is left is what a
// block's stay in the pool allocates.
func BenchmarkPoolSteadyState(b *testing.B) {
	batch := warmBlock()
	p := New(Config{})
	b.ReportAllocs()
	for b.Loop() {
		steadyBlock(b, p, batch)
	}
	if p.PendingCount() != 0 {
		b.Fatalf("%d transactions left pending", p.PendingCount())
	}
}

// TestPoolSteadyStateAllocationCeiling pins BenchmarkPoolSteadyState's
// block: the holder index hands a key's emptied overflow list to the
// next key that needs one, so a long-lived pool allocates no list per
// shared key (78 of the 110 allocations a block took before the lists
// were reused; 32 are left, go1.24 linux/amd64).
func TestPoolSteadyStateAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	batch := warmBlock()
	p := New(Config{})
	if got := testing.AllocsPerRun(50, func() { steadyBlock(t, p, batch) }); got > 40 {
		t.Errorf("a %d-transaction block admitted and swept on a long-lived pool: %v allocations, ceiling 40", len(batch), got)
	}
}
