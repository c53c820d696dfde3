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
	p := newPool(t, Config{})
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
