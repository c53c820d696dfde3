package mempool

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentAdmitPackRemove hammers one pool from every direction
// at once — batched admitters racing over shared spend keys, a packer,
// a commit sweeper, and point readers — and checks the invariants
// afterwards. Run under -race (the Makefile race gate includes this
// package).
func TestConcurrentAdmitPackRemove(t *testing.T) {
	p := newPool(t, Config{Policy: PackMakespan, PackWorkers: 4})

	const admitters = 4
	const batches = 40
	const batchSize = 16

	var wg sync.WaitGroup
	committedCh := make(chan []Tx, admitters*batches)

	// Admitters: independent txs, chained txs, contested spends, and
	// duplicates across goroutines.
	for a := 0; a < admitters; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(a + 1)))
			for b := 0; b < batches; b++ {
				batch := make([]Tx, 0, batchSize)
				for i := 0; i < batchSize; i++ {
					switch rng.Intn(4) {
					case 0: // contested spend: same key across all admitters
						batch = append(batch, spender(fmt.Sprintf("s-%d-%d-%d", a, b, i), fmt.Sprintf("utxo:hot%d", rng.Intn(8))))
					case 1: // chained
						batch = append(batch, chained(fmt.Sprintf("c-%d-%d-%d", a, b, i), fmt.Sprintf("chain:%d", rng.Intn(4))))
					case 2: // duplicate of a shared name (same across admitters)
						batch = append(batch, indep(fmt.Sprintf("dup-%d", rng.Intn(64))))
					default:
						batch = append(batch, indep(fmt.Sprintf("i-%d-%d-%d", a, b, i)))
					}
				}
				res := p.AdmitBatch(batch)
				if len(res.Admitted) > 0 && rng.Intn(3) == 0 {
					committedCh <- res.Admitted
				}
			}
		}(a)
	}

	// Packer: keeps proposing off the live pool.
	stop := make(chan struct{})
	var packerWg sync.WaitGroup
	packerWg.Add(1)
	go func() {
		defer packerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			block := p.Pack(32, 4)
			for _, tx := range block {
				_ = p.Contains(tx.Hash())
			}
			_ = p.PendingCount()
		}
	}()

	// Commit sweeper: applies admitted batches as blocks.
	packerWg.Add(1)
	go func() {
		defer packerWg.Done()
		for txs := range committedCh {
			p.RemoveCommitted(txs)
		}
	}()

	wg.Wait()
	close(committedCh)
	close(stop)
	packerWg.Wait()

	// Invariants: every live entry is reachable by hash, every claim
	// points at a live entry, and the pool packs cleanly.
	block := p.Pack(0, 4)
	seen := make(map[string]bool, len(block))
	for _, tx := range block {
		if seen[tx.Hash()] {
			t.Fatalf("duplicate %s in packed block", tx.Hash())
		}
		seen[tx.Hash()] = true
		if !p.Contains(tx.Hash()) {
			t.Fatalf("packed %s not in pool", tx.Hash())
		}
	}
	claimed := make(map[string]string)
	for _, tx := range block {
		for _, key := range fakeFootprint(tx).Spends {
			if owner, ok := claimed[key]; ok {
				t.Fatalf("spend key %s claimed by both %s and %s", key, owner, tx.Hash())
			}
			claimed[key] = tx.Hash()
		}
	}
}
