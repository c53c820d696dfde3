package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"smartchaindb/internal/mempool"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestMempoolAdmissionRace drives the real ingest pipeline — batched
// admission through CheckTxBatch, concurrent block packing, and
// commit-time index sweeps against the node's ledger — from multiple
// goroutines at once. It runs over whichever storage backend
// SCDB_BACKEND selects, so the race gate exercises it on both memory
// and disk. Semantics are checked loosely (races, not outcomes, are
// the target): everything committed must have left the pool, and
// nothing may commit twice.
func TestMempoolAdmissionRace(t *testing.T) {
	node := NewNode(Config{ReservedSeed: 321, AdmissionWorkers: 4, ParallelWorkers: 4})
	defer node.Close()
	gen := workload.NewGenerator(17, node.Escrow())

	// Backing assets committed up front; the contested stream transfers
	// them (some twice, the double-spend traffic the spend index
	// screens).
	const owners = 96
	streams := make([][]*txn.Transaction, 3)
	var assets []*txn.Transaction
	for i := 0; i < owners; i++ {
		owner := gen.Account(i)
		asset := gen.Create(owner, []string{"cnc"}, 64)
		assets = append(assets, asset)
		for s := range streams {
			recipient := gen.Account(10_000 + i*len(streams) + s)
			tr := txn.NewTransfer(asset.ID,
				[]txn.Spend{{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{owner.PublicBase58()}}},
				[]*txn.Output{{PublicKeys: []string{recipient.PublicBase58()}, Amount: 1}},
				nil)
			if err := txn.Sign(tr, owner); err != nil {
				t.Fatal(err)
			}
			streams[s] = append(streams[s], tr)
		}
	}
	if _, skipped := node.CommitNext(assets); len(skipped) != 0 {
		t.Fatalf("backing assets skipped: %v", skipped)
	}

	pool := mempool.New(mempool.Config{
		BatchSize:   16,
		Policy:      mempool.PackMakespan,
		PackWorkers: 4,
		Check:       node.CheckTxBatch,
	})

	// Admitters: each stream spends the same backing outputs, so the
	// spend index arbitrates across goroutines.
	var admitters sync.WaitGroup
	for _, stream := range streams {
		admitters.Add(1)
		go func(stream []*txn.Transaction) {
			defer admitters.Done()
			for start := 0; start < len(stream); start += 16 {
				end := start + 16
				if end > len(stream) {
					end = len(stream)
				}
				batch := make([]mempool.Tx, 0, end-start)
				for _, tr := range stream[start:end] {
					batch = append(batch, tr)
				}
				pool.AdmitBatch(batch)
			}
		}(stream)
	}

	// Proposer + commit path: pack a block, commit it through the node
	// (the commit fence admission validates against), sweep the pool —
	// the applyBlock compaction under contention. It stops once the
	// admitters finished and the pool is drained.
	done := make(chan struct{})
	committed := make(map[string]bool)
	var commitErr error
	var committer sync.WaitGroup
	committer.Add(1)
	go func() {
		defer committer.Done()
		for {
			block := pool.Pack(24, 4)
			if len(block) == 0 {
				select {
				case <-done:
					if pool.PendingCount() == 0 { // nothing is reserved: this loop sweeps what it packs
						return
					}
				default:
				}
				runtime.Gosched()
				continue
			}
			batch := make([]*txn.Transaction, len(block))
			for i, tx := range block {
				batch[i] = tx.(*txn.Transaction)
			}
			applied, _ := node.CommitNext(batch)
			for _, tr := range applied {
				if committed[tr.ID] {
					commitErr = fmt.Errorf("transaction %.12s committed twice", tr.ID)
					return
				}
				committed[tr.ID] = true
			}
			removed := make([]mempool.Tx, len(batch))
			for i, tr := range batch {
				removed[i] = tr
			}
			pool.RemoveCommitted(removed)
		}
	}()

	admitters.Wait()
	close(done)
	committer.Wait()

	if commitErr != nil {
		t.Fatal(commitErr)
	}
	for id := range committed {
		if pool.Contains(id) {
			t.Errorf("committed %.12s still pooled", id)
		}
	}
	if len(committed) == 0 {
		t.Fatal("nothing committed")
	}
}
