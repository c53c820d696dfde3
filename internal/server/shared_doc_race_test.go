package server

import (
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// TestSharedDocumentRace is the race-gate pin of the document
// ownership contract. The four validators of an in-process cluster
// share each *txn.Transaction, and with it its one document
// (txn.Transaction.SharedDoc): here all four admit, validate and
// commit the same transaction objects at once, each then gives the
// logged transaction a children field (an Upsert of a copy of the
// shared document's top level, as the seal does to a nested parent),
// while per-node readers borrow every
// transaction and UTXO record — the writer view and the newest
// snapshot — and read every byte of them. Nothing may write to a
// document once it is shared or stored: under -race, a validator
// editing the shared document, a replacement written in place, or a
// mark-spent editing the record a reader holds, is a reported race.
func TestSharedDocumentRace(t *testing.T) {
	const validators, transfers, perBlock = 4, 16, 4
	c := NewCluster(ClusterConfig{Nodes: validators, Seed: 24, Node: Config{
		ParallelWorkers: 2, AdmissionWorkers: 2, CommitWorkers: 2, CommitDepth: 2,
	}})
	defer c.Close()
	owner := keys.DeterministicKeyPair(2400)
	blocks := make([][]consensus.Tx, 1, 1+transfers/perBlock)
	for i := 0; i < transfers; i++ {
		funding, transfer := workload.FanIn(owner, owner.PublicBase58(), i, 4)
		blocks[0] = append(blocks[0], funding)
		if i%perBlock == 0 {
			blocks = append(blocks, nil)
		}
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], transfer)
	}

	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for v := 0; v < validators; v++ {
		node := c.ServerNode(v)
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []byte
			for !stop.Load() {
				for _, col := range []string{ledger.ColTransactions, ledger.ColUTXOs} {
					for _, doc := range node.State().Store().Collection(col).Find(nil) {
						buf = txn.AppendCanonicalDoc(buf[:0], doc)
					}
					for _, doc := range node.State().View().Collection(col).BorrowFind(nil) {
						buf = txn.AppendCanonicalDoc(buf[:0], doc)
					}
				}
			}
		}()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for h, block := range blocks {
				if errs := node.CheckTxBatch(block); len(errs) != 0 {
					t.Errorf("validator %d, block %d: admission refused %v", v, h+1, errs)
					return
				}
				if bad := node.ValidateBlock(block); len(bad) != 0 {
					t.Errorf("validator %d, block %d: %d transactions invalid", v, h+1, len(bad))
					return
				}
				node.CommitStart(int64(h+1), block)()
				for _, tx := range block {
					children := []any{"child-of-" + tx.Hash()[:8]}
					txs := node.State().Store().Collection(ledger.ColTransactions)
					old, _ := txs.Borrow(tx.Hash())
					next := maps.Clone(old)
					next["children"] = children
					if err := txs.Upsert(tx.Hash(), next); err != nil {
						t.Errorf("validator %d: %v", v, err)
					}
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	// Every validator holds the same state, and holds it in the same
	// memory: below the top level, each node's updated version of each
	// logged transaction is the one shared document.
	first := c.ServerNode(0).State()
	for v := 1; v < validators; v++ {
		s := c.ServerNode(v).State()
		if got, want := s.Fingerprint(), first.Fingerprint(); got != want {
			t.Fatalf("validator %d fingerprint %s, validator 0 %s", v, got, want)
		}
		for _, block := range blocks {
			for _, tx := range block {
				a, aok := first.Store().Collection(ledger.ColTransactions).Borrow(tx.Hash())
				b, bok := s.Store().Collection(ledger.ColTransactions).Borrow(tx.Hash())
				if !aok || !bok || a["children"] == nil {
					t.Fatalf("transaction %.8s: logged on validator 0: %v, on validator %d: %v, children %v", tx.Hash(), aok, v, bok, a["children"])
				}
				shared := tx.(*txn.Transaction).SharedDoc()["outputs"]
				if reflect.ValueOf(a["outputs"]).Pointer() != reflect.ValueOf(shared).Pointer() || reflect.ValueOf(b["outputs"]).Pointer() != reflect.ValueOf(shared).Pointer() {
					t.Fatalf("transaction %.8s: the validators do not share one document", tx.Hash())
				}
			}
		}
	}
}
