package ledger

import (
	"fmt"
	"maps"

	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// The copy-on-spend reference: the UTXO layout the ledger wrote before
// an output's record took the log's own values and a spend became a
// shared marker. An output's record was nine keys — the owners and the
// previous owners copied into fresh lists, the operation repeated — and
// a spend copied all nine through Update to flip two of them. It is
// kept here, test-only, as what the marker layout is pinned to: every
// reader must answer alike over both (utxo_differential_test.go), and
// TestUTXORecordBytes weighs both.

// copyOnSpendHomeOps is homeOps as it built UTXO records then.
func copyOnSpendHomeOps(t *txn.Transaction, spent []string, utxo func(key string) (map[string]any, bool)) ([]stagedOp, error) {
	outputAsset := make([]string, len(t.Outputs))
	for i := range t.Outputs {
		outputAsset[i] = t.AssetID()
	}
	if t.Operation == txn.OpAcceptBid {
		for i := range t.Outputs {
			if i < len(t.Inputs) && t.Inputs[i].Fulfills != nil {
				if doc, ok := utxo(utxoKey(*t.Inputs[i].Fulfills)); ok {
					if aid, aok := doc["asset_id"].(string); aok {
						outputAsset[i] = aid
					}
				}
			}
		}
	}
	txDoc := t.SharedDoc()
	if err := storage.EncodableDoc(txDoc); err != nil {
		return nil, fmt.Errorf("ledger: insert tx: %w", err)
	}
	ops := make([]stagedOp, 0, 2+len(spent)+len(t.Outputs))
	ops = append(ops, stagedOp{kind: opInsertTx, key: t.ID, doc: txDoc})
	for _, key := range spent {
		ops = append(ops, stagedOp{kind: opMarkSpent, key: key, spender: t.ID})
	}
	for i, out := range t.Outputs {
		ops = append(ops, stagedOp{kind: opInsertUTXO, key: utxoKey(txn.OutputRef{TxID: t.ID, Index: i}), doc: copyOnSpendRecord(t, i, out, outputAsset[i])})
	}
	if t.Operation == txn.OpCreate || t.Operation == txn.OpRequest {
		asset, _ := txDoc["asset"].(map[string]any)
		data, _ := asset["data"].(map[string]any)
		if data == nil {
			data = map[string]any{}
		}
		ops = append(ops, stagedOp{kind: opUpsertAsset, key: t.ID, doc: map[string]any{
			"id":        t.ID,
			"data":      data,
			"operation": t.Operation,
		}})
	}
	return ops, nil
}

// copyOnSpendRecord is the nine-key record of t's i-th output.
func copyOnSpendRecord(t *txn.Transaction, i int, out *txn.Output, assetID string) map[string]any {
	owners := make([]any, len(out.PublicKeys))
	for j, k := range out.PublicKeys {
		owners[j] = k
	}
	prev := make([]any, len(out.PrevOwners))
	for j, k := range out.PrevOwners {
		prev[j] = k
	}
	return map[string]any{
		"transaction_id": t.ID,
		"output_index":   float64(i),
		"owner":          owners,
		"prev_owners":    prev,
		"amount":         float64(out.Amount),
		"asset_id":       assetID,
		"operation":      t.Operation,
		"spent":          false,
		"spent_by":       "",
	}
}

// copyOnSpend is what Update made of a record a spend replaced: its
// top level copied, two keys flipped.
func copyOnSpend(record map[string]any, spender string) map[string]any {
	next := maps.Clone(record)
	next["spent"], next["spent_by"] = true, spender
	return next
}

// copyOnSpendSealTx is sealTx as it marked a spend then: Update.
func (s *State) copyOnSpendSealTx(st *stagedTx) error {
	txs := s.store.Collection(ColTransactions)
	utxos := s.store.Collection(ColUTXOs)
	for _, op := range st.ops {
		switch op.kind {
		case opInsertTx:
			if err := txs.Insert(op.key, op.doc); err != nil {
				return fmt.Errorf("ledger: insert tx: %w", err)
			}
		case opMarkSpent:
			spender := op.spender
			if err := updateDoc(utxos, op.key, func(doc map[string]any) error {
				doc["spent"] = true
				doc["spent_by"] = spender
				return nil
			}); err != nil {
				return fmt.Errorf("ledger: mark spent %s: %w", op.key, err)
			}
		case opInsertUTXO:
			if err := utxos.Insert(op.key, op.doc); err != nil {
				return fmt.Errorf("ledger: insert utxo: %w", err)
			}
		case opUpsertAsset:
			if err := s.store.Collection(ColAssets).Upsert(op.key, op.doc); err != nil {
				return fmt.Errorf("ledger: upsert asset: %w", err)
			}
		}
	}
	return nil
}

// commitBlockCopyOnSpend is CommitBlock over the reference layout: the
// same checks, staged in block order against one overlay, the
// reference's ops sealed the way the block commit seals.
func commitBlockCopyOnSpend(s *State, batch []*txn.Transaction) (committed []*txn.Transaction, skipped map[string]error, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	height := s.lastHeight + 1
	overlay := newGroupOverlay(s)
	staged := make([]*stagedTx, len(batch))
	for i, t := range batch {
		if staged[i] = overlay.stageTx(t); staged[i].err == nil {
			ops, err := copyOnSpendHomeOps(t, spentUTXOKeys(t), overlay.getUTXO)
			staged[i] = &stagedTx{ops: ops, err: err}
		}
	}
	err = s.sealBlock(height, func() error {
		for i, t := range batch {
			if staged[i].err != nil {
				if skipped == nil {
					skipped = make(map[string]error)
				}
				skipped[t.ID] = staged[i].err
				continue
			}
			if err := s.copyOnSpendSealTx(staged[i]); err != nil {
				return err
			}
			if err := s.sealNested(t, staged[i].ops); err != nil {
				return err
			}
			committed = append(committed, t)
		}
		return s.putBlockRecord(height, txIDsAny(committed), false)
	})
	if err != nil {
		return nil, nil, err
	}
	s.lastHeight = height
	return committed, skipped, nil
}

func txIDsAny(txs []*txn.Transaction) []any {
	ids := make([]any, len(txs))
	for i, t := range txs {
		ids[i] = t.ID
	}
	return ids
}

// stageOwnedCopyOnSpend is StageOwned with the home share built by the
// reference; a participant's share, mark-spent ops only, is the same.
func stageOwnedCopyOnSpend(s *State, t *txn.Transaction, home bool, owns func(i int) bool) (*Prepared, error) {
	p, err := s.StageOwned(t, home, owns)
	if err != nil || !home {
		return p, err
	}
	var owned []string
	for _, op := range p.ops {
		if op.kind == opMarkSpent {
			owned = append(owned, op.key)
		}
	}
	p.ops, err = copyOnSpendHomeOps(t, owned, s.store.Collection(ColUTXOs).Borrow)
	return p, err
}

// applyPreparedCopyOnSpend is ApplyPrepared sealing through the
// reference.
func applyPreparedCopyOnSpend(s *State, p *Prepared, decision map[string]any) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	height := s.lastHeight + 1
	log := s.store.Backend().Collection(storage.TwoPCCollection)
	err := s.sealBlock(height, func() error {
		if err := s.copyOnSpendSealTx(&stagedTx{ops: p.ops}); err != nil {
			return err
		}
		if err := log.Put(DecisionKey(p.TxID), decision); err != nil {
			return err
		}
		if err := log.Delete(PrepareKey(p.TxID)); err != nil {
			return err
		}
		return s.putBlockRecord(height, []any{p.TxID}, true)
	})
	if err != nil {
		return 0, err
	}
	s.lastHeight = height
	return height, nil
}

// sealSpendOf seals, outside any block, one spend of key by spender — through the reference or the marker layout — and
// returns the seal's error. The stage never lets a spend of a missing
// output through; the seal must refuse one all the same.
func sealSpendOf(s *State, key, spender string, copyOnSpend bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &stagedTx{ops: []stagedOp{{kind: opMarkSpent, key: key, spender: spender}}}
	return s.store.Group(func() error {
		if copyOnSpend {
			return s.copyOnSpendSealTx(st)
		}
		return s.sealTx(st)
	})
}

// The handles the external differential (utxo_differential_test.go,
// package ledger_test: it reads through internal/query, which imports
// this package) drives the reference by.
var (
	CommitBlockCopyOnSpend   = commitBlockCopyOnSpend
	StageOwnedCopyOnSpend    = stageOwnedCopyOnSpend
	ApplyPreparedCopyOnSpend = applyPreparedCopyOnSpend
	SealSpendOf              = sealSpendOf
)
