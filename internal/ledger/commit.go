package ledger

import (
	"fmt"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// The stage and seal primitives every commit path shares: stageTx
// checks one transaction against an overlay and emits its write ops,
// sealTx performs them. pipeline.go composes them into the block
// commit; the 2PC apply (prepare.go) seals a single transaction's share
// with sealTx.

// stagedOp kinds, in the exact order a transaction mutates state.
const (
	opInsertTx = iota
	opMarkSpent
	opInsertUTXO
	opUpsertAsset
)

// stagedOp is one deferred docstore mutation produced by an applier.
// doc is handed over to the store at the seal and is immutable from
// the moment it is staged: the transaction document is the
// transaction's shared one, the others are built here and never
// touched again.
type stagedOp struct {
	kind    int
	key     string
	doc     map[string]any // opInsertTx, opInsertUTXO, opUpsertAsset
	spender string         // opMarkSpent
}

// stagedTx is one transaction's apply-phase outcome: either the ops to
// seal, or the error that skips it.
type stagedTx struct {
	err error
	ops []stagedOp
}

// groupOverlay is an applier's read view: the group's own staged
// writes over committed state. Only the keys a transaction's checks
// consult are tracked — transaction existence, the UTXO records the
// group created, and the spends it made.
type groupOverlay struct {
	s     *State
	txIDs map[string]bool
	utxos map[string]map[string]any // outputs staged by the group
	spent map[string]string         // UTXO key → spender staged by the group
}

func newGroupOverlay(s *State) *groupOverlay {
	return &groupOverlay{s: s, txIDs: make(map[string]bool), utxos: make(map[string]map[string]any), spent: make(map[string]string)}
}

func (o *groupOverlay) hasTx(id string) bool {
	return o.txIDs[id] || o.s.store.Collection(ColTransactions).Has(id)
}

// getUTXO returns the staged or committed UTXO record, by reference
// either way (a committed record is borrowed from the store); callers
// must not mutate it. Its spent fields are the committed ones: who has
// spent it in the group's view is spenderOf's answer.
func (o *groupOverlay) getUTXO(key string) (map[string]any, bool) {
	if doc, ok := o.utxos[key]; ok {
		return doc, true
	}
	return o.s.store.Collection(ColUTXOs).Borrow(key)
}

// spenderOf reports whether the UTXO exists in the group's view and
// which transaction, staged or committed, has spent it ("": none).
func (o *groupOverlay) spenderOf(key string) (spender string, exists bool) {
	if spender, ok := o.spent[key]; ok {
		return spender, true
	}
	doc, ok := o.getUTXO(key)
	if !ok {
		return "", false
	}
	spender, _ = doc["spent_by"].(string)
	return spender, true
}

// stageTx checks one transaction against the overlay and stages its
// write ops instead of performing them. On success the overlay
// absorbs the transaction's effects so later group members observe
// them.
func (o *groupOverlay) stageTx(t *txn.Transaction) *stagedTx {
	st := o.stageShare(t, true, nil)
	if st.err != nil {
		return st
	}
	// Absorb the transaction's effects so a same-group rival sees the
	// double spend, and a same-group spender the new outputs, exactly
	// as the sequential pass would.
	for _, op := range st.ops {
		switch op.kind {
		case opMarkSpent:
			o.spent[op.key] = op.spender
		case opInsertUTXO:
			o.utxos[op.key] = op.doc
		}
	}
	o.txIDs[t.ID] = true
	return st
}

// stageShare is the one stage body: it checks t against the overlay and
// stages the ops of the share of t recorded here. home says whether t is
// homed here — its document, outputs and asset record stage, after the
// duplicate check; owns, when non-nil, says which spent inputs (by
// SpentRefs index) are kept here, and only those are checked and
// marked. The block commit stages the whole transaction (home, nil); a
// non-home share must own an input. Failure stages nothing.
func (o *groupOverlay) stageShare(t *txn.Transaction, home bool, owns func(i int) bool) *stagedTx {
	if home && o.hasTx(t.ID) {
		return &stagedTx{err: &txn.DuplicateTransactionError{TxID: t.ID, Reason: "already committed"}}
	}
	// Check all spends first so failure stages nothing.
	spent := spentUTXOKeys(t)
	owned := spent
	if owns != nil {
		owned = make([]string, 0, len(spent))
	}
	for i, key := range spent {
		if owns != nil {
			if !owns(i) {
				continue
			}
			owned = append(owned, key)
		}
		spender, ok := o.spenderOf(key)
		if !ok {
			return &stagedTx{err: &txn.InputDoesNotExistError{TxID: t.SpentRefs()[i].TxID}}
		}
		if spender != "" {
			return &stagedTx{err: &txn.DoubleSpendError{Ref: t.SpentRefs()[i], SpentBy: spender}}
		}
	}
	if home {
		ops, err := homeOps(t, owned, o.getUTXO)
		return &stagedTx{ops: ops, err: err}
	}
	if len(owned) == 0 {
		return &stagedTx{err: fmt.Errorf("ledger: shard owns no inputs of %s", t.ID)}
	}
	ops := make([]stagedOp, len(owned))
	for i, key := range owned {
		ops[i] = stagedOp{kind: opMarkSpent, key: key, spender: t.ID}
	}
	return &stagedTx{ops: ops}
}

// homeOps turns transaction t into the write ops that record it where
// it is homed — the transaction document, a spent mark for each UTXO
// key in spent, one UTXO record per output and, for CREATE and REQUEST,
// the asset record — in the exact order a transaction mutates state.
// It is the one place a transaction becomes documents: the block
// commit (stageTx) passes every spent key, the cross-shard home share
// (StageOwned) only the keys its shard owns. utxo resolves a UTXO
// record in the caller's view: an ACCEPT_BID output carries the asset
// of the bid output its input fulfils, not the parent's.
//
// An output's record is seven keys — one map group — and, but for the
// output index, its values are the log document's own: the id, the
// output's public_keys and amount, and the asset id as the document
// (or, for an ACCEPT_BID output, the spent bid's record) holds it.
// Nothing under them is copied; stored documents are immutable, so
// sharing them is safe. What only the log's readers ask (the
// operation, the previous owners) the record does not repeat.
func homeOps(t *txn.Transaction, spent []string, utxo func(key string) (map[string]any, bool)) ([]stagedOp, error) {
	// The transaction's one document: the schema check read it, the
	// log stores it, nobody copies it.
	txDoc := t.SharedDoc()
	// The transaction document is the only user-controlled payload; a
	// doc the durable encoding rejects is refused here, before any
	// mutation stages. Every commit path stages through here, so the
	// canonical-document contract is enforced identically on every
	// backend, worker count and shard.
	if err := storage.EncodableDoc(txDoc); err != nil {
		return nil, fmt.Errorf("ledger: insert tx: %w", err)
	}
	ops := make([]stagedOp, 0, 2+len(spent)+len(t.Outputs))
	ops = append(ops, stagedOp{kind: opInsertTx, key: t.ID, doc: txDoc})
	for _, key := range spent {
		ops = append(ops, stagedOp{kind: opMarkSpent, key: key, spender: t.ID})
	}
	outs, _ := txDoc["outputs"].([]any)
	asset := assetIDOf(t, txDoc)
	for i, o := range outs {
		out, _ := o.(map[string]any)
		aid := asset
		if t.Operation == txn.OpAcceptBid && i < len(t.Inputs) && t.Inputs[i].Fulfills != nil {
			if doc, ok := utxo(utxoKey(*t.Inputs[i].Fulfills)); ok {
				if _, isID := doc["asset_id"].(string); isID {
					aid = doc["asset_id"]
				}
			}
		}
		ops = append(ops, stagedOp{kind: opInsertUTXO, key: utxoKey(txn.OutputRef{TxID: t.ID, Index: i}), doc: map[string]any{
			"transaction_id": txDoc["id"],
			"output_index":   float64(i),
			"owner":          out["public_keys"],
			"amount":         out["amount"],
			"asset_id":       aid,
			"spent":          false,
			"spent_by":       "",
		}})
	}
	if t.Operation == txn.OpCreate || t.Operation == txn.OpRequest {
		// The asset record shares the document's normalised asset.data,
		// never t.Asset.Data itself: the store must not hold a map the
		// client's transaction can still write to.
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

// assetIDOf is t.AssetID() as the value t's document holds: the
// document's id for CREATE and REQUEST, its asset link otherwise.
func assetIDOf(t *txn.Transaction, txDoc map[string]any) any {
	if t.Operation == txn.OpCreate || t.Operation == txn.OpRequest {
		return txDoc["id"]
	}
	if asset, ok := txDoc["asset"].(map[string]any); ok {
		if id, ok := asset["id"]; ok {
			return id
		}
	}
	return ""
}

// spendMarker returns the record a spend leaves in place of the output
// it consumes: {spent, spent_by, asset_id}, the three keys every reader
// of a spent output reads. prev is the marker of the spend sealed just
// before, returned again when it is the same spender's of the same
// asset: a 4-input TRANSFER writes one marker under its four keys,
// while an ACCEPT_BID, whose inputs hold different assets, writes one
// per input. Like every stored document, a marker is never written to
// again.
func spendMarker(prev map[string]any, spender string, asset any) map[string]any {
	if id, ok := asset.(string); ok && prev != nil && prev["spent_by"] == spender && prev["asset_id"] == id {
		return prev
	}
	return map[string]any{"spent": true, "spent_by": spender, "asset_id": asset}
}

// sealTx applies one staged transaction's ops through the docstore,
// in the order stageTx emitted them. A spend replaces the output's
// record with a marker (spendMarker) built from the record it replaces,
// whose version below the spend's height snapshot readers still see; a
// spend of a missing output fails the seal.
func (s *State) sealTx(st *stagedTx) error {
	txs := s.store.Collection(ColTransactions)
	utxos := s.store.Collection(ColUTXOs)
	var mark map[string]any
	for _, op := range st.ops {
		switch op.kind {
		case opInsertTx:
			if err := txs.Insert(op.key, op.doc); err != nil {
				return fmt.Errorf("ledger: insert tx: %w", err)
			}
		case opMarkSpent:
			rec, ok := utxos.Borrow(op.key)
			if !ok {
				return fmt.Errorf("ledger: mark spent %s: %w", op.key, &docstore.ErrNotFound{Collection: ColUTXOs, Key: op.key})
			}
			mark = spendMarker(mark, op.spender, rec["asset_id"])
			if err := utxos.Upsert(op.key, mark); err != nil {
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
