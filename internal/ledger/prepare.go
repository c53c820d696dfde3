package ledger

import (
	"fmt"
	"math"
	"time"

	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// Cross-shard two-phase commit, ledger side. A cross-shard transaction
// never goes through a block commit: each participant shard stages only
// the ops that touch keys it owns (StageOwned), durably logs them as a
// PREPARE record, and — once the coordinator's decision record exists
// — applies them as a single-transaction block (ApplyPrepared) whose
// WAL group atomically seals the effects, records the local decision,
// and deletes the prepare record. A participant killed at any byte
// offset therefore reopens either wholly before the apply (prepare
// record intact, transaction in doubt) or wholly after it (effects +
// decision durable, prepare gone) — the invariant shard recovery
// replays against.

// PrepareKey and DecisionKey name a transaction's records in the 2PC
// log: plain documents in the backend's storage.TwoPCCollection,
// written, deleted and scanned like those of any other collection.
func PrepareKey(txID string) string  { return "p:" + txID }
func DecisionKey(txID string) string { return "d:" + txID }

// twopc returns the backend collection the 2PC log lives in.
func (s *State) twopc() storage.Collection {
	return s.store.Backend().Collection(storage.TwoPCCollection)
}

// decide records a transaction's decision on this shard and deletes
// its prepare record, if any. Inside an open Group both join the
// group's atomic WAL record.
func (s *State) decide(txID string, decision map[string]any) error {
	log := s.twopc()
	if err := log.Put(DecisionKey(txID), decision); err != nil {
		return err
	}
	return log.Delete(PrepareKey(txID))
}

// Prepared is one shard's staged share of a cross-shard transaction:
// the exact mutation ops the shard will seal on commit, in the order
// stageTx would have emitted them.
type Prepared struct {
	TxID string
	ops  []stagedOp
}

// StageOwned checks and stages the shard-owned share of t against
// committed state: the block commit's stage body (stageShare) with its
// spends restricted to the inputs owns reports (by SpentRefs index)
// this shard keeps. The home shard (home=true) stages the transaction
// document, every output, the asset record, and its owned input marks;
// a non-home participant stages only the spent marks for the inputs it
// owns. Nothing is mutated; failure stages nothing.
func (s *State) StageOwned(t *txn.Transaction, home bool, owns func(i int) bool) (*Prepared, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// A bare overlay: committed state only, and nothing absorbed.
	st := (&groupOverlay{s: s}).stageShare(t, home, owns)
	if st.err != nil {
		return nil, st.err
	}
	return &Prepared{TxID: t.ID, ops: st.ops}, nil
}

// LogPrepare makes the shard's staged share durable as a PREPARE
// record — the participant's vote. After it returns, the shard can
// recover the exact ops across a crash.
func (s *State) LogPrepare(p *Prepared) error {
	return s.twopc().Put(PrepareKey(p.TxID), p.Doc())
}

// Doc renders the prepared share into the canonical document shape the
// 2PC log stores (DecodePrepared inverts it).
func (p *Prepared) Doc() map[string]any {
	ops := make([]any, len(p.ops))
	for i, op := range p.ops {
		m := map[string]any{"kind": float64(op.kind), "key": op.key}
		if op.doc != nil {
			m["doc"] = op.doc
		}
		if op.spender != "" {
			m["spender"] = op.spender
		}
		ops[i] = m
	}
	return map[string]any{"kind": "prepare", "tx": p.TxID, "ops": ops}
}

// DecodePrepared parses a PREPARE record document back into the staged
// share it was rendered from. The record is bytes read back from a data
// directory, so it is checked for everything the seal will need: each
// op a known kind, a key, a document for each write and the spender for
// each spend (FuzzDecodePrepared).
func DecodePrepared(doc map[string]any) (*Prepared, error) {
	id, _ := doc["tx"].(string)
	rawOps, isList := doc["ops"].([]any)
	if id == "" || doc["kind"] != "prepare" || !isList {
		return nil, fmt.Errorf("ledger: malformed prepare record: %v", doc)
	}
	p := &Prepared{TxID: id}
	for i, raw := range rawOps {
		m, _ := raw.(map[string]any)
		kind, kok := m["kind"].(float64)
		key, keyOK := m["key"].(string)
		if !kok || !keyOK || kind != math.Trunc(kind) || kind < opInsertTx || kind > opUpsertAsset {
			return nil, fmt.Errorf("ledger: malformed prepare op %d in %s", i, id)
		}
		op := stagedOp{kind: int(kind), key: key}
		op.doc, _ = m["doc"].(map[string]any)
		op.spender, _ = m["spender"].(string)
		if op.kind == opMarkSpent && op.spender == "" || op.kind != opMarkSpent && op.doc == nil {
			return nil, fmt.Errorf("ledger: prepare op %d in %s lacks its spender or document", i, id)
		}
		p.ops = append(p.ops, op)
	}
	return p, nil
}

// Applied reports whether the prepared share's effects are already
// committed — the idempotence guard recovery uses before replaying.
func (s *State) Applied(p *Prepared) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, op := range p.ops {
		switch op.kind {
		case opInsertTx:
			return s.store.Collection(ColTransactions).Has(op.key)
		case opMarkSpent:
			doc, ok := s.store.Collection(ColUTXOs).Borrow(op.key)
			if !ok {
				return false
			}
			spender, _ := doc["spent_by"].(string)
			return spender == p.TxID
		}
	}
	return false
}

// ApplyPrepared commits a decided cross-shard transaction: the staged
// ops seal as a single-transaction block at the shard's next height,
// and the same atomic WAL group records the decision locally and
// deletes the prepare record. Returns the block height. A failure
// before the group means nothing was applied; a prepared transaction
// whose global decision is commit failing its pre-checks is an
// invariant violation and errors without touching state. It panics
// while a block BeginBlockCommit opened, the next height's, is unsealed.
func (s *State) ApplyPrepared(p *Prepared, decision map[string]any) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requireSealed("ApplyPrepared", s.lastHeight+1)
	// Pre-verify every op lands cleanly so the group cannot fail
	// halfway: the participant vouched for these ops at prepare time
	// and holds exclude conflicting local commits in between.
	txs := s.store.Collection(ColTransactions)
	utxos := s.store.Collection(ColUTXOs)
	for _, op := range p.ops {
		switch op.kind {
		case opInsertTx:
			if txs.Has(op.key) {
				return 0, fmt.Errorf("ledger: apply prepared %s: transaction already committed", p.TxID)
			}
		case opMarkSpent:
			doc, ok := utxos.Borrow(op.key)
			if !ok {
				return 0, fmt.Errorf("ledger: apply prepared %s: input %s vanished", p.TxID, op.key)
			}
			if spender, _ := doc["spent_by"].(string); spender != "" {
				return 0, fmt.Errorf("ledger: apply prepared %s: input %s spent by %s", p.TxID, op.key, spender)
			}
		case opInsertUTXO:
			if utxos.Has(op.key) {
				return 0, fmt.Errorf("ledger: apply prepared %s: output %s already exists", p.TxID, op.key)
			}
		}
	}
	height := s.lastHeight + 1
	sealT := time.Now()
	err := s.sealBlock(height, func() error {
		if serr := s.sealTx(&stagedTx{ops: p.ops}); serr != nil {
			return serr
		}
		if derr := s.decide(p.TxID, decision); derr != nil {
			return derr
		}
		return s.putBlockRecord(height, []any{p.TxID}, true)
	})
	if err != nil {
		return 0, err
	}
	s.lastHeight = height
	sealD := time.Since(sealT)
	// The block and its seal time are recorded like any other; its
	// transaction is left out of ledger.commit.txs, which counts block
	// commits only, so readings that divide by it stay comparable.
	s.ob.recordBlock(height, 0, 0, sealD, sealD, 1, 0, 0)
	return height, nil
}

// AbortPrepared abandons a transaction this shard may have prepared:
// one atomic group records the abort decision and deletes any prepare
// record. Nothing staged ever reaches the collections, so there is no
// state to undo.
func (s *State) AbortPrepared(txID string, decision map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Group(func() error { return s.decide(txID, decision) })
}

// InDoubt returns the surviving PREPARE records — transactions whose
// apply never committed locally — decoded, keyed by transaction ID.
func (s *State) InDoubt() (map[string]*Prepared, error) {
	out := make(map[string]*Prepared)
	var derr error
	s.twopc().Scan(func(key string, doc map[string]any) bool {
		if doc["kind"] != "prepare" {
			return true
		}
		p, err := DecodePrepared(doc)
		if err != nil {
			derr = err
			return false
		}
		out[p.TxID] = p
		return true
	})
	return out, derr
}

// Decision returns the recorded outcome ("commit" or "abort") for a
// transaction on this shard, if any.
func (s *State) Decision(txID string) (string, bool) {
	doc, ok := s.twopc().Get(DecisionKey(txID))
	if !ok {
		return "", false
	}
	outcome, _ := doc["outcome"].(string)
	return outcome, outcome != ""
}
