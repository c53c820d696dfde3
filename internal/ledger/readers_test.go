package ledger

import (
	"crypto/sha3"
	"encoding/hex"
	"fmt"
	"maps"
	"sort"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/txn"
)

// Readers only this package's tests ask: the oracles they compare the
// chain's own reads against, and the retention seam they set.

// updateDoc replaces the document under key with fn applied to a copy
// of its top level, through Upsert: the tests' read-modify-write.
func updateDoc(col *docstore.Collection, key string, fn func(doc map[string]any) error) error {
	old, ok := col.Borrow(key)
	if !ok {
		return fmt.Errorf("no document under %q", key)
	}
	next := maps.Clone(old)
	if err := fn(next); err != nil {
		return err
	}
	return col.Upsert(key, next)
}

// StateAt returns a snapshot of the chain as of block height h. The
// height must lie within the retained window [Floor, Visible]:
// heights above Visible have not committed, heights below Floor have
// had their versions garbage-collected ("snapshot too old").
func (s *State) StateAt(h int64) (*StateView, error) {
	bk := s.store.Backend()
	lo, hi := bk.Floor(), bk.Visible()
	if h < lo || h > hi {
		return nil, fmt.Errorf("ledger: no snapshot at height %d (retained window [%d, %d])", h, lo, hi)
	}
	return &StateView{s: s, h: h}, nil
}

// SetRetain sets how many sealed block heights of version history the
// backend keeps for StateAt; older versions are garbage-collected as
// blocks seal.
func (s *State) SetRetain(heights int64) { s.store.Backend().SetRetain(heights) }

// unspent reports whether ref existed and was unspent at the view
// height.
func (v *StateView) unspent(ref txn.OutputRef) bool {
	f, ok := v.Output(ref)
	return ok && f.SpentBy == ""
}

// UnspentOutputs lists the output references pub owned unspent at the
// view height.
func (v *StateView) UnspentOutputs(pub string) []txn.OutputRef {
	docs := v.col(ColUTXOs).BorrowFind(docstore.And(docstore.Eq("owner", pub), docstore.Eq("spent", false)))
	refs := make([]txn.OutputRef, 0, len(docs))
	for _, d := range docs {
		refs = append(refs, txn.OutputRef{
			TxID:  d["transaction_id"].(string),
			Index: int(d["output_index"].(float64)),
		})
	}
	return refs
}

// TxsByOperation lists the transactions of one operation type
// committed by the view height.
func (v *StateView) TxsByOperation(op string) []*txn.Transaction {
	docs := v.col(ColTransactions).BorrowFind(docstore.Eq("operation", op))
	out := make([]*txn.Transaction, 0, len(docs))
	for _, d := range docs {
		if t, err := txn.FromStoredDoc(d); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Fingerprint digests the chain state as it stood at the view height —
// the same canonical encoding as State.Fingerprint, computed from the
// snapshot with no state lock. A view's fingerprint is byte-identical
// to the live fingerprint of a node that stopped committing at the
// view's block, which is exactly what the MVCC differential tests pin.
func (v *StateView) Fingerprint() string {
	h := sha3.New256()
	var buf []byte // reused across documents: one canonical-encode buffer for the whole digest
	for _, col := range []string{ColTransactions, ColUTXOs, ColAssets} {
		c := v.s.store.Collection(col)
		keys := c.Keys() // the writer view's: a key sealed above the view height is skipped
		sort.Strings(keys)
		h.Write([]byte(col))
		for _, key := range keys {
			doc, ok := c.BorrowAt(key, v.h)
			if !ok {
				continue
			}
			h.Write([]byte(key))
			buf = txn.AppendCanonicalDoc(buf[:0], doc)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
