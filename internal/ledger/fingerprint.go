package ledger

import (
	"crypto/sha3"
	"encoding/hex"
	"sort"

	"smartchaindb/internal/txn"
)

// Fingerprint digests the node's semantic chain state: every committed
// transaction, UTXO record, and asset document, canonically encoded in
// key order. Two nodes that committed the same transaction set report
// the same fingerprint byte for byte, regardless of how the
// transactions were distributed into blocks — which is exactly what the
// packing-policy differential tests pin: conflict-aware packing may
// reshape blocks, never state. The blocks collection (block
// composition) and the recovery log (commit-timing bookkeeping) are
// deliberately excluded.
func (s *State) Fingerprint() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := sha3.New256()
	var buf []byte // reused across documents: one canonical-encode buffer for the whole digest
	for _, col := range []string{ColTransactions, ColUTXOs, ColAssets} {
		c := s.store.Collection(col)
		keys := c.Keys()
		sort.Strings(keys)
		h.Write([]byte(col))
		for _, key := range keys {
			doc, _ := c.Borrow(key) // the chain never deletes a document: a listed key resolves
			h.Write([]byte(key))
			buf = txn.AppendCanonicalDoc(buf[:0], doc)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
