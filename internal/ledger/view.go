package ledger

import (
	"strings"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/txn"
)

// StateView is an immutable read-only view of the chain state as of
// one committed block height. Every read resolves against the
// docstore's height-stamped snapshots: no commit fence, no state
// lock, no collection lock — a view held across a racing block commit
// keeps answering from its own height, bit-for-bit stable, while the
// commit proceeds unblocked.
//
// StateView implements txtype.ChainState, so validators run against a
// pinned view instead of the live state: a verdict computed at height
// h cannot flicker when the commit pipeline seals h+1 mid-validation.
type StateView struct {
	s *State
	h int64
}

// View returns a snapshot of the newest committed state — the chain
// as of the last sealed block. Views are two words; take a fresh one
// per logical read for the newest height.
func (s *State) View() *StateView {
	return &StateView{s: s, h: s.store.Backend().Visible()}
}

func (v *StateView) col(name string) *docstore.Snapshot {
	return v.s.store.Collection(name).SnapshotAt(v.h)
}

// Collection returns the docstore snapshot of one chain collection at
// the view height — the handle the analytics layer runs its planned
// queries through.
func (v *StateView) Collection(name string) *docstore.Snapshot { return v.col(name) }

// borrow returns the stored document under key at the view height —
// the document itself, read-only (docstore.Collection.Borrow). Every
// read in this file, point or set-valued (BorrowFind), decodes or
// inspects the stored documents and lets them go.
func (v *StateView) borrow(col, key string) (map[string]any, bool) {
	return v.s.store.Collection(col).BorrowAt(key, v.h)
}

// Tx reads the transaction committed as of the view height in place
// (txn.Stored): the stored document, borrowed, each field checked as it
// is read. Every condition and query that reads a transaction's fields
// reads them this way.
func (v *StateView) Tx(id string) (txn.Stored, bool) {
	doc, ok := v.borrow(ColTransactions, id)
	return txn.ReadStored(doc), ok
}

// GetTx returns the transaction committed as of the view height,
// decoded from the stored document without copying it
// (txn.FromStoredDoc): for a caller that hands the transaction out.
// It is read-only in Asset.Data and Metadata, which are the stored
// maps: a caller that wants to change it takes a Clone first. This
// holds for AcceptForRFQ's transaction too.
func (v *StateView) GetTx(id string) (*txn.Transaction, error) {
	s, ok := v.Tx(id)
	if !ok {
		return nil, &txn.InputDoesNotExistError{TxID: id}
	}
	return s.Decode()
}

// IsCommitted reports whether the transaction was in the log at the
// view height.
func (v *StateView) IsCommitted(id string) bool {
	_, ok := v.borrow(ColTransactions, id)
	return ok
}

// TxCount returns the number of transactions committed by the view
// height.
func (v *StateView) TxCount() int { return v.col(ColTransactions).Len() }

// Output returns what the chain held of output ref at the view
// height, from the one record under its key: the UTXO record, or the
// spend marker that replaced it, which keeps only the asset and the
// spender.
func (v *StateView) Output(ref txn.OutputRef) (txn.OutputFact, bool) {
	return v.OutputKeyed(ref, utxoKey(ref))
}

// OutputKeyed is Output under key, ref's UTXO key, which the caller
// already holds.
func (v *StateView) OutputKeyed(_ txn.OutputRef, key string) (txn.OutputFact, bool) {
	rec, ok := v.borrow(ColUTXOs, key)
	if !ok {
		return txn.OutputFact{}, false
	}
	return txn.FactFromDoc(rec["owner"], rec["amount"], rec["asset_id"], rec["spent_by"])
}

// Balance sums the unspent shares pub owned of the asset at the view
// height.
func (v *StateView) Balance(pub, assetID string) uint64 {
	docs := v.col(ColUTXOs).BorrowFind(docstore.And(
		docstore.Eq("owner", pub),
		docstore.Eq("spent", false),
		docstore.Eq("asset_id", assetID),
	))
	var sum uint64
	for _, d := range docs {
		sum += uint64(d["amount"].(float64))
	}
	return sum
}

// LockedBidsForRFQ is State.LockedBidsForRFQ at the view height: both
// the BID lookup and the escrow-unspent check read the same snapshot,
// so a commit landing mid-query cannot produce a bid list no single
// chain state ever held. The lookup drives on the refs index, which
// yields one REQUEST's BIDs, and checks the operation on each; written
// the other way round it would walk every BID on the chain. Each BID's
// id is read in place, and the UTXO keys of their escrow outputs
// (output 0) are cut from one string built for the whole list.
func (v *StateView) LockedBidsForRFQ(rfqID string) []string {
	docs := v.col(ColTransactions).BorrowFind(docstore.And(
		docstore.Contains("refs", rfqID),
		docstore.Eq("operation", txn.OpBid),
	))
	ids, size := make([]string, 0, len(docs)), 0
	for _, d := range docs {
		if id, err := txn.ReadStored(d).ID(); err == nil {
			ids = append(ids, id)
			size += len(id) + len(escrowKeySuffix)
		}
	}
	var keys strings.Builder
	keys.Grow(size)
	for _, id := range ids {
		keys.WriteString(id)
		keys.WriteString(escrowKeySuffix)
	}
	rest, out := keys.String(), ids[:0]
	for _, id := range ids {
		key := rest[:len(id)+len(escrowKeySuffix)]
		rest = rest[len(key):]
		if f, ok := v.OutputKeyed(txn.OutputRef{TxID: id, Index: 0}, key); ok && f.SpentBy == "" {
			out = append(out, id)
		}
	}
	return out
}

// Accepted reads the ACCEPT_BID referencing the REQUEST as of the view
// height in place, if one had committed.
func (v *StateView) Accepted(rfqID string) (txn.Stored, bool) {
	docs := v.col(ColTransactions).BorrowFindLimit(docstore.And(
		docstore.Contains("refs", rfqID),
		docstore.Eq("operation", txn.OpAcceptBid),
	), 1)
	if len(docs) == 0 {
		return txn.Stored{}, false
	}
	return txn.ReadStored(docs[0]), true
}

// AcceptForRFQ is Accepted, decoded.
func (v *StateView) AcceptForRFQ(rfqID string) (*txn.Transaction, bool) {
	s, ok := v.Accepted(rfqID)
	if !ok {
		return nil, false
	}
	t, err := s.Decode()
	if err != nil {
		return nil, false
	}
	return t, true
}
