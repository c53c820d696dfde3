package ledger

import (
	"fmt"
	"sort"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/txn"
)

// Nested-transaction recovery log (the accept_tx_recovery collection of
// §4.2.1). When an ACCEPT_BID commits, the receiver node logs one
// record naming every pending child RETURN. Workers mark children done
// as they commit; a node coming back from a crash replays the pending
// children from this log.

// Child kinds of a nested ACCEPT_BID parent.
const (
	ChildTransfer = "TRANSFER" // winning output to the requester
	ChildReturn   = "RETURN"   // losing output back to its bidder
)

// ReturnSpec names one pending child transaction of a committed
// ACCEPT_BID: the TRANSFER realizing the winner or a RETURN realizing
// one losing bid.
type ReturnSpec struct {
	Kind        string // ChildTransfer or ChildReturn
	AcceptID    string // parent transaction
	OutputIndex int    // parent output to spend
	Recipient   string // requester (TRANSFER) or original bidder (RETURN)
	Amount      uint64
	AssetID     string // backing asset of the bid being realized
}

// RecoveryStatus values for an accept_tx_recovery record.
const (
	RecoveryPending  = "PENDING"
	RecoveryComplete = "COMPLETE"
)

// RecoveryRecord is one accept_tx_recovery document.
type RecoveryRecord struct {
	AcceptID string
	RFQID    string
	Status   string
	Pending  []ReturnSpec // children not yet committed
	// Done lists the committed child transaction IDs ordered by the
	// parent output they realize — not by commit time, so the vector
	// (and the parent's children field derived from it) is identical
	// on every replica regardless of how block packing interleaved the
	// children.
	Done []string
}

// LogAcceptRecovery writes the recovery record for a freshly committed
// ACCEPT_BID (logAcceptBidTxUpdForRecovery in Algorithm 3). Logging is
// idempotent: re-logging an existing record is a no-op so crash replays
// cannot duplicate it.
func (s *State) LogAcceptRecovery(acceptID, rfqID string, pending []ReturnSpec) error {
	col := s.store.Collection(ColRecovery)
	if col.Has(acceptID) {
		return nil
	}
	pdocs := make([]any, len(pending))
	for i, p := range pending {
		pdocs[i] = returnSpecDoc(p)
	}
	status := RecoveryPending
	if len(pending) == 0 {
		status = RecoveryComplete
	}
	return col.Insert(acceptID, map[string]any{
		"accept_id": acceptID,
		"rfq_id":    rfqID,
		"status":    status,
		"pending":   pdocs,
		"done":      []any{},
	})
}

func returnSpecDoc(p ReturnSpec) map[string]any {
	return map[string]any{
		"kind":         p.Kind,
		"accept_id":    p.AcceptID,
		"output_index": float64(p.OutputIndex),
		"recipient":    p.Recipient,
		"amount":       float64(p.Amount),
		"asset_id":     p.AssetID,
	}
}

func returnSpecFromDoc(d map[string]any) ReturnSpec {
	idx, _ := d["output_index"].(float64)
	amt, _ := d["amount"].(float64)
	kind, _ := d["kind"].(string)
	acc, _ := d["accept_id"].(string)
	rec, _ := d["recipient"].(string)
	aid, _ := d["asset_id"].(string)
	return ReturnSpec{Kind: kind, AcceptID: acc, OutputIndex: int(idx), Recipient: rec, Amount: uint64(amt), AssetID: aid}
}

// MarkReturnDone records that the child RETURN spending the parent's
// outputIndex committed as childID, and flips the record to COMPLETE
// when no children remain. The update assigns freshly built lists to
// top-level keys and edits nothing below them (docstore.Update).
func (s *State) MarkReturnDone(acceptID string, outputIndex int, childID string) error {
	col := s.store.Collection(ColRecovery)
	return col.Update(acceptID, func(doc map[string]any) error {
		pending, _ := doc["pending"].([]any)
		next := make([]any, 0, len(pending))
		removed := false
		for _, p := range pending {
			pd, ok := p.(map[string]any)
			if ok && !removed && int(pd["output_index"].(float64)) == outputIndex {
				removed = true
				continue
			}
			next = append(next, p)
		}
		if !removed {
			return fmt.Errorf("ledger: accept %s has no pending return for output %d", acceptID, outputIndex)
		}
		doc["pending"] = next
		done, _ := doc["done"].([]any)
		// Keyed by output index (not append order) so the derived Done
		// vector is replica- and packing-order independent.
		// The replaced version still holds done: append to a slice
		// clipped to its length, so the new entry always lands in a
		// fresh array.
		doc["done"] = append(done[:len(done):len(done)], map[string]any{
			"output_index": float64(outputIndex),
			"child_id":     childID,
		})
		if len(next) == 0 {
			doc["status"] = RecoveryComplete
		}
		return nil
	})
}

// RecoveryFor returns the recovery record for one ACCEPT_BID. It decodes
// the stored document in place: every validator reads it once per
// committed child, and the record keeps nothing of the map.
func (s *State) RecoveryFor(acceptID string) (*RecoveryRecord, error) {
	doc, ok := s.store.Collection(ColRecovery).Borrow(acceptID)
	if !ok {
		return nil, &docstore.ErrNotFound{Collection: ColRecovery, Key: acceptID}
	}
	return recoveryFromDoc(doc), nil
}

// PendingRecoveries lists every record with outstanding children — the
// worklist a recovering node replays ("enqueue all the RETURNs using
// the recovery log when the receiver node comes up online").
func (s *State) PendingRecoveries() []*RecoveryRecord {
	docs := s.store.Collection(ColRecovery).BorrowFind(docstore.Eq("status", RecoveryPending))
	out := make([]*RecoveryRecord, 0, len(docs))
	for _, d := range docs {
		out = append(out, recoveryFromDoc(d))
	}
	return out
}

func recoveryFromDoc(doc map[string]any) *RecoveryRecord {
	rec := &RecoveryRecord{}
	rec.AcceptID, _ = doc["accept_id"].(string)
	rec.RFQID, _ = doc["rfq_id"].(string)
	rec.Status, _ = doc["status"].(string)
	if pending, ok := doc["pending"].([]any); ok {
		for _, p := range pending {
			if pd, ok := p.(map[string]any); ok {
				rec.Pending = append(rec.Pending, returnSpecFromDoc(pd))
			}
		}
	}
	if done, ok := doc["done"].([]any); ok {
		type doneEntry struct {
			idx int
			id  string
		}
		entries := make([]doneEntry, 0, len(done))
		for _, d := range done {
			if dd, ok := d.(map[string]any); ok {
				idx, _ := dd["output_index"].(float64)
				id, _ := dd["child_id"].(string)
				entries = append(entries, doneEntry{idx: int(idx), id: id})
			}
		}
		sort.SliceStable(entries, func(a, b int) bool { return entries[a].idx < entries[b].idx })
		for _, e := range entries {
			rec.Done = append(rec.Done, e.id)
		}
	}
	return rec
}

// PendingReturnsFor derives the child specs for a committed ACCEPT_BID
// from chain state alone (deterRtrnTxs in Algorithm 3): every parent
// output still held by escrow and unspent becomes one child — output 0
// a TRANSFER of the winning shares to the REQUEST's owner rfqOwner
// (getPubKey(RFQTx) in the algorithm), every other output a RETURN to
// the original bidder recorded as previous owner.
func (s *State) PendingReturnsFor(accept *txn.Transaction, escrowPub, rfqOwner string) ([]ReturnSpec, error) {
	var specs []ReturnSpec
	for i, out := range accept.Outputs {
		if !out.OwnedBy(escrowPub) {
			continue // already realized or foreign output
		}
		ref := txn.OutputRef{TxID: accept.ID, Index: i}
		if !s.IsUnspent(ref) {
			continue // child already committed
		}
		assetID, err := s.bidAssetForInput(accept, i)
		if err != nil {
			return nil, err
		}
		spec := ReturnSpec{
			AcceptID:    accept.ID,
			OutputIndex: i,
			Amount:      out.Amount,
			AssetID:     assetID,
		}
		if i == 0 {
			spec.Kind = ChildTransfer
			spec.Recipient = rfqOwner
		} else {
			if len(out.PrevOwners) == 0 {
				return nil, &txn.ValidationError{Op: accept.Operation, Reason: fmt.Sprintf("output %d held by escrow but records no previous owner", i)}
			}
			spec.Kind = ChildReturn
			spec.Recipient = out.PrevOwners[0]
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// BuildChild constructs the unsigned child transaction realizing spec.
func BuildChild(spec ReturnSpec, escrowPub string) *txn.Transaction {
	if spec.Kind == ChildTransfer {
		return txn.NewTransfer(spec.AssetID,
			[]txn.Spend{{
				Ref:    txn.OutputRef{TxID: spec.AcceptID, Index: spec.OutputIndex},
				Owners: []string{escrowPub},
			}},
			[]*txn.Output{{
				PublicKeys: []string{spec.Recipient},
				Amount:     spec.Amount,
				PrevOwners: []string{escrowPub},
			}},
			nil)
	}
	return txn.NewReturn(escrowPub, spec.AcceptID, spec.OutputIndex,
		spec.Recipient, spec.Amount, spec.AssetID, nil)
}

// bidAssetForInput resolves the backing asset of the bid spent by the
// parent's i-th input (outputs mirror inputs one-to-one).
func (s *State) bidAssetForInput(accept *txn.Transaction, i int) (string, error) {
	if i < 0 || i >= len(accept.Inputs) || accept.Inputs[i].Fulfills == nil {
		return "", &txn.ValidationError{Op: accept.Operation, Reason: fmt.Sprintf("no input matching output %d", i)}
	}
	bid, err := s.GetTx(accept.Inputs[i].Fulfills.TxID)
	if err != nil {
		return "", err
	}
	return bid.AssetID(), nil
}
