package ledger

import (
	"maps"
	"slices"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/txn"
)

// Nested-transaction recovery log (the accept_tx_recovery collection of
// §4.2.1). The seal writes it inside the block's storage group, like
// everything else the block changes: sealing an ACCEPT_BID inserts one
// record naming every child it owes, and sealing a child marks it done
// there and rewrites the parent's children field. A record read at
// height h is therefore exactly what block h left, on every replica and
// across any crash; a node coming back up submits the pending children
// of every PENDING record.

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

// sealNested writes the nested bookkeeping t's commit owes, in the
// seal's group right after t's own ops: an ACCEPT_BID logs its recovery
// record, and a TRANSFER or RETURN whose first input spends an output a
// PENDING record lists marks that child done. Every other transaction
// returns before any lookup. Caller holds the state lock inside the
// block's group.
func (s *State) sealNested(t *txn.Transaction, ops []stagedOp) error {
	switch t.Operation {
	case txn.OpAcceptBid:
		return s.logAccept(t, ops)
	case txn.OpTransfer, txn.OpReturn:
		if len(t.Inputs) > 0 && t.Inputs[0].Fulfills != nil {
			return s.markChildDone(*t.Inputs[0].Fulfills, t.ID)
		}
	}
	return nil
}

// logAccept inserts the recovery record of ACCEPT_BID t
// (logAcceptBidTxUpdForRecovery in Algorithm 3), its children derived
// from the UTXO records ops just wrote (deterRtrnTxs): ACCEPT_BID.6
// puts every output under escrow, and each becomes one child — output
// 0 a TRANSFER of the winning shares to the REQUEST's owner
// (getPubKey(RFQTx)), every other output a RETURN to the bidder it
// records as previous owner — of the record's amount and asset, the
// spent bid's.
func (s *State) logAccept(t *txn.Transaction, ops []stagedOp) error {
	rfqID, requester := "", ""
	if len(t.Refs) > 0 {
		rfqID = t.Refs[0]
		requester = s.requestOwner(rfqID)
	}
	pending := make([]any, 0, len(t.Outputs))
	for _, op := range ops {
		if op.kind != opInsertUTXO {
			continue
		}
		idx, _ := op.doc["output_index"].(float64)
		kind, recipient := ChildTransfer, requester
		if i := int(idx); i > 0 {
			kind, recipient = ChildReturn, ""
			if prev := t.Outputs[i].PrevOwners; len(prev) > 0 {
				recipient = prev[0]
			}
		}
		pending = append(pending, map[string]any{
			"kind":         kind,
			"accept_id":    t.ID,
			"output_index": idx,
			"recipient":    recipient,
			"amount":       op.doc["amount"],
			"asset_id":     op.doc["asset_id"],
		})
	}
	status := RecoveryPending
	if len(pending) == 0 {
		status = RecoveryComplete
	}
	return s.store.Collection(ColRecovery).Insert(t.ID, map[string]any{
		"accept_id": t.ID,
		"rfq_id":    rfqID,
		"status":    status,
		"pending":   pending,
		"done":      []any{},
	})
}

// requestOwner is the first owner of the REQUEST's output 0 ("" for
// none), read in the writer view: the seal's own earlier writes count.
func (s *State) requestOwner(rfqID string) string {
	doc, _ := s.store.Collection(ColTransactions).Borrow(rfqID)
	out, err := txn.ReadStored(doc).Output(0)
	if err != nil || len(out.Owners) == 0 {
		return ""
	}
	return out.Owners.At(0)
}

// markChildDone records that childID spent ref: if a PENDING record
// lists ref's output, the output moves from its pending list to its
// done list, the record turns COMPLETE with the last one, and the
// parent's children field becomes the done list in output order — the
// order a replica reaches whatever the packing, so the field is the
// same on every replica. A spend of any other output writes nothing.
// Both documents are replaced, never edited: the new versions share
// everything below the top level they do not rebuild.
func (s *State) markChildDone(ref txn.OutputRef, childID string) error {
	col := s.store.Collection(ColRecovery)
	rec, ok := col.Borrow(ref.TxID)
	if !ok {
		return nil
	}
	pending, _ := rec["pending"].([]any)
	at := slices.IndexFunc(pending, func(p any) bool {
		pd, _ := p.(map[string]any)
		idx, _ := pd["output_index"].(float64)
		return int(idx) == ref.Index
	})
	if at < 0 {
		return nil
	}
	next := maps.Clone(rec)
	next["pending"] = slices.Delete(slices.Clone(pending), at, at+1)
	done, _ := rec["done"].([]any)
	// Clipped to its length, so the new entry lands in a fresh array
	// and the replaced version keeps its own.
	done = append(done[:len(done):len(done)], map[string]any{
		"output_index": float64(ref.Index),
		"child_id":     childID,
	})
	next["done"] = done
	if len(pending) == 1 {
		next["status"] = RecoveryComplete
	}
	if err := col.Upsert(ref.TxID, next); err != nil {
		return err
	}
	// The seal is the transactions collection's only writer, under the
	// state lock: the parent read here is the one the replacement
	// replaces. Room for one more key keeps the copy from growing when
	// the parent's first child adds its children field.
	txs := s.store.Collection(ColTransactions)
	parent, ok := txs.Borrow(ref.TxID)
	if !ok {
		return &docstore.ErrNotFound{Collection: ColTransactions, Key: ref.TxID}
	}
	nextParent := make(map[string]any, len(parent)+1)
	maps.Copy(nextParent, parent)
	nextParent["children"] = doneInOrder(done)
	return txs.Upsert(ref.TxID, nextParent)
}

// RecoveryFor returns the recovery record of one ACCEPT_BID at the
// view height. It decodes the stored document in place and keeps
// nothing of it.
func (v *StateView) RecoveryFor(acceptID string) (*RecoveryRecord, error) {
	doc, ok := v.borrow(ColRecovery, acceptID)
	if !ok {
		return nil, &docstore.ErrNotFound{Collection: ColRecovery, Key: acceptID}
	}
	return recoveryFromDoc(doc), nil
}

// PendingRecoveries lists every record with outstanding children as of
// the newest sealed block — the worklist a recovering node replays
// ("enqueue all the RETURNs using the recovery log when the receiver
// node comes up online").
func (s *State) PendingRecoveries() []*RecoveryRecord {
	docs := s.View().col(ColRecovery).BorrowFind(docstore.Eq("status", RecoveryPending))
	out := make([]*RecoveryRecord, 0, len(docs))
	for _, d := range docs {
		out = append(out, recoveryFromDoc(d))
	}
	return out
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
	done, _ := doc["done"].([]any)
	for _, id := range doneInOrder(done) {
		s, _ := id.(string)
		rec.Done = append(rec.Done, s)
	}
	return rec
}

// doneInOrder lists the child IDs of a record's done entries, as
// stored, in the order of the parent output each realized; an entry of
// any other shape is not a done child and is left out.
func doneInOrder(done []any) []any {
	type doneEntry struct {
		idx int
		id  any
	}
	entries := make([]doneEntry, 0, len(done))
	for _, d := range done {
		if dd, ok := d.(map[string]any); ok {
			idx, _ := dd["output_index"].(float64)
			entries = append(entries, doneEntry{idx: int(idx), id: dd["child_id"]})
		}
	}
	slices.SortStableFunc(entries, func(a, b doneEntry) int { return a.idx - b.idx })
	ids := make([]any, len(entries))
	for i, e := range entries {
		ids[i] = e.id
	}
	return ids
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
