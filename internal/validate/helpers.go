// Package validate implements the semantic validation algorithms of
// SmartchainDB: the concrete condition sets C_α for the six native
// transaction types (Definitions 3–4 and Algorithms 2–3 of the paper),
// registered into the declarative txtype framework. The server runs
// these conditions at each of the three validation points of the
// transaction life cycle (receiver node, CheckTx, DeliverTx).
package validate

import (
	"fmt"
	"slices"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// spentOutput reads the output ref spends in place, from its funding
// transaction in the batch or in committed state (ctx.Tx), and returns
// the funding transaction's reader with it: the conditions that need
// what an output's record does not hold (the funding operation,
// prev_owners) read them there. A funding transaction that is missing,
// or whose fields cannot be read, does not exist for the condition.
func spentOutput(ctx *txtype.Context, ref txn.OutputRef) (txn.Stored, txn.StoredOutput, error) {
	source, ok := ctx.Tx(ref.TxID)
	n, err := source.Outputs()
	if !ok || err != nil {
		return source, txn.StoredOutput{}, &txn.InputDoesNotExistError{TxID: ref.TxID}
	}
	if ref.Index < 0 || ref.Index >= n {
		op, err := source.Operation()
		if err != nil {
			return source, txn.StoredOutput{}, &txn.InputDoesNotExistError{TxID: ref.TxID}
		}
		return source, txn.StoredOutput{}, &txn.ValidationError{
			Op:     op,
			Reason: fmt.Sprintf("output index %d out of range (tx %s has %d outputs)", ref.Index, short(ref.TxID), n),
		}
	}
	out, err := source.Output(ref.Index)
	if err != nil {
		return source, txn.StoredOutput{}, &txn.InputDoesNotExistError{TxID: ref.TxID}
	}
	return source, out, nil
}

// operationOf reads a transaction's operation, refusing one whose
// fields cannot be read as missing (spentOutput).
func operationOf(s txn.Stored, id string) (string, error) {
	op, err := s.Operation()
	if err != nil {
		return "", &txn.InputDoesNotExistError{TxID: id}
	}
	return op, nil
}

// inputFact returns what the chain knows of the output t's input i
// spends: ctx.InputOutput's one keyed read, under the key t's spend
// keys hold. The funding transaction is read only where that read
// cannot answer: with no record, to tell a missing transaction from an
// index out of range, and on a spent output, whose marker keeps no
// owners or amount.
func inputFact(ctx *txtype.Context, t *txn.Transaction, i int) (txn.OutputFact, error) {
	f, ok := ctx.InputOutput(t, i)
	if ok && f.SpentBy == "" {
		return f, nil
	}
	_, out, err := spentOutput(ctx, *t.Inputs[i].Fulfills)
	if err != nil {
		return f, err
	}
	f.Owners, f.Amount = out.Owners, out.Amount
	return f, nil
}

// assetOf is the asset whose shares output ref holds, f being its fact.
// A committed record names it; an output of a batched ACCEPT_BID holds
// the asset of the bid its mirroring input spends, resolved down the
// nested parents.
func assetOf(ctx *txtype.Context, ref txn.OutputRef, f txn.OutputFact) (string, error) {
	if f.AssetID != "" {
		return f.AssetID, nil
	}
	source, _, err := spentOutput(ctx, ref)
	if err != nil {
		return "", err
	}
	op, err := operationOf(source, ref.TxID)
	if err != nil {
		return "", err
	}
	if op == txn.OpAcceptBid {
		mirrored, ok, err := source.Spends(ref.Index)
		if err != nil || !ok {
			return "", &txn.ValidationError{Op: op, Reason: fmt.Sprintf("nested parent output %d has no mirroring input", ref.Index)}
		}
		f, _ := ctx.Output(mirrored)
		return assetOf(ctx, mirrored, f)
	}
	id, err := source.AssetID()
	if err != nil {
		return "", &txn.InputDoesNotExistError{TxID: ref.TxID}
	}
	return id, nil
}

// inputOpts selects which shared checks apply for a transaction type.
type inputOpts struct {
	sameAsset    bool // every spent output must hold shares of t's asset
	reservedOnly bool // every spent output must be owned by PBPK-Res
}

// checkTransferInputs is the shared validateTransferInputs routine:
// every input must spend an existing, committed (or same-block),
// unspent output whose owners are covered by the input's owners-before
// set.
func checkTransferInputs(ctx *txtype.Context, t *txn.Transaction, opts inputOpts) error {
	if len(t.Inputs) == 0 {
		return &txn.ValidationError{Op: t.Operation, Reason: "no inputs"}
	}
	for i, in := range t.Inputs {
		if in.Fulfills == nil {
			return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d spends nothing", i)}
		}
		ref := *in.Fulfills
		f, err := inputFact(ctx, t, i)
		if err != nil {
			return err
		}
		// Owner coverage: every controlling key of the spent output must
		// appear among owners-before (extra co-signers, e.g. the
		// requester on ACCEPT_BID, are permitted).
		for j := range f.Owners {
			if k := f.Owners.At(j); !slices.Contains(in.OwnersBefore, k) {
				return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d does not carry owner %s of the spent output", i, short(k))}
			}
		}
		if f.SpentBy != "" && f.SpentBy != t.ID {
			return &txn.DoubleSpendError{Ref: ref, SpentBy: f.SpentBy}
		}
		if opts.reservedOnly {
			for j := range f.Owners {
				if !ctx.Reserved.IsReserved(f.Owners.At(j)) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d spends an output not held by a reserved account", i)}
				}
			}
		}
		if opts.sameAsset {
			assetID, err := assetOf(ctx, ref, f)
			if err != nil {
				return err
			}
			if t.Asset == nil || t.Asset.ID != assetID {
				want := "<nil>"
				if t.Asset != nil {
					want = short(t.Asset.ID)
				}
				return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d spends asset %s but transaction manipulates %s", i, short(assetID), want)}
			}
		}
	}
	return nil
}

// escrowSpend is the check of a transaction that releases one
// escrow-held output: the input checks, then the funding transaction's
// operation (op) and t's reference to it, refused with wrongOp and
// noRef.
func escrowSpend(op, wrongOp, noRef string) txtype.CheckFunc {
	return func(ctx *txtype.Context, t *txn.Transaction) error {
		if err := checkTransferInputs(ctx, t, inputOpts{reservedOnly: true, sameAsset: true}); err != nil {
			return err
		}
		ref := *t.Inputs[0].Fulfills
		source, _, err := spentOutput(ctx, ref)
		if err != nil {
			return err
		}
		got, err := operationOf(source, ref.TxID)
		if err != nil {
			return err
		}
		if got != op {
			return &txn.ValidationError{Op: t.Operation, Reason: wrongOp}
		}
		id, err := source.ID()
		if err != nil {
			return &txn.InputDoesNotExistError{TxID: ref.TxID}
		}
		if !t.HasRef(id) {
			return &txn.ValidationError{Op: t.Operation, Reason: noRef}
		}
		return nil
	}
}

// inputTotal sums the shares held by all spent outputs.
func inputTotal(ctx *txtype.Context, t *txn.Transaction) (uint64, error) {
	var sum uint64
	for i, in := range t.Inputs {
		if in.Fulfills == nil {
			continue
		}
		f, err := inputFact(ctx, t, i)
		if err != nil {
			return 0, err
		}
		sum += f.Amount
	}
	return sum, nil
}

// checkConservation enforces sum(inputs) == sum(outputs).
func checkConservation(ctx *txtype.Context, t *txn.Transaction) error {
	in, err := inputTotal(ctx, t)
	if err != nil {
		return err
	}
	if out := t.OutputAmount(); out != in {
		return &txn.AmountError{Op: t.Operation, Want: in, Got: out}
	}
	return nil
}

// checkNotDuplicate rejects a transaction already committed or already
// admitted to the block being built.
func checkNotDuplicate(ctx *txtype.Context, t *txn.Transaction) error {
	if ctx.State.IsCommitted(t.ID) {
		return &txn.DuplicateTransactionError{TxID: t.ID, Reason: "already committed"}
	}
	if ctx.Batch != nil {
		if _, ok := ctx.Batch.Get(t.ID); ok {
			return &txn.DuplicateTransactionError{TxID: t.ID, Reason: "already in current block"}
		}
	}
	return nil
}

// checkSignatures verifies the transaction ID and every fulfillment —
// condition (5) shared by all types.
func checkSignatures(_ *txtype.Context, t *txn.Transaction) error {
	return txn.VerifyFulfillments(t)
}

// capabilities extracts the "capabilities" string list from an asset
// data document (getCapsFromRFQ / getCapsFromAsset in Algorithm 2).
func capabilities(data map[string]any) []string {
	raw, ok := data["capabilities"].([]any)
	if !ok {
		return nil
	}
	out := make([]string, 0, len(raw))
	for _, e := range raw {
		if s, ok := e.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

// missingCapabilities returns the requested capabilities not covered by
// the offered set.
func missingCapabilities(requested, offered []string) []string {
	have := make(map[string]bool, len(offered))
	for _, c := range offered {
		have[c] = true
	}
	var missing []string
	for _, c := range requested {
		if !have[c] {
			missing = append(missing, c)
		}
	}
	return missing
}

// requestOwner reads the public key that owns a REQUEST transaction
// (getPubKey(RFQTx) in Algorithm 3).
func requestOwner(rfq txn.Stored) (string, error) {
	if n, _ := rfq.Outputs(); n > 0 {
		if out, err := rfq.Output(0); err == nil && len(out.Owners) > 0 {
			return out.Owners.At(0), nil
		}
	}
	return "", &txn.ValidationError{Op: txn.OpRequest, Reason: "REQUEST has no owner output"}
}

// theRequest reads and checks the single committed REQUEST named in
// the reference vector refs of a transaction of operation op, and
// returns its id with its reader.
func theRequest(ctx *txtype.Context, op string, refs []string) (string, txn.Stored, error) {
	var id string
	var rfq txn.Stored
	for _, ref := range refs {
		s, ok := ctx.Tx(ref)
		refOp, err := s.Operation()
		if !ok || err != nil {
			return "", txn.Stored{}, &txn.InputDoesNotExistError{TxID: ref}
		}
		if refOp == txn.OpRequest {
			if id != "" {
				return "", txn.Stored{}, &txn.ValidationError{Op: op, Reason: "reference vector names more than one REQUEST"}
			}
			id, rfq = ref, s
		}
	}
	if id == "" {
		return "", txn.Stored{}, &txn.ValidationError{Op: op, Reason: "reference vector names no REQUEST"}
	}
	return id, rfq, nil
}

func short(s string) string {
	if len(s) <= 8 {
		return s
	}
	return s[:8] + "..."
}
