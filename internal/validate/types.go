package validate

import (
	"fmt"
	"slices"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// NewRegistry builds the txtype registry holding the condition sets of
// all six native SmartchainDB transaction types. Each condition is
// named after its counterpart in the paper's Definitions 3–4 and
// Algorithms 2–3.
func NewRegistry() *txtype.Registry {
	r := txtype.NewRegistry()
	for _, ty := range []*txtype.Type{createType(), requestType(), transferType(), bidType(), returnType(), acceptBidType(), WithdrawBidType()} {
		if err := r.Register(ty); err != nil {
			// invariant: the native condition sets are code; one the registry refuses is a build defect.
			panic(err)
		}
	}
	return r
}

func createType() *txtype.Type {
	return &txtype.Type{
		Op: txn.OpCreate,
		Conditions: []txtype.Condition{
			{Name: "CREATE.dup", Doc: "transaction is not a duplicate", Check: checkNotDuplicate},
			{Name: "CREATE.1", Doc: "exactly one unanchored input", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Inputs) != 1 || t.Inputs[0].Fulfills != nil {
					return &txn.ValidationError{Op: t.Operation, Reason: "CREATE must have exactly one input spending nothing"}
				}
				return nil
			}},
			{Name: "CREATE.2", Doc: "asset is defined inline", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if t.Asset == nil || t.Asset.ID != "" {
					return &txn.ValidationError{Op: t.Operation, Reason: "CREATE must define its asset inline"}
				}
				return nil
			}},
			{Name: "CREATE.3", Doc: "all fulfillments verify", Check: checkSignatures},
			{Name: "CREATE.4", Doc: "outputs hold exactly the minted shares", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if got := t.OutputAmount(); got != t.Asset.Shares {
					return &txn.AmountError{Op: t.Operation, Want: t.Asset.Shares, Got: got}
				}
				return nil
			}},
		},
	}
}

func requestType() *txtype.Type {
	return &txtype.Type{
		Op: txn.OpRequest,
		Conditions: []txtype.Condition{
			{Name: "REQUEST.dup", Doc: "transaction is not a duplicate", Check: checkNotDuplicate},
			{Name: "REQUEST.1", Doc: "exactly one unanchored input", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Inputs) != 1 || t.Inputs[0].Fulfills != nil {
					return &txn.ValidationError{Op: t.Operation, Reason: "REQUEST must have exactly one input spending nothing"}
				}
				return nil
			}},
			{Name: "REQUEST.2", Doc: "single output owned by the requester", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Outputs) != 1 {
					return &txn.ValidationError{Op: t.Operation, Reason: "REQUEST must have exactly one output"}
				}
				issuer := t.Inputs[0].OwnersBefore[0]
				if !t.Outputs[0].OwnedBy(issuer) {
					return &txn.ValidationError{Op: t.Operation, Reason: "REQUEST output must be owned by its issuer"}
				}
				return nil
			}},
			{Name: "REQUEST.3", Doc: "requirements name at least one capability", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if t.Asset == nil || len(capabilities(t.Asset.Data)) == 0 {
					return &txn.ValidationError{Op: t.Operation, Reason: "REQUEST must state required capabilities"}
				}
				return nil
			}},
			{Name: "REQUEST.4", Doc: "all fulfillments verify", Check: checkSignatures},
		},
	}
}

func transferType() *txtype.Type {
	return &txtype.Type{
		Op: txn.OpTransfer,
		Conditions: []txtype.Condition{
			{Name: "TRANSFER.dup", Doc: "transaction is not a duplicate", Check: checkNotDuplicate},
			{Name: "TRANSFER.1", Doc: "at least one input", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Inputs) == 0 {
					return &txn.ValidationError{Op: t.Operation, Reason: "no inputs"}
				}
				return nil
			}},
			{Name: "TRANSFER.2", Doc: "all fulfillments verify", Check: checkSignatures},
			{Name: "TRANSFER.3", Doc: "inputs spend unspent outputs of the same asset", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				return checkTransferInputs(ctx, t, inputOpts{sameAsset: true})
			}},
			{Name: "TRANSFER.4", Doc: "shares are conserved", Check: checkConservation},
		},
	}
}

// bidType implements C_BID (Definition 3) and Algorithm 2.
func bidType() *txtype.Type {
	return &txtype.Type{
		Op: txn.OpBid,
		Conditions: []txtype.Condition{
			{Name: "BID.dup", Doc: "transaction is not a duplicate", Check: checkNotDuplicate},
			{Name: "BID.1", Doc: "|I| >= 1: at least one input object", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Inputs) < 1 {
					return &txn.ValidationError{Op: t.Operation, Reason: "must have at least one input"}
				}
				return nil
			}},
			{Name: "BID.2", Doc: "|R| >= 1: reference vector is non-empty", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Refs) < 1 {
					return &txn.ValidationError{Op: t.Operation, Reason: "reference vector is empty"}
				}
				return nil
			}},
			{Name: "BID.3", Doc: "exactly one committed REQUEST in the reference vector", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				_, _, err := theRequest(ctx, t.Operation, t.Refs)
				return err
			}},
			{Name: "BID.4", Doc: "at least one input holds a non-null asset", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				total, err := inputTotal(ctx, t)
				if err != nil {
					return err
				}
				if total == 0 {
					return &txn.ValidationError{Op: t.Operation, Reason: "no input holds any shares"}
				}
				return nil
			}},
			{Name: "BID.5", Doc: "all fulfillments verify", Check: checkSignatures},
			{Name: "BID.6", Doc: "every output is held by a reserved (escrow) account and records the bidder", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				// Collect the actual owners of the spent outputs so the
				// recorded previous owners cannot be forged.
				actualOwners := make(map[string]bool)
				for i, in := range t.Inputs {
					if in.Fulfills == nil {
						continue
					}
					f, err := inputFact(ctx, t, i)
					if err != nil {
						return err
					}
					for j := range f.Owners {
						actualOwners[f.Owners.At(j)] = true
					}
				}
				for j, out := range t.Outputs {
					for _, k := range out.PublicKeys {
						if !ctx.Reserved.IsReserved(k) {
							return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d is not held by a reserved account", j)}
						}
					}
					if len(out.PrevOwners) == 0 {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d records no previous owner", j)}
					}
					for _, k := range out.PrevOwners {
						if !actualOwners[k] {
							return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d records previous owner %s who owned no spent output", j, short(k))}
						}
					}
				}
				return nil
			}},
			{Name: "BID.7", Doc: "requested capabilities are a subset of the bid assets' capabilities", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				rfqID, rfq, err := theRequest(ctx, t.Operation, t.Refs)
				if err != nil {
					return err
				}
				data, err := rfq.AssetData()
				if err != nil {
					return &txn.InputDoesNotExistError{TxID: rfqID}
				}
				requested := capabilities(data)
				var offered []string
				seen := make(map[string]bool)
				for i, in := range t.Inputs {
					if in.Fulfills == nil {
						continue
					}
					f, _ := ctx.InputOutput(t, i)
					assetID, err := assetOf(ctx, *in.Fulfills, f)
					if err != nil {
						return err
					}
					if seen[assetID] {
						continue
					}
					seen[assetID] = true
					assetTx, ok := ctx.Tx(assetID)
					data, err := assetTx.AssetData()
					if !ok || err != nil {
						return &txn.InputDoesNotExistError{TxID: assetID}
					}
					offered = append(offered, capabilities(data)...)
				}
				if missing := missingCapabilities(requested, offered); len(missing) > 0 {
					return &txn.InsufficientCapabilitiesError{Missing: missing}
				}
				return nil
			}},
			{Name: "BID.8", Doc: "every input spends a valid unspent output of the bid asset, conserving shares", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if err := checkTransferInputs(ctx, t, inputOpts{sameAsset: true}); err != nil {
					return err
				}
				return checkConservation(ctx, t)
			}},
		},
	}
}

// returnType validates the child RETURN transactions of a nested parent.
func returnType() *txtype.Type {
	return &txtype.Type{
		Op: txn.OpReturn,
		Conditions: []txtype.Condition{
			{Name: "RETURN.dup", Doc: "transaction is not a duplicate", Check: checkNotDuplicate},
			{Name: "RETURN.1", Doc: "exactly one input and one output", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Inputs) != 1 || len(t.Outputs) != 1 {
					return &txn.ValidationError{Op: t.Operation, Reason: "RETURN must have exactly one input and one output"}
				}
				return nil
			}},
			{Name: "RETURN.2", Doc: "all fulfillments verify", Check: checkSignatures},
			{Name: "RETURN.3", Doc: "spends an escrow-held output of a committed ACCEPT_BID",
				Check: escrowSpend(txn.OpAcceptBid, "RETURN must spend an ACCEPT_BID output", "RETURN must reference its parent ACCEPT_BID")},
			{Name: "RETURN.4", Doc: "shares go back to the recorded previous owner, fully", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				_, spent, err := spentOutput(ctx, *t.Inputs[0].Fulfills)
				if err != nil {
					return err
				}
				out := t.Outputs[0]
				if out.Amount != spent.Amount {
					return &txn.AmountError{Op: t.Operation, Want: spent.Amount, Got: out.Amount}
				}
				if len(spent.PrevOwners) == 0 {
					return &txn.ValidationError{Op: t.Operation, Reason: "spent output records no previous owner"}
				}
				for j := range spent.PrevOwners {
					if prev := spent.PrevOwners.At(j); !out.OwnedBy(prev) {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("shares must return to previous owner %s", short(prev))}
					}
				}
				return nil
			}},
		},
	}
}

// acceptBidType implements C_ACCEPT_BID (Definition 4) and Algorithm 3.
func acceptBidType() *txtype.Type {
	return &txtype.Type{
		Op: txn.OpAcceptBid,
		Conditions: []txtype.Condition{
			{Name: "ACCEPT_BID.dup", Doc: "no other ACCEPT_BID exists for the REQUEST", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if err := checkNotDuplicate(ctx, t); err != nil {
					return err
				}
				rfqID, _, err := theRequest(ctx, t.Operation, t.Refs)
				if err != nil {
					return err
				}
				if dup, ok := ctx.State.Accepted(rfqID); ok {
					id, _ := dup.ID()
					return &txn.DuplicateTransactionError{TxID: id, Reason: "REQUEST already has an accepted bid"}
				}
				if ctx.Batch != nil {
					for _, other := range ctx.Batch.Transactions() {
						if other.Operation == txn.OpAcceptBid && other.HasRef(rfqID) && other.ID != t.ID {
							return &txn.DuplicateTransactionError{TxID: other.ID, Reason: "REQUEST already has an accepted bid in this block"}
						}
					}
				}
				return nil
			}},
			{Name: "ACCEPT_BID.2", Doc: "|R| == 1: exactly one reference", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Refs) != 1 {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("reference vector has %d elements, want 1", len(t.Refs))}
				}
				return nil
			}},
			{Name: "ACCEPT_BID.3", Doc: "the reference is a committed REQUEST", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				_, _, err := theRequest(ctx, t.Operation, t.Refs)
				return err
			}},
			{Name: "ACCEPT_BID.5", Doc: "all fulfillments verify", Check: checkSignatures},
			{Name: "ACCEPT_BID.signer", Doc: "signer of ACCEPT_BID is the signer of the REQUEST", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				_, rfq, err := theRequest(ctx, t.Operation, t.Refs)
				if err != nil {
					return err
				}
				owner, err := requestOwner(rfq)
				if err != nil {
					return err
				}
				for i, in := range t.Inputs {
					found := false
					for _, k := range in.OwnersBefore {
						if k == owner {
							found = true
							break
						}
					}
					if !found {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d is not co-signed by the REQUEST owner", i)}
					}
				}
				return nil
			}},
			{Name: "ACCEPT_BID.1", Doc: "|I| == n: inputs spend every escrow-held bid for the REQUEST", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				rfqID, _, err := theRequest(ctx, t.Operation, t.Refs)
				if err != nil {
					return err
				}
				locked := ctx.State.LockedBidsForRFQ(rfqID)
				if len(t.Inputs) != len(locked) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("spends %d bids but %d are escrow-held for the REQUEST", len(t.Inputs), len(locked))}
				}
				slices.Sort(locked)
				for i, in := range t.Inputs {
					held := false
					if in.Fulfills != nil {
						_, held = slices.BinarySearch(locked, in.Fulfills.TxID)
					}
					if !held {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d does not spend an escrow-held bid for the REQUEST", i)}
					}
				}
				return nil
			}},
			{Name: "ACCEPT_BID.win", Doc: "the winning bid is escrow-held for this REQUEST and spent first", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if t.Asset == nil || t.Asset.ID == "" {
					return &txn.ValidationError{Op: t.Operation, Reason: "asset must anchor to the winning bid"}
				}
				if len(t.Inputs) == 0 || t.Inputs[0].Fulfills == nil || t.Inputs[0].Fulfills.TxID != t.Asset.ID {
					return &txn.ValidationError{Op: t.Operation, Reason: "first input must spend the winning bid"}
				}
				win, ok := ctx.Tx(t.Asset.ID)
				op, err := win.Operation()
				if !ok || err != nil {
					return &txn.InputDoesNotExistError{TxID: t.Asset.ID}
				}
				if op != txn.OpBid {
					return &txn.ValidationError{Op: t.Operation, Reason: "asset does not name a BID transaction"}
				}
				return nil
			}},
			{Name: "ACCEPT_BID.7", Doc: "each input spends an output held by a reserved account", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				return checkTransferInputs(ctx, t, inputOpts{reservedOnly: true})
			}},
			{Name: "ACCEPT_BID.6", Doc: "outputs mirror inputs one-to-one under escrow, recording original bidders", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Outputs) != len(t.Inputs) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("%d outputs for %d inputs", len(t.Outputs), len(t.Inputs))}
				}
				for i, out := range t.Outputs {
					_, spent, err := spentOutput(ctx, *t.Inputs[i].Fulfills)
					if err != nil {
						return err
					}
					if out.Amount != spent.Amount {
						return &txn.AmountError{Op: t.Operation, Want: spent.Amount, Got: out.Amount}
					}
					for _, k := range out.PublicKeys {
						if !ctx.Reserved.IsReserved(k) {
							return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d must stay under a reserved account until its child commits", i)}
						}
					}
					// Condition 8: the recorded previous owner must be the
					// original bidder so the child can route the return.
					if len(out.PrevOwners) == 0 || len(spent.PrevOwners) == 0 {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d loses the original bidder record", i)}
					}
					for _, k := range out.PrevOwners {
						if !spent.PrevOwners.Contains(k) {
							return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d records previous owner %s not matching the bid", i, short(k))}
						}
					}
				}
				return nil
			}},
			{Name: "ACCEPT_BID.4", Doc: "|Ch| == |I| once children are assigned", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Children) != 0 && len(t.Children) != len(t.Inputs) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("%d children for %d inputs", len(t.Children), len(t.Inputs))}
				}
				return nil
			}},
		},
	}
}
