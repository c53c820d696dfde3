package validate

import (
	"fmt"

	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// OpWithdrawBid is the extension transaction type of the repository:
// a bidder retracts an escrow-held BID before acceptance. The paper
// lists bid withdrawal among the behaviours smart contracts must
// hand-code ("managing bid withdrawals and deletions by authorized
// parties only"); in the declarative model it is one schema and one
// condition set. It composes with ACCEPT_BID automatically: a
// withdrawn bid's escrow output is spent, so it no longer counts as a
// locked bid and condition ACCEPT_BID.1 excludes it with no changes.
const OpWithdrawBid = "WITHDRAW_BID"

// WithdrawBidType builds the condition set C_WITHDRAW_BID.
func WithdrawBidType() *txtype.Type {
	return &txtype.Type{
		Op: OpWithdrawBid,
		Conditions: []txtype.Condition{
			{Name: "WITHDRAW.dup", Doc: "transaction is not a duplicate", Check: checkNotDuplicate},
			{Name: "WITHDRAW.1", Doc: "exactly one input and one output", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				if len(t.Inputs) != 1 || len(t.Outputs) != 1 {
					return &txn.ValidationError{Op: t.Operation, Reason: "WITHDRAW_BID must have exactly one input and one output"}
				}
				return nil
			}},
			{Name: "WITHDRAW.2", Doc: "all fulfillments verify", Check: checkSignatures},
			{Name: "WITHDRAW.3", Doc: "spends the escrow-held output of a committed BID",
				Check: escrowSpend(txn.OpBid, "WITHDRAW_BID must spend a BID output", "WITHDRAW_BID must reference the withdrawn BID")},
			{Name: "WITHDRAW.4", Doc: "only the original bidder may withdraw, receiving all shares back", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				_, spent, err := spentOutput(ctx, *t.Inputs[0].Fulfills)
				if err != nil {
					return err
				}
				if len(spent.PrevOwners) == 0 {
					return &txn.ValidationError{Op: t.Operation, Reason: "escrowed bid records no previous owner"}
				}
				out := t.Outputs[0]
				if out.Amount != spent.Amount {
					return &txn.AmountError{Op: t.Operation, Want: spent.Amount, Got: out.Amount}
				}
				for j := range spent.PrevOwners {
					if prev := spent.PrevOwners.At(j); !out.OwnedBy(prev) {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("shares must return to the original bidder %s", short(prev))}
					}
				}
				// Authorization: the bidder co-signs the withdrawal (the
				// escrow alone must not be able to re-route a bid).
				bidder := spent.PrevOwners.At(0)
				signed := false
				for _, k := range t.Inputs[0].OwnersBefore {
					if k == bidder {
						signed = true
						break
					}
				}
				if !signed {
					return &txn.ValidationError{Op: t.Operation, Reason: "withdrawal is not authorized by the bidder"}
				}
				return nil
			}},
			{Name: "WITHDRAW.5", Doc: "the auction is still open: no ACCEPT_BID exists for the REQUEST", Check: func(ctx *txtype.Context, t *txn.Transaction) error {
				ref := *t.Inputs[0].Fulfills
				bid, _, err := spentOutput(ctx, ref)
				if err != nil {
					return err
				}
				op, err := operationOf(bid, ref.TxID)
				if err != nil {
					return err
				}
				refs, err := bid.Refs()
				if err != nil {
					return &txn.InputDoesNotExistError{TxID: ref.TxID}
				}
				rfqID, _, err := theRequest(ctx, op, refs.Strings())
				if err != nil {
					return err
				}
				if acc, accepted := ctx.State.Accepted(rfqID); accepted {
					id, _ := acc.ID()
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("auction already settled by %s", short(id))}
				}
				return nil
			}},
		},
	}
}
