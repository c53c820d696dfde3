package validate

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/workload"
)

// The input checks as they read chain state before an output was one
// keyed fact (ctx.Output): the funding transaction decoded for an
// input's owners and amount (spentOutput, through ctx.ResolveTx), and
// the output's record asked separately for its asset and its spender.
// TestConditionsMatchReference pins the condition sets to them.

// refRecords answers the two record reads the old checks made, each
// from the output's UTXO record or spend marker in the newest state.
type refRecords struct{ st *ledger.State }

func (r refRecords) field(ref txn.OutputRef, key string) (string, bool) {
	doc, ok := r.st.Store().Collection(ledger.ColUTXOs).Borrow(ref.String())
	if !ok {
		return "", false
	}
	v, _ := doc[key].(string)
	return v, v != ""
}

func (r refRecords) outputAssetID(ref txn.OutputRef) (string, bool) { return r.field(ref, "asset_id") }
func (r refRecords) spenderOf(ref txn.OutputRef) (string, bool)     { return r.field(ref, "spent_by") }

func (r refRecords) spentBy(ctx *txtype.Context, ref txn.OutputRef) (string, bool) {
	if ctx.Batch != nil {
		if id, ok := ctx.Batch.SpentBy(ref); ok {
			return id, true
		}
	}
	return r.spenderOf(ref)
}

func (r refRecords) outputAssetIDOf(ctx *txtype.Context, ref txn.OutputRef) (string, error) {
	if id, ok := r.outputAssetID(ref); ok {
		return id, nil
	}
	source, _, err := spentOutput(ctx, ref)
	if err != nil {
		return "", err
	}
	if source.Operation == txn.OpAcceptBid {
		if ref.Index >= len(source.Inputs) || source.Inputs[ref.Index].Fulfills == nil {
			return "", &txn.ValidationError{Op: source.Operation, Reason: fmt.Sprintf("nested parent output %d has no mirroring input", ref.Index)}
		}
		return r.outputAssetIDOf(ctx, *source.Inputs[ref.Index].Fulfills)
	}
	return source.AssetID(), nil
}

func (r refRecords) checkTransferInputs(ctx *txtype.Context, t *txn.Transaction, opts inputOpts) error {
	if len(t.Inputs) == 0 {
		return &txn.ValidationError{Op: t.Operation, Reason: "no inputs"}
	}
	for i, in := range t.Inputs {
		if in.Fulfills == nil {
			return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d spends nothing", i)}
		}
		ref := *in.Fulfills
		_, out, err := spentOutput(ctx, ref)
		if err != nil {
			return err
		}
		owners := make(map[string]bool, len(in.OwnersBefore))
		for _, k := range in.OwnersBefore {
			owners[k] = true
		}
		for _, k := range out.PublicKeys {
			if !owners[k] {
				return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d does not carry owner %s of the spent output", i, short(k))}
			}
		}
		if spender, spent := r.spentBy(ctx, ref); spent && spender != t.ID {
			return &txn.DoubleSpendError{Ref: ref, SpentBy: spender}
		}
		if opts.reservedOnly {
			for _, k := range out.PublicKeys {
				if !ctx.Reserved.IsReserved(k) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d spends an output not held by a reserved account", i)}
				}
			}
		}
		if opts.sameAsset {
			assetID, err := r.outputAssetIDOf(ctx, ref)
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

func refInputTotal(ctx *txtype.Context, t *txn.Transaction) (uint64, error) {
	var sum uint64
	for _, in := range t.Inputs {
		if in.Fulfills == nil {
			continue
		}
		_, out, err := spentOutput(ctx, *in.Fulfills)
		if err != nil {
			return 0, err
		}
		sum += out.Amount
	}
	return sum, nil
}

func refConservation(ctx *txtype.Context, t *txn.Transaction) error {
	in, err := refInputTotal(ctx, t)
	if err != nil {
		return err
	}
	if out := t.OutputAmount(); out != in {
		return &txn.AmountError{Op: t.Operation, Want: in, Got: out}
	}
	return nil
}

// checks are the old bodies of every condition that reads a spent
// output, by condition name.
func (r refRecords) checks() map[string]txtype.CheckFunc {
	// escrowSpend is RETURN.3 and WITHDRAW.3: the input checks, then
	// the funding operation and the reference to it.
	escrowSpend := func(op, what, refWhat string) txtype.CheckFunc {
		return func(ctx *txtype.Context, t *txn.Transaction) error {
			if err := r.checkTransferInputs(ctx, t, inputOpts{reservedOnly: true, sameAsset: true}); err != nil {
				return err
			}
			source, _, err := spentOutput(ctx, *t.Inputs[0].Fulfills)
			if err != nil {
				return err
			}
			if source.Operation != op {
				return &txn.ValidationError{Op: t.Operation, Reason: what}
			}
			if !t.HasRef(source.ID) {
				return &txn.ValidationError{Op: t.Operation, Reason: refWhat}
			}
			return nil
		}
	}
	return map[string]txtype.CheckFunc{
		"TRANSFER.3": func(ctx *txtype.Context, t *txn.Transaction) error {
			return r.checkTransferInputs(ctx, t, inputOpts{sameAsset: true})
		},
		"TRANSFER.4": refConservation,
		"BID.4": func(ctx *txtype.Context, t *txn.Transaction) error {
			total, err := refInputTotal(ctx, t)
			if err != nil {
				return err
			}
			if total == 0 {
				return &txn.ValidationError{Op: t.Operation, Reason: "no input holds any shares"}
			}
			return nil
		},
		"BID.6": func(ctx *txtype.Context, t *txn.Transaction) error {
			actualOwners := make(map[string]bool)
			for _, in := range t.Inputs {
				if in.Fulfills == nil {
					continue
				}
				_, out, err := spentOutput(ctx, *in.Fulfills)
				if err != nil {
					return err
				}
				for _, k := range out.PublicKeys {
					actualOwners[k] = true
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
		},
		"BID.7": func(ctx *txtype.Context, t *txn.Transaction) error {
			rfq, err := theRequest(ctx, t)
			if err != nil {
				return err
			}
			requested := capabilities(rfq.Asset.Data)
			var offered []string
			seen := make(map[string]bool)
			for _, in := range t.Inputs {
				if in.Fulfills == nil {
					continue
				}
				assetID, err := r.outputAssetIDOf(ctx, *in.Fulfills)
				if err != nil {
					return err
				}
				if seen[assetID] {
					continue
				}
				seen[assetID] = true
				assetTx, err := ctx.ResolveTx(assetID)
				if err != nil {
					return &txn.InputDoesNotExistError{TxID: assetID}
				}
				if assetTx.Asset != nil {
					offered = append(offered, capabilities(assetTx.Asset.Data)...)
				}
			}
			if missing := missingCapabilities(requested, offered); len(missing) > 0 {
				return &txn.InsufficientCapabilitiesError{Missing: missing}
			}
			return nil
		},
		"BID.8": func(ctx *txtype.Context, t *txn.Transaction) error {
			if err := r.checkTransferInputs(ctx, t, inputOpts{sameAsset: true}); err != nil {
				return err
			}
			return refConservation(ctx, t)
		},
		"RETURN.3":   escrowSpend(txn.OpAcceptBid, "RETURN must spend an ACCEPT_BID output", "RETURN must reference its parent ACCEPT_BID"),
		"WITHDRAW.3": escrowSpend(txn.OpBid, "WITHDRAW_BID must spend a BID output", "WITHDRAW_BID must reference the withdrawn BID"),
		"ACCEPT_BID.7": func(ctx *txtype.Context, t *txn.Transaction) error {
			return r.checkTransferInputs(ctx, t, inputOpts{reservedOnly: true})
		},
	}
}

// registry is the native registry with every condition that reads a
// spent output replaced by its old body.
func (r refRecords) registry(tb testing.TB) *txtype.Registry {
	tb.Helper()
	old := r.checks()
	native := NewRegistry()
	reg := txtype.NewRegistry()
	for _, op := range append(txn.Operations(), OpWithdrawBid) {
		ty, ok := native.Type(op)
		if !ok {
			tb.Fatalf("no native type %s", op)
		}
		ref := &txtype.Type{Op: ty.Op, Conditions: slices.Clone(ty.Conditions)}
		for i, c := range ref.Conditions {
			if check, ok := old[c.Name]; ok {
				ref.Conditions[i].Check = check
				delete(old, c.Name)
			}
		}
		if err := reg.Register(ref); err != nil {
			tb.Fatal(err)
		}
	}
	if len(old) != 0 {
		tb.Fatalf("reference bodies for conditions no type has: %v", old)
	}
	return reg
}

// resign returns a signed copy of t after edit.
func resign(tb testing.TB, t *txn.Transaction, edit func(*txn.Transaction), signers ...*keys.KeyPair) *txn.Transaction {
	tb.Helper()
	c := t.Clone()
	edit(c)
	if err := txn.Sign(c, signers...); err != nil {
		tb.Fatal(err)
	}
	return c
}

// differentialWorld is every transaction the differential judges, and
// the blocks that build the chain it judges them against.
type differentialWorld struct {
	reserved *keys.Reserved
	blocks   [][]*txn.Transaction
	judged   []*txn.Transaction
	children []*txn.Transaction // the last block's
}

func newDifferentialWorld(tb testing.TB) *differentialWorld {
	tb.Helper()
	reserved := keys.NewReservedWithDefaults(1)
	escrow := reserved.Escrow()
	g := workload.NewGenerator(7, escrow)
	grp := g.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3})
	owner, recipient, thief := keys.DeterministicKeyPair(71), keys.DeterministicKeyPair(72), keys.DeterministicKeyPair(73)
	funding, transfer4 := workload.FanIn(owner, recipient.PublicBase58(), 1, 4)
	_, rival := workload.FanIn(owner, thief.PublicBase58(), 1, 4) // the same CREATE's outputs
	_, orphan := workload.FanIn(owner, recipient.PublicBase58(), 2, 4)
	// A second BID of the first bidder's asset, and a standalone
	// CREATE and REQUEST: an auction that never closes.
	rivalBid := g.Bid(grp.Bidders[0], grp.Creates[0], grp.Request, 0)
	lone := g.Create(g.Account(50), []string{"cnc"}, 0)
	openRFQ := g.Request(g.Account(51), []string{"cnc"}, 0)

	w := &differentialWorld{reserved: reserved}
	w.blocks = [][]*txn.Transaction{
		append([]*txn.Transaction{grp.Request, funding, lone, openRFQ}, grp.Creates...),
		append([]*txn.Transaction{transfer4}, grp.Bids...),
		{grp.Accept},
	}
	// The children a committed ACCEPT_BID owes, built as the nested
	// engine builds them.
	s := ledger.NewState()
	defer s.Close()
	for _, b := range w.blocks {
		s.CommitBlock(b)
	}
	rec, err := s.RecoveryFor(grp.Accept.ID)
	if err != nil {
		tb.Fatal(err)
	}
	var children []*txn.Transaction
	for _, spec := range rec.Pending {
		child := ledger.BuildChild(spec, escrow.PublicBase58())
		if err := txn.Sign(child, escrow); err != nil {
			tb.Fatal(err)
		}
		children = append(children, child)
	}
	w.blocks = append(w.blocks, children)
	w.children = children
	var ret *txn.Transaction
	for _, c := range children {
		if c.Operation == txn.OpReturn {
			ret = c
		}
	}

	withdraw, err := newWithdrawBid(escrow.PublicBase58(), grp.Bidders[1].PublicBase58(), grp.Bids[1])
	if err != nil {
		tb.Fatal(err)
	}
	if err := txn.Sign(withdraw, escrow, grp.Bidders[1]); err != nil {
		tb.Fatal(err)
	}
	thiefPub := thief.PublicBase58()
	edits := []*txn.Transaction{
		// a wrong owner: the thief signs for the owner's output
		resign(tb, transfer4, func(t *txn.Transaction) { t.Inputs[2].OwnersBefore = []string{thiefPub} }, owner, thief),
		// a wrong amount
		resign(tb, transfer4, func(t *txn.Transaction) { t.Outputs[0].Amount = 5 }, owner),
		// an out-of-range index, and a negative one
		resign(tb, transfer4, func(t *txn.Transaction) { t.Inputs[1].Fulfills.Index = 9 }, owner),
		resign(tb, transfer4, func(t *txn.Transaction) { t.Inputs[3].Fulfills.Index = -1 }, owner),
		// an input of another asset
		resign(tb, transfer4, func(t *txn.Transaction) { t.Asset.ID = lone.ID }, owner),
		// a child's wrong amount, wrong recipient and out-of-range parent output
		resign(tb, ret, func(t *txn.Transaction) { t.Outputs[0].Amount = 2 }, escrow),
		resign(tb, ret, func(t *txn.Transaction) { t.Outputs[0].PublicKeys = []string{thiefPub} }, escrow),
		resign(tb, ret, func(t *txn.Transaction) { t.Inputs[0].Fulfills.Index = 7 }, escrow),
		// a child spending the winning output as a RETURN of another asset
		resign(tb, ret, func(t *txn.Transaction) { t.Asset.ID = lone.ID }, escrow),
		// a bid of twice its shares, and one spending another's asset
		resign(tb, rivalBid, func(t *txn.Transaction) { t.Outputs[0].Amount = 2 }, grp.Bidders[0]),
		resign(tb, grp.Bids[2], func(t *txn.Transaction) {
			t.Inputs[0].Fulfills = &txn.OutputRef{TxID: lone.ID, Index: 0}
			t.Asset.ID = lone.ID
		}, grp.Bidders[2]),
		// an ACCEPT_BID that leaves a bid out
		resign(tb, grp.Accept, func(t *txn.Transaction) {
			t.Inputs, t.Outputs = t.Inputs[:len(t.Inputs)-1], t.Outputs[:len(t.Outputs)-1]
		}, escrow, grp.Requester),
	}
	for _, b := range w.blocks {
		w.judged = append(w.judged, b...)
	}
	w.judged = append(w.judged, rival, orphan, rivalBid, withdraw)
	w.judged = append(w.judged, edits...)
	return w
}

// verdict is what a registry said of one transaction: the full error
// text (it carries the condition's name) and the condition.
func verdict(err error) string {
	if err == nil {
		return "valid"
	}
	var ve *txn.ValidationError
	if errors.As(err, &ve) {
		return ve.Cond + " | " + err.Error()
	}
	return err.Error()
}

// TestConditionsMatchReference judges every transaction of a
// workload-built chain (an auction with its nested children, a 4-input
// fan-in, a withdrawal, rivals and edits) at every height of that
// chain, with an empty batch and with the next block batched (a parent
// or a rival in the same block), by the native registry and by the
// registry of the old checks: the verdict, the condition and the
// error text must match exactly.
func TestConditionsMatchReference(t *testing.T) {
	w := newDifferentialWorld(t)
	st := ledger.NewState()
	defer st.Close()
	native, ref := NewRegistry(), refRecords{st}.registry(t)
	seen := map[string]int{}
	for h := 0; h <= len(w.blocks); h++ {
		if h > 0 {
			if got, skipped := st.CommitBlock(w.blocks[h-1]); len(got) != len(w.blocks[h-1]) {
				t.Fatalf("block %d: committed %d of %d: %v", h, len(got), len(w.blocks[h-1]), skipped)
			}
		}
		var next []*txn.Transaction
		if h < len(w.blocks) {
			next = w.blocks[h]
		}
		for _, tx := range w.judged {
			for _, batched := range []bool{false, true} {
				ctx := func() *txtype.Context {
					b := txtype.NewBatch(nil)
					if batched {
						for _, n := range next {
							if n.ID != tx.ID {
								b.Add(n)
							}
						}
					}
					return &txtype.Context{State: st, Reserved: w.reserved, Batch: b}
				}
				got, want := verdict(native.Validate(ctx(), tx)), verdict(ref.Validate(ctx(), tx))
				if got != want {
					t.Errorf("height %d, batched %v, %s %.8s:\n got  %s\n want %s", h, batched, tx.Operation, tx.ID, got, want)
				}
				// A child whose parent ACCEPT_BID is in the same block
				// reads the nested asset through the batch.
				if h == len(w.blocks)-2 && batched && slices.Contains(w.children, tx) && got != "valid" {
					t.Errorf("child %s %.8s with its parent batched: %s", tx.Operation, tx.ID, got)
				}
				seen[want]++
			}
		}
	}
	// The cases the differential exists for must each have been judged.
	for _, want := range []string{
		"valid",
		"does not carry owner",
		"already spent by",
		"out of range",
		"does not exist or is not committed",
		"TRANSFER.4",
		"but transaction manipulates",
		"RETURN.4",
		"BID.6",
		"BID.8",
		"ACCEPT_BID.1",
		"WITHDRAW.",
	} {
		found := false
		for v := range seen {
			if strings.Contains(v, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no verdict mentions %q; verdicts: %v", want, seen)
		}
	}
}
