package validate

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/workload"
)

// The condition sets as they read chain state before a transaction's
// fields were read in place: every dependency decoded whole
// (refRecords.resolve: the batch first, then ledger.State.GetTx), its
// output, operation, prev_owners, refs and asset data read off the
// decoded transaction; the locked bids of a REQUEST decoded too; and
// an output's record asked separately for its asset and its spender.
// TestConditionsMatchReference pins the condition sets to them.

// refRecords answers the reads the old checks made of the newest state.
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

// resolve decodes a dependency: from the batch first, from committed
// state second.
func (r refRecords) resolve(ctx *txtype.Context, id string) (*txn.Transaction, error) {
	if ctx.Batch != nil {
		if t, ok := ctx.Batch.Get(id); ok {
			return t, nil
		}
	}
	return r.st.GetTx(id)
}

func (r refRecords) spentOutput(ctx *txtype.Context, ref txn.OutputRef) (*txn.Transaction, *txn.Output, error) {
	source, err := r.resolve(ctx, ref.TxID)
	if err != nil {
		return nil, nil, &txn.InputDoesNotExistError{TxID: ref.TxID}
	}
	if ref.Index < 0 || ref.Index >= len(source.Outputs) {
		return nil, nil, &txn.ValidationError{
			Op:     source.Operation,
			Reason: fmt.Sprintf("output index %d out of range (tx %s has %d outputs)", ref.Index, short(ref.TxID), len(source.Outputs)),
		}
	}
	return source, source.Outputs[ref.Index], nil
}

func (r refRecords) theRequest(ctx *txtype.Context, t *txn.Transaction) (*txn.Transaction, error) {
	var rfq *txn.Transaction
	for _, id := range t.Refs {
		ref, err := r.resolve(ctx, id)
		if err != nil {
			return nil, &txn.InputDoesNotExistError{TxID: id}
		}
		if ref.Operation == txn.OpRequest {
			if rfq != nil {
				return nil, &txn.ValidationError{Op: t.Operation, Reason: "reference vector names more than one REQUEST"}
			}
			rfq = ref
		}
	}
	if rfq == nil {
		return nil, &txn.ValidationError{Op: t.Operation, Reason: "reference vector names no REQUEST"}
	}
	return rfq, nil
}

func refRequestOwner(rfq *txn.Transaction) (string, error) {
	if len(rfq.Outputs) == 0 || len(rfq.Outputs[0].PublicKeys) == 0 {
		return "", &txn.ValidationError{Op: rfq.Operation, Reason: "REQUEST has no owner output"}
	}
	return rfq.Outputs[0].PublicKeys[0], nil
}

// lockedBids is the decoding getLockedBids: every BID of the REQUEST,
// decoded, whose escrow output is unspent.
func (r refRecords) lockedBids(rfqID string) []*txn.Transaction {
	docs := r.st.View().Collection(ledger.ColTransactions).BorrowFind(docstore.And(
		docstore.Contains("refs", rfqID),
		docstore.Eq("operation", txn.OpBid),
	))
	var out []*txn.Transaction
	for _, d := range docs {
		t, err := txn.FromStoredDoc(d)
		if err != nil {
			continue
		}
		if f, ok := r.st.Output(txn.OutputRef{TxID: t.ID, Index: 0}); ok && f.SpentBy == "" {
			out = append(out, t)
		}
	}
	return out
}

func (r refRecords) outputAssetIDOf(ctx *txtype.Context, ref txn.OutputRef) (string, error) {
	if id, ok := r.outputAssetID(ref); ok {
		return id, nil
	}
	source, _, err := r.spentOutput(ctx, ref)
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
		_, out, err := r.spentOutput(ctx, ref)
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

func (r refRecords) inputTotal(ctx *txtype.Context, t *txn.Transaction) (uint64, error) {
	var sum uint64
	for _, in := range t.Inputs {
		if in.Fulfills == nil {
			continue
		}
		_, out, err := r.spentOutput(ctx, *in.Fulfills)
		if err != nil {
			return 0, err
		}
		sum += out.Amount
	}
	return sum, nil
}

func (r refRecords) conservation(ctx *txtype.Context, t *txn.Transaction) error {
	in, err := r.inputTotal(ctx, t)
	if err != nil {
		return err
	}
	if out := t.OutputAmount(); out != in {
		return &txn.AmountError{Op: t.Operation, Want: in, Got: out}
	}
	return nil
}

// checks are the old bodies of every condition that reads chain state
// beyond the duplicate check, by condition name.
func (r refRecords) checks() map[string]txtype.CheckFunc {
	// escrowSpend is RETURN.3 and WITHDRAW.3: the input checks, then
	// the funding operation and the reference to it.
	escrowSpend := func(op, what, refWhat string) txtype.CheckFunc {
		return func(ctx *txtype.Context, t *txn.Transaction) error {
			if err := r.checkTransferInputs(ctx, t, inputOpts{reservedOnly: true, sameAsset: true}); err != nil {
				return err
			}
			source, _, err := r.spentOutput(ctx, *t.Inputs[0].Fulfills)
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
	request := func(ctx *txtype.Context, t *txn.Transaction) error {
		_, err := r.theRequest(ctx, t)
		return err
	}
	return map[string]txtype.CheckFunc{
		"TRANSFER.3": func(ctx *txtype.Context, t *txn.Transaction) error {
			return r.checkTransferInputs(ctx, t, inputOpts{sameAsset: true})
		},
		"TRANSFER.4": r.conservation,
		"BID.3":      request,
		"BID.4": func(ctx *txtype.Context, t *txn.Transaction) error {
			total, err := r.inputTotal(ctx, t)
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
				_, out, err := r.spentOutput(ctx, *in.Fulfills)
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
			rfq, err := r.theRequest(ctx, t)
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
				assetTx, err := r.resolve(ctx, assetID)
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
			return r.conservation(ctx, t)
		},
		"RETURN.3": escrowSpend(txn.OpAcceptBid, "RETURN must spend an ACCEPT_BID output", "RETURN must reference its parent ACCEPT_BID"),
		"RETURN.4": func(ctx *txtype.Context, t *txn.Transaction) error {
			_, spent, err := r.spentOutput(ctx, *t.Inputs[0].Fulfills)
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
			for _, prev := range spent.PrevOwners {
				if !out.OwnedBy(prev) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("shares must return to previous owner %s", short(prev))}
				}
			}
			return nil
		},
		"WITHDRAW.3": escrowSpend(txn.OpBid, "WITHDRAW_BID must spend a BID output", "WITHDRAW_BID must reference the withdrawn BID"),
		"WITHDRAW.4": func(ctx *txtype.Context, t *txn.Transaction) error {
			_, spent, err := r.spentOutput(ctx, *t.Inputs[0].Fulfills)
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
			for _, prev := range spent.PrevOwners {
				if !out.OwnedBy(prev) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("shares must return to the original bidder %s", short(prev))}
				}
			}
			if !slices.Contains(t.Inputs[0].OwnersBefore, spent.PrevOwners[0]) {
				return &txn.ValidationError{Op: t.Operation, Reason: "withdrawal is not authorized by the bidder"}
			}
			return nil
		},
		"WITHDRAW.5": func(ctx *txtype.Context, t *txn.Transaction) error {
			bid, _, err := r.spentOutput(ctx, *t.Inputs[0].Fulfills)
			if err != nil {
				return err
			}
			rfq, err := r.theRequest(ctx, bid)
			if err != nil {
				return err
			}
			if acc, accepted := r.st.AcceptForRFQ(rfq.ID); accepted {
				return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("auction already settled by %s", short(acc.ID))}
			}
			return nil
		},
		"ACCEPT_BID.dup": func(ctx *txtype.Context, t *txn.Transaction) error {
			if err := checkNotDuplicate(ctx, t); err != nil {
				return err
			}
			rfq, err := r.theRequest(ctx, t)
			if err != nil {
				return err
			}
			if dup, ok := r.st.AcceptForRFQ(rfq.ID); ok {
				return &txn.DuplicateTransactionError{TxID: dup.ID, Reason: "REQUEST already has an accepted bid"}
			}
			if ctx.Batch != nil {
				for _, other := range ctx.Batch.Transactions() {
					if other.Operation == txn.OpAcceptBid && other.HasRef(rfq.ID) && other.ID != t.ID {
						return &txn.DuplicateTransactionError{TxID: other.ID, Reason: "REQUEST already has an accepted bid in this block"}
					}
				}
			}
			return nil
		},
		"ACCEPT_BID.3": request,
		"ACCEPT_BID.signer": func(ctx *txtype.Context, t *txn.Transaction) error {
			rfq, err := r.theRequest(ctx, t)
			if err != nil {
				return err
			}
			owner, err := refRequestOwner(rfq)
			if err != nil {
				return err
			}
			for i, in := range t.Inputs {
				if !slices.Contains(in.OwnersBefore, owner) {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d is not co-signed by the REQUEST owner", i)}
				}
			}
			return nil
		},
		"ACCEPT_BID.1": func(ctx *txtype.Context, t *txn.Transaction) error {
			rfq, err := r.theRequest(ctx, t)
			if err != nil {
				return err
			}
			locked := r.lockedBids(rfq.ID)
			if len(t.Inputs) != len(locked) {
				return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("spends %d bids but %d are escrow-held for the REQUEST", len(t.Inputs), len(locked))}
			}
			lockedSet := make(map[string]bool, len(locked))
			for _, b := range locked {
				lockedSet[b.ID] = true
			}
			for i, in := range t.Inputs {
				if in.Fulfills == nil || !lockedSet[in.Fulfills.TxID] {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("input %d does not spend an escrow-held bid for the REQUEST", i)}
				}
			}
			return nil
		},
		"ACCEPT_BID.win": func(ctx *txtype.Context, t *txn.Transaction) error {
			if t.Asset == nil || t.Asset.ID == "" {
				return &txn.ValidationError{Op: t.Operation, Reason: "asset must anchor to the winning bid"}
			}
			if len(t.Inputs) == 0 || t.Inputs[0].Fulfills == nil || t.Inputs[0].Fulfills.TxID != t.Asset.ID {
				return &txn.ValidationError{Op: t.Operation, Reason: "first input must spend the winning bid"}
			}
			win, err := r.resolve(ctx, t.Asset.ID)
			if err != nil {
				return &txn.InputDoesNotExistError{TxID: t.Asset.ID}
			}
			if win.Operation != txn.OpBid {
				return &txn.ValidationError{Op: t.Operation, Reason: "asset does not name a BID transaction"}
			}
			return nil
		},
		"ACCEPT_BID.7": func(ctx *txtype.Context, t *txn.Transaction) error {
			return r.checkTransferInputs(ctx, t, inputOpts{reservedOnly: true})
		},
		"ACCEPT_BID.6": func(ctx *txtype.Context, t *txn.Transaction) error {
			if len(t.Outputs) != len(t.Inputs) {
				return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("%d outputs for %d inputs", len(t.Outputs), len(t.Inputs))}
			}
			for i, out := range t.Outputs {
				_, spent, err := r.spentOutput(ctx, *t.Inputs[i].Fulfills)
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
				if len(out.PrevOwners) == 0 || len(spent.PrevOwners) == 0 {
					return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d loses the original bidder record", i)}
				}
				prevSet := make(map[string]bool, len(spent.PrevOwners))
				for _, k := range spent.PrevOwners {
					prevSet[k] = true
				}
				for _, k := range out.PrevOwners {
					if !prevSet[k] {
						return &txn.ValidationError{Op: t.Operation, Reason: fmt.Sprintf("output %d records previous owner %s not matching the bid", i, short(k))}
					}
				}
			}
			return nil
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
	children []*txn.Transaction // the nested children, the block after the accept's
	accept   int                // the index of the ACCEPT_BID's block
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
	// A bid whose asset lacks the requested capabilities, and one that
	// commits after the auction closed, so that its withdrawal finds
	// the auction settled.
	painter, late := g.Account(52), g.Account(53)
	paintAsset := g.Create(painter, []string{"paint"}, 0)
	paintBid := g.Bid(painter, paintAsset, grp.Request, 0)
	lateAsset := g.Create(late, []string{"3d-printing", "cnc-milling"}, 0)
	lateBid := g.Bid(late, lateAsset, grp.Request, 0)

	w := &differentialWorld{reserved: reserved}
	w.blocks = [][]*txn.Transaction{
		append([]*txn.Transaction{grp.Request, funding, lone, openRFQ, paintAsset, lateAsset}, grp.Creates...),
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
	w.accept = len(w.blocks) - 1
	w.blocks = append(w.blocks, children, []*txn.Transaction{lateBid})
	w.children = children
	var ret *txn.Transaction
	for _, c := range children {
		if c.Operation == txn.OpReturn {
			ret = c
		}
	}

	withdrawal := func(bidder *keys.KeyPair, bid *txn.Transaction) *txn.Transaction {
		wd, err := newWithdrawBid(escrow.PublicBase58(), bidder.PublicBase58(), bid)
		if err != nil {
			tb.Fatal(err)
		}
		if err := txn.Sign(wd, escrow, bidder); err != nil {
			tb.Fatal(err)
		}
		return wd
	}
	withdraw, lateWithdraw := withdrawal(grp.Bidders[1], grp.Bids[1]), withdrawal(late, lateBid)
	thiefPub := thief.PublicBase58()
	escrowPub := escrow.PublicBase58()
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
		// a bid naming no REQUEST, one naming two, and one naming a
		// transaction that does not exist
		resign(tb, rivalBid, func(t *txn.Transaction) { t.Refs = []string{lone.ID} }, grp.Bidders[0]),
		resign(tb, rivalBid, func(t *txn.Transaction) { t.Refs = []string{grp.Request.ID, openRFQ.ID} }, grp.Bidders[0]),
		resign(tb, rivalBid, func(t *txn.Transaction) { t.Refs = []string{grp.Request.ID, "nowhere"} }, grp.Bidders[0]),
		// an ACCEPT_BID that leaves a bid out
		resign(tb, grp.Accept, func(t *txn.Transaction) {
			t.Inputs, t.Outputs = t.Inputs[:len(t.Inputs)-1], t.Outputs[:len(t.Outputs)-1]
		}, escrow, grp.Requester),
		// one that escrows a wrong amount, records a wrong bidder, is
		// not co-signed by the requester, or names another REQUEST
		resign(tb, grp.Accept, func(t *txn.Transaction) { t.Outputs[1].Amount = 3 }, escrow, grp.Requester),
		resign(tb, grp.Accept, func(t *txn.Transaction) { t.Outputs[2].PrevOwners = []string{thiefPub} }, escrow, grp.Requester),
		resign(tb, grp.Accept, func(t *txn.Transaction) {
			for _, in := range t.Inputs {
				in.OwnersBefore = []string{escrowPub}
			}
		}, escrow),
		resign(tb, grp.Accept, func(t *txn.Transaction) { t.Refs = []string{openRFQ.ID} }, escrow, grp.Requester),
		// withdrawals to the wrong account, of the wrong amount, and
		// signed by the escrow alone
		resign(tb, withdraw, func(t *txn.Transaction) { t.Outputs[0].PublicKeys = []string{thiefPub} }, escrow, grp.Bidders[1]),
		resign(tb, withdraw, func(t *txn.Transaction) { t.Outputs[0].Amount = 2 }, escrow, grp.Bidders[1]),
		resign(tb, withdraw, func(t *txn.Transaction) { t.Inputs[0].OwnersBefore = []string{escrowPub} }, escrow),
	}
	for _, b := range w.blocks {
		w.judged = append(w.judged, b...)
	}
	w.judged = append(w.judged, rival, orphan, rivalBid, paintBid, withdraw, lateWithdraw)
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
				if h == w.accept && batched && slices.Contains(w.children, tx) && got != "valid" {
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
		"BID.3",
		"BID.6",
		"BID.7",
		"BID.8",
		"more than one REQUEST",
		"names no REQUEST",
		"ACCEPT_BID.dup",
		"ACCEPT_BID.signer",
		"ACCEPT_BID.1",
		"ACCEPT_BID.6",
		"WITHDRAW.4",
		"auction already settled",
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
