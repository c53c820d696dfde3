package ledger

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// TestShareConservationProperty checks the fundamental ledger
// invariant: under any sequence of random (valid or invalid) transfer
// attempts, the total unspent shares of an asset never change, and the
// per-owner balances always sum to the minted supply.
func TestShareConservationProperty(t *testing.T) {
	const supply = 100
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		state := NewState()
		owners := make([]*keys.KeyPair, 4)
		for i := range owners {
			owners[i] = keys.DeterministicKeyPair(seed*10 + int64(i))
		}
		mint := txn.NewCreate(owners[0].PublicBase58(), map[string]any{"seed": seed}, supply, nil)
		if err := txn.Sign(mint, owners[0]); err != nil {
			return false
		}
		if err := commitOne(state, mint); err != nil {
			return false
		}
		for s := 0; s < int(steps%40); s++ {
			// Pick a random owner; try to move a random slice of one of
			// their unspent outputs to a random recipient.
			from := owners[rng.Intn(len(owners))]
			to := owners[rng.Intn(len(owners))]
			refs := state.View().UnspentOutputs(from.PublicBase58())
			if len(refs) == 0 {
				continue
			}
			ref := refs[rng.Intn(len(refs))]
			out, ok := state.Output(ref)
			if !ok {
				return false
			}
			move := uint64(rng.Intn(int(out.Amount))) + 1
			outputs := []*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: move}}
			if change := out.Amount - move; change > 0 {
				outputs = append(outputs, &txn.Output{PublicKeys: []string{from.PublicBase58()}, Amount: change})
			}
			tr := txn.NewTransfer(mint.ID,
				[]txn.Spend{{Ref: ref, Owners: []string{from.PublicBase58()}}},
				outputs, map[string]any{"s": s})
			if err := txn.Sign(tr, from); err != nil {
				return false
			}
			// Occasionally re-attempt the same spend (a double spend):
			// the ledger must reject it without corrupting state.
			if err := commitOne(state, tr); err != nil {
				continue
			}
			if rng.Intn(3) == 0 {
				dup := txn.NewTransfer(mint.ID,
					[]txn.Spend{{Ref: ref, Owners: []string{from.PublicBase58()}}},
					[]*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: out.Amount}},
					map[string]any{"dup": s})
				if err := txn.Sign(dup, from); err != nil {
					return false
				}
				if err := commitOne(state, dup); err == nil {
					return false // double spend must fail
				}
			}
		}
		var total uint64
		for _, kp := range owners {
			total += state.Balance(kp.PublicBase58(), mint.ID)
		}
		return total == supply
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestUTXOSetMatchesTransactionLog cross-checks the UTXO collection
// against a recomputation from the raw transaction log.
func TestUTXOSetMatchesTransactionLog(t *testing.T) {
	state := NewState()
	a, b := keys.DeterministicKeyPair(1), keys.DeterministicKeyPair(2)
	mint := txn.NewCreate(a.PublicBase58(), map[string]any{"x": 1}, 10, nil)
	if err := txn.Sign(mint, a); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(state, mint); err != nil {
		t.Fatal(err)
	}
	tr := txn.NewTransfer(mint.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: mint.ID, Index: 0}, Owners: []string{a.PublicBase58()}}},
		[]*txn.Output{
			{PublicKeys: []string{b.PublicBase58()}, Amount: 4},
			{PublicKeys: []string{a.PublicBase58()}, Amount: 6},
		}, nil)
	if err := txn.Sign(tr, a); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(state, tr); err != nil {
		t.Fatal(err)
	}
	// Recompute the unspent set from the log: every output of every tx
	// minus the ones named by inputs.
	spent := map[string]bool{}
	var all []*txn.Transaction
	for _, op := range txn.Operations() {
		all = append(all, state.View().TxsByOperation(op)...)
	}
	for _, tx := range all {
		for _, ref := range tx.SpentRefs() {
			spent[ref.String()] = true
		}
	}
	for _, tx := range all {
		for i := range tx.Outputs {
			ref := txn.OutputRef{TxID: tx.ID, Index: i}
			if got := state.View().unspent(ref); got == spent[ref.String()] {
				t.Errorf("UTXO disagreement at %s: unspent=%v, log says spent=%v",
					ref, got, spent[ref.String()])
			}
		}
	}
}
