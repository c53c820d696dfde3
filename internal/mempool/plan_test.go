package mempool

import (
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// marketBatch is the first n transactions of the marketplace mix in
// submission order: REQUESTs, their bid-backing CREATEs, BIDs and
// ACCEPT_BIDs.
func marketBatch(n int) []*txn.Transaction {
	gen := workload.NewGenerator(3, keys.DeterministicKeyPair(97))
	var txs []*txn.Transaction
	for _, g := range gen.Groups(workload.Mix{Creates: 30, Bids: 30, Requests: 3, Accepts: 3}, 0) {
		txs = append(txs, g.Request)
		txs = append(txs, g.Creates...)
		txs = append(txs, g.Bids...)
		txs = append(txs, g.Accept)
	}
	return txs[:min(n, len(txs))]
}

// transferChains is n spend chains, each in one batch: a CREATE of
// 1–4 outputs, the fan-in TRANSFER spending them all, and a second
// hop spending that.
func transferChains(t *testing.T, n int) []*txn.Transaction {
	owner, hop := keys.DeterministicKeyPair(91), keys.DeterministicKeyPair(92)
	var txs []*txn.Transaction
	for i := range n {
		width := 1 + i%4
		create, transfer := workload.FanIn(owner, hop.PublicBase58(), i, width)
		next := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: transfer.ID}, Owners: []string{hop.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{owner.PublicBase58()}, Amount: uint64(width)}}, nil)
		if err := txn.Sign(next, hop); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, create, transfer, next)
	}
	return txs
}

// TestPackGroupsAreTheValidatorsPlans: the pool groups its pending
// set by the footprints it stored at admission, through
// parallel.GroupFootprints, and those groups are exactly the groups a
// validator's block plan (parallel.BuildPlan) makes of the same
// transactions in the same order, member for member — the packer
// balances the chains validators will run.
func TestPackGroupsAreTheValidatorsPlans(t *testing.T) {
	market, chains := marketBatch(128), transferChains(t, 12)
	mixed := make([]*txn.Transaction, 0, len(market)+len(chains))
	for i := range max(len(market), len(chains)) {
		if i < len(market) {
			mixed = append(mixed, market[i])
		}
		if i < len(chains) {
			mixed = append(mixed, chains[i])
		}
	}
	for _, c := range []struct {
		name string
		txs  []*txn.Transaction
	}{{"marketplace", market}, {"transfer chains", chains}, {"interleaved", mixed}} {
		p := New(Config{Policy: PackMakespan, PackWorkers: 4})
		batch := make([]Tx, len(c.txs))
		for i, tx := range c.txs {
			batch[i] = tx
		}
		if res := p.AdmitBatch(batch); len(res.Admitted) != len(batch) {
			t.Fatalf("%s: admitted %d of %d (skipped %v)", c.name, len(res.Admitted), len(batch), res.Skipped)
		}
		pending, fps := p.snapshot()
		block := make([]*txn.Transaction, len(pending))
		for i, tx := range pending {
			block[i] = tx.(*txn.Transaction)
		}
		got, want := parallel.GroupFootprints(fps), parallel.BuildPlan(block).Groups
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the packer's groups\n%v\nthe validators' plan\n%v", c.name, got, want)
		}
		chained := 0
		for _, g := range want {
			if len(g) > 1 {
				chained++
			}
		}
		if chained == 0 || len(want) < 2 {
			t.Errorf("%s: %d groups, %d of them chains: the batch exercises nothing", c.name, len(want), chained)
		}
	}
}
