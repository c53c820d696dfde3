package shard

import (
	"errors"
	"strings"
	"testing"

	"smartchaindb/internal/canon"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/mempool"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// unspent reports whether ref exists unspent in st's newest state.
func unspent(st *ledger.State, ref txn.OutputRef) bool {
	f, ok := st.Output(ref)
	return ok && f.SpentBy == ""
}

// The canonical cross-shard atomic transfer: an asset born on shard 0
// migrates value to shard 1 via a hinted transfer. Both shards commit
// or neither does, and the migrated output is immediately spendable
// locally on its new shard.
func TestCrossShardTransfer(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice, bob, carol := kp(1), kp(2), kp(3)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	h0, h1 := c.Shard(0).Node.State().Height(), c.Shard(1).Node.State().Height()

	ref := txn.OutputRef{TxID: a.ID, Index: 0}
	cross := mkTransfer(t, a.ID, ref, alice, []*txn.Output{out(bob, 10)}, 1)
	if err := c.Submit(cross); err != nil {
		t.Fatalf("cross-shard transfer: %v", err)
	}

	// Home shard 1 holds the transaction document and the new output;
	// shard 0 holds only the spent mark.
	if !c.Shard(1).Node.State().IsCommitted(cross.ID) {
		t.Fatal("home shard missing the transaction")
	}
	if c.Shard(0).Node.State().IsCommitted(cross.ID) {
		t.Fatal("input shard has the full transaction document")
	}
	if f, ok := c.Shard(0).Node.State().Output(ref); !ok || f.SpentBy != cross.ID {
		t.Fatalf("input not marked spent on shard 0: %q %v", f.SpentBy, ok)
	}
	migrated := txn.OutputRef{TxID: cross.ID, Index: 0}
	if !unspent(c.Shard(1).Node.State(), migrated) {
		t.Fatal("migrated output missing on shard 1")
	}
	if s, ok := c.Directory().Lookup(cross.ID); !ok || s != 1 {
		t.Fatalf("directory homes %s on %d,%v, want 1", cross.ID[:8], s, ok)
	}
	// Each participant sealed exactly one single-transaction block.
	if got := c.Shard(0).Node.State().Height(); got != h0+1 {
		t.Fatalf("shard 0 height %d, want %d", got, h0+1)
	}
	if got := c.Shard(1).Node.State().Height(); got != h1+1 {
		t.Fatalf("shard 1 height %d, want %d", got, h1+1)
	}
	// No protocol residue: prepare records retired everywhere, holds
	// released (a rival spend of the consumed input now fails on state,
	// not on a claim).
	for s := 0; s < 2; s++ {
		indoubt, err := c.Shard(s).Node.State().InDoubt()
		if err != nil || len(indoubt) != 0 {
			t.Fatalf("shard %d in-doubt after commit: %v %v", s, indoubt, err)
		}
	}

	// The migrated value is live on its new shard: a plain local spend.
	local := mkTransfer(t, a.ID, migrated, bob, []*txn.Output{out(carol, 10)}, -1)
	if r, err := c.RouteOf(local); err != nil || r.Cross() || r.Home != 1 {
		t.Fatalf("spend of migrated output routed %+v, %v", r, err)
	}
	submitDrain(t, c, local)
	if !c.Shard(1).Node.State().IsCommitted(local.ID) {
		t.Fatal("local spend of migrated output did not commit")
	}
}

// A cross-shard transfer can also split value between the home and a
// third shard's future chains: multiple outputs all land on the home
// shard, conserving the input sum.
func TestCrossShardSplit(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3})
	alice, bob, carol := kp(1), kp(2), kp(3)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	cross := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice,
		[]*txn.Output{out(bob, 4), out(carol, 6)}, 2)
	if err := c.Submit(cross); err != nil {
		t.Fatalf("split transfer: %v", err)
	}
	for i := 0; i < 2; i++ {
		if !unspent(c.Shard(2).Node.State(), txn.OutputRef{TxID: cross.ID, Index: i}) {
			t.Fatalf("output %d missing on home shard", i)
		}
	}
}

func TestCrossShardConservationRejected(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice, bob := kp(1), kp(2)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	ref := txn.OutputRef{TxID: a.ID, Index: 0}

	inflate := mkTransfer(t, a.ID, ref, alice, []*txn.Output{out(bob, 11)}, 1)
	err := c.Submit(inflate)
	var amount *txn.AmountError
	if !errors.As(err, &amount) || condOf(err) != "TRANSFER.4" {
		t.Fatalf("inflating transfer: %v, want TRANSFER.4's AmountError", err)
	}
	// Nothing durable, nothing held: the correct transfer goes through.
	assertNoResidue(t, c, ref)
	good := mkTransfer(t, a.ID, ref, alice, []*txn.Output{out(bob, 10)}, 1)
	if err := c.Submit(good); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
}

func TestCrossShardOwnerMismatchRejected(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice, bob, mallory := kp(1), kp(2), kp(66)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	ref := txn.OutputRef{TxID: a.ID, Index: 0}

	// Mallory signs a well-formed transfer naming themself as the
	// input's owner; the fulfillment verifies, but the spent output is
	// alice's.
	theft := mkTransfer(t, a.ID, ref, mallory, []*txn.Output{out(bob, 10)}, 1)
	err := c.Submit(theft)
	var invalid *txn.ValidationError
	if !errors.As(err, &invalid) || invalid.Cond != "TRANSFER.3" {
		t.Fatalf("theft transfer: %v, want TRANSFER.3's ValidationError", err)
	}
	assertNoResidue(t, c, ref)
}

func TestCrossShardHoldConflict(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice, bob, carol := kp(1), kp(2), kp(3)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	ref := txn.OutputRef{TxID: a.ID, Index: 0}

	// A pending local rival claims the input in shard 0's pool.
	rival := mkTransfer(t, a.ID, ref, alice, []*txn.Output{out(carol, 10)}, -1)
	if err := c.Submit(rival); err != nil {
		t.Fatalf("rival admit: %v", err)
	}
	cross := mkTransfer(t, a.ID, ref, alice, []*txn.Output{out(bob, 10)}, 1)
	var claimed *mempool.ErrSpendClaimed
	if err := c.Submit(cross); !errors.As(err, &claimed) {
		t.Fatalf("cross transfer over a pooled claim: %v", err)
	}
	// The rival commits locally; the cross retry now fails on state.
	c.DrainLocal(64)
	var spent *txn.DoubleSpendError
	if err := c.Submit(cross); !errors.As(err, &spent) {
		t.Fatalf("cross transfer of a spent input: %v", err)
	}
}

func TestCrossShardNonTransferRejected(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice, bob := kp(1), kp(2)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	bid := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice, []*txn.Output{out(bob, 10)}, 1)
	bid.Operation = txn.OpBid
	err := c.Submit(bid)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("cross-shard BID: %v", err)
	}
}

// assertNoResidue checks an aborted 2PC round left nothing behind: no
// in-doubt records, the input still unspent, and no lingering claim
// (proven by admitting a fresh local spend of it).
func assertNoResidue(t *testing.T, c *Cluster, ref txn.OutputRef) {
	t.Helper()
	for s := 0; s < c.Shards(); s++ {
		indoubt, err := c.Shard(s).Node.State().InDoubt()
		if err != nil || len(indoubt) != 0 {
			t.Fatalf("shard %d in-doubt after abort: %v %v", s, indoubt, err)
		}
	}
	home, _ := c.Directory().Lookup(ref.TxID)
	if !unspent(c.Shard(home).Node.State(), ref) {
		t.Fatal("aborted round consumed the input")
	}
}

// A reopened disk cluster routes from the shards' recovered
// transaction logs — nothing is rebuilt, the directory reads them:
// migrated outputs stay routable and spendable.
func TestDirectoryRebuildAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, DataDir: dir}
	cfg.Node.NoSync = true
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob, carol := kp(1), kp(2), kp(3)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	cross := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice, []*txn.Output{out(bob, 10)}, 1)
	if err := c.Submit(cross); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if s, ok := c2.Directory().Lookup(cross.ID); !ok || s != 1 {
		t.Fatalf("rebuilt directory homes %s on %d,%v, want 1", cross.ID[:8], s, ok)
	}
	if s, ok := c2.Directory().Lookup(a.ID); !ok || s != 0 {
		t.Fatalf("rebuilt directory homes %s on %d,%v, want 0", a.ID[:8], s, ok)
	}
	local := mkTransfer(t, a.ID, txn.OutputRef{TxID: cross.ID, Index: 0}, bob, []*txn.Output{out(carol, 10)}, -1)
	submitDrain(t, c2, local)
	if !c2.Shard(1).Node.State().IsCommitted(local.ID) {
		t.Fatal("migrated output not spendable after reopen")
	}
}

// TestCrossShardCommitMatchesBlockCommit is the differential between
// the two ways a transaction becomes documents: the cross-shard 2PC
// (each shard stages its owned share through ledger.StageOwned and
// seals it through ApplyPrepared) and one node's block commit. The
// same CREATE, hinted cross-shard TRANSFER and two-input split must
// leave the same transactions / utxos / assets documents by key,
// canonical bytes equal — the shards' collections being a disjoint
// partition of the single node's.
func TestCrossShardCommitMatchesBlockCommit(t *testing.T) {
	alice, bob, carol, dave := kp(1), kp(2), kp(3), kp(4)
	a := mkCreate(t, alice, 10, 0)
	// Shard 0 -> 1: one input, two outputs, previous owners recorded.
	t1 := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice, []*txn.Output{
		{PublicKeys: []string{bob.PublicBase58()}, Amount: 4, PrevOwners: []string{alice.PublicBase58()}},
		{PublicKeys: []string{bob.PublicBase58()}, Amount: 6, PrevOwners: []string{alice.PublicBase58()}},
	}, 1)
	// Shard 1 -> 0: the two-input split.
	t2 := txn.NewTransfer(a.ID,
		[]txn.Spend{
			{Ref: txn.OutputRef{TxID: t1.ID, Index: 0}, Owners: []string{bob.PublicBase58()}},
			{Ref: txn.OutputRef{TxID: t1.ID, Index: 1}, Owners: []string{bob.PublicBase58()}},
		},
		[]*txn.Output{
			{PublicKeys: []string{carol.PublicBase58()}, Amount: 3, PrevOwners: []string{bob.PublicBase58()}},
			{PublicKeys: []string{dave.PublicBase58()}, Amount: 7, PrevOwners: []string{bob.PublicBase58()}},
		},
		map[string]any{MetaShardHint: float64(0)})
	if err := txn.Sign(t2, bob); err != nil {
		t.Fatal(err)
	}

	c := newTestCluster(t, Config{Shards: 2})
	submitDrain(t, c, a)
	for _, cross := range []*txn.Transaction{t1, t2} {
		if r, err := c.RouteOf(cross); err != nil || !r.Cross() {
			t.Fatalf("%s routed %+v, %v: want a cross-shard round", cross.ID[:8], r, err)
		}
		if err := c.Submit(cross); err != nil {
			t.Fatalf("cross-shard %s: %v", cross.ID[:8], err)
		}
	}

	node := server.NewNode(server.Config{})
	defer node.Close()
	block := []*txn.Transaction{a, t1, t2}
	if committed, skipped := node.State().CommitBlock(block); len(committed) != len(block) {
		t.Fatalf("block commit took %d of %d: %v", len(committed), len(block), skipped)
	}

	for _, col := range []string{ledger.ColTransactions, ledger.ColUTXOs, ledger.ColAssets} {
		docs := func(st *ledger.State) map[string]string {
			out := make(map[string]string)
			coll := st.Store().Collection(col)
			for _, key := range coll.Keys() {
				doc, _ := coll.Borrow(key)
				b, err := canon.AppendDoc(nil, doc)
				if err != nil {
					t.Fatalf("%s/%s: %v", col, key, err)
				}
				out[key] = string(b)
			}
			return out
		}
		sharded := make(map[string]string)
		for i := 0; i < c.Shards(); i++ {
			for key, b := range docs(c.Shard(i).Node.State()) {
				if _, dup := sharded[key]; dup {
					t.Fatalf("%s/%s is stored on two shards", col, key)
				}
				sharded[key] = b
			}
		}
		single := docs(node.State())
		if len(single) == 0 || len(sharded) != len(single) {
			t.Fatalf("%s: %d documents across the shards, %d on the single node", col, len(sharded), len(single))
		}
		for key, want := range single {
			if got := sharded[key]; got != want {
				t.Fatalf("%s/%s differs:\n sharded %s\n single  %s", col, key, got, want)
			}
		}
	}
}
