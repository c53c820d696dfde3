package shard

import (
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// The per-layer price of the two ways a transfer commits on a sharded
// cluster, per transaction, over in-memory backends: a cross-shard
// transfer's whole two-phase commit (BenchmarkCrossShardTransfer), and
// a local transfer's share of a round of SubmitBatch and DrainLocal
// (BenchmarkLocalShardRound). Every transaction is signed before the
// clock starts. The repo benchmark's shard2_cross crosses shards with
// one transfer in five, so a change in the price of one crossing can
// hide in its end-to-end cells; these read it alone.

// benchChain mints amount shares for owner, homed on shard home, and
// signs hops transfers moving them back and forth between owner and
// other; hint maps a hop's index to its shard hint (-1: none).
func benchChain(b *testing.B, owner, other *keys.KeyPair, amount uint64, home, hops int, hint func(i int) int) (*txn.Transaction, []*txn.Transaction) {
	b.Helper()
	create := txn.NewCreate(owner.PublicBase58(), map[string]any{"capabilities": []any{"bench"}}, amount,
		map[string]any{MetaShardHint: float64(home)})
	if err := txn.Sign(create, owner); err != nil {
		b.Fatal(err)
	}
	ref, from, to := txn.OutputRef{TxID: create.ID}, owner, other
	chain := make([]*txn.Transaction, hops)
	for i := range chain {
		var meta map[string]any
		if h := hint(i); h >= 0 {
			meta = map[string]any{MetaShardHint: float64(h)}
		}
		tr := txn.NewTransfer(create.ID, []txn.Spend{{Ref: ref, Owners: []string{from.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: amount}}, meta)
		if err := txn.Sign(tr, from); err != nil {
			b.Fatal(err)
		}
		chain[i] = tr
		ref, from, to = txn.OutputRef{TxID: tr.ID}, to, from
	}
	return create, chain
}

// BenchmarkCrossShardTransfer: one op is one hinted transfer moving a
// chain's shares to the other shard of two — hold, condition set,
// stage, two prepares, decide, apply, release.
func BenchmarkCrossShardTransfer(b *testing.B) {
	c, err := Open(Config{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	create, chain := benchChain(b, keys.DeterministicKeyPair(1), keys.DeterministicKeyPair(2), 10, 0, b.N,
		func(i int) int { return (i + 1) % 2 })
	if errs := c.SubmitBatch([]*txn.Transaction{create}); len(errs) != 0 || c.DrainLocal(64) != 1 {
		b.Fatalf("create: %v", errs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, tr := range chain {
		if err := c.Submit(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalShardRound: one op is one local transfer. A round
// advances 64 chains, half homed on each of two shards, one hop each:
// SubmitBatch routes the round into the shards' pools and DrainLocal
// commits it in one local block per shard.
func BenchmarkLocalShardRound(b *testing.B) {
	const chains = 64
	c, err := Open(Config{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rounds := (b.N + chains - 1) / chains
	creates := make([]*txn.Transaction, chains)
	hops := make([][]*txn.Transaction, chains)
	for i := range chains {
		creates[i], hops[i] = benchChain(b, keys.DeterministicKeyPair(int64(2*i+1)), keys.DeterministicKeyPair(int64(2*i+2)),
			uint64(10+i), i%2, rounds, func(int) int { return -1 })
	}
	if errs := c.SubmitBatch(creates); len(errs) != 0 || c.DrainLocal(chains) != chains {
		b.Fatalf("creates: %v", errs)
	}
	round := make([]*txn.Transaction, chains)
	b.ReportAllocs()
	b.ResetTimer()
	for r := range rounds {
		for i := range round {
			round[i] = hops[i][r]
		}
		if errs := c.SubmitBatch(round); len(errs) != 0 {
			b.Fatalf("round %d: %v", r, errs)
		}
		if n := c.DrainLocal(chains); n != chains {
			b.Fatalf("round %d: committed %d of %d", r, n, chains)
		}
	}
}
