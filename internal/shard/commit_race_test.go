package shard

import (
	"sort"
	"sync"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// raceLoad is one deterministic workload: per shard, transfer chains
// that stay local, and assets that migrate to the other shard by 2PC.
type raceLoad struct {
	creates    []*txn.Transaction
	hops       [][]*txn.Transaction // round → one hop of every chain
	migrations []*txn.Transaction
}

func newRaceLoad(t *testing.T, chains, hops, migrations int) raceLoad {
	var l raceLoad
	l.hops = make([][]*txn.Transaction, hops)
	acct := int64(1000)
	next := func() *keys.KeyPair { acct++; return kp(acct) }
	for s := 0; s < 2; s++ {
		for i := 0; i < chains; i++ {
			owner := next()
			a := mkCreate(t, owner, 10, s)
			l.creates = append(l.creates, a)
			ref := txn.OutputRef{TxID: a.ID, Index: 0}
			for h := 0; h < hops; h++ {
				to := next()
				tr := mkTransfer(t, a.ID, ref, owner, []*txn.Output{out(to, 10)}, -1)
				l.hops[h] = append(l.hops[h], tr)
				owner, ref = to, txn.OutputRef{TxID: tr.ID, Index: 0}
			}
		}
		for i := 0; i < migrations; i++ {
			owner := next()
			a := mkCreate(t, owner, 10, s)
			l.creates = append(l.creates, a)
			l.migrations = append(l.migrations, mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, owner,
				[]*txn.Output{out(next(), 10)}, 1-s))
		}
	}
	return l
}

// run drives l through a new cluster: the local rounds (SubmitBatch +
// DrainLocal's loop) and the cross-shard Submits either at once, on two
// goroutines, or one after the other. Every commit is recorded in the
// routing reference it returns.
func (l raceLoad) run(t *testing.T, concurrent bool) (*Cluster, *routeRef) {
	c := newTestCluster(t, Config{Shards: 2})
	ref := newRouteRef()
	ref.submitDrain(t, c, l.creates...)
	local := func() {
		for _, round := range l.hops {
			for id, err := range ref.submitBatch(c, round) {
				t.Errorf("submit %.8s: %v", id, err)
			}
			ref.drainLocal(c, 64)
		}
	}
	cross := func() {
		for _, m := range l.migrations {
			if err := ref.submitBatch(c, []*txn.Transaction{m})[m.ID]; err != nil {
				t.Errorf("cross-shard %.8s: %v", m.ID, err)
			}
		}
	}
	if !concurrent {
		local()
		cross()
		return c, ref
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); local() }()
	go func() { defer wg.Done(); cross() }()
	wg.Wait()
	return c, ref
}

// requireOneRecordPerHeight fails unless st's block records are exactly
// heights 1..Height, each naming transactions no other record names,
// and every transaction st logged is named by one: a commit that took
// another's height would have overwritten its record.
func requireOneRecordPerHeight(t *testing.T, shard int, st *ledger.State) {
	t.Helper()
	blocks := st.Store().Collection(ledger.ColBlocks)
	keys := blocks.Keys()
	sort.Strings(keys)
	if int64(len(keys)) != st.Height() {
		t.Fatalf("shard %d: %d block records at height %d", shard, len(keys), st.Height())
	}
	named := make(map[string]int64)
	for i, key := range keys {
		rec, _ := blocks.Borrow(key)
		h := int64(i + 1)
		if rec["height"] != float64(h) {
			t.Fatalf("shard %d: record %d holds height %v, want %d", shard, i, rec["height"], h)
		}
		ids, _ := rec["txids"].([]any)
		for _, id := range ids {
			if prev, dup := named[id.(string)]; dup {
				t.Fatalf("shard %d: %.8s is named by blocks %d and %d", shard, id, prev, h)
			}
			named[id.(string)] = h
		}
	}
	for _, id := range st.Store().Collection(ledger.ColTransactions).Keys() {
		if _, ok := named[id]; !ok {
			t.Fatalf("shard %d: %.8s is committed but no block record names it", shard, id)
		}
	}
}

// TestLocalBlocksRaceCrossShardApplies runs DrainLocal and cross-shard
// Submits on the same shards at once. A local block stages off the
// ledger's lock and a 2PC apply takes the next height, so the shard's
// lock must order the two: heights strictly increase with one block
// record each, and each shard ends in the state a sequential run of the
// same workload reaches.
func TestLocalBlocksRaceCrossShardApplies(t *testing.T) {
	l := newRaceLoad(t, 6, 6, 6)
	got, ref := l.run(t, true)
	want, _ := l.run(t, false)
	for s := 0; s < 2; s++ {
		requireOneRecordPerHeight(t, s, got.Shard(s).Node.State())
		if g, w := got.Shard(s).Node.State().Fingerprint(), want.Shard(s).Node.State().Fingerprint(); g != w {
			t.Fatalf("shard %d: concurrent run fingerprint %s, sequential %s", s, g, w)
		}
	}
	ref.check(t, got)
	ref.checkReopened(t, got)
}
