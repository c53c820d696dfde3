package shard

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// newTestCluster opens a cluster over the backend SCDB_BACKEND selects
// (in-memory by default, throwaway disk engines under SCDB_BACKEND=disk
// — the switch the Makefile flips to run the suite over both).
func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if os.Getenv("SCDB_BACKEND") == "disk" && cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
		cfg.Node.NoSync = true
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("open cluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func kp(i int64) *keys.KeyPair { return keys.DeterministicKeyPair(i) }

// mkCreate mints an asset hinted to the given home shard.
func mkCreate(t *testing.T, owner *keys.KeyPair, shares uint64, home int) *txn.Transaction {
	t.Helper()
	c := txn.NewCreate(owner.PublicBase58(),
		map[string]any{"capabilities": []any{"test"}},
		shares, map[string]any{MetaShardHint: float64(home)})
	if err := txn.Sign(c, owner); err != nil {
		t.Fatal(err)
	}
	return c
}

// mkTransfer moves amount shares from ref to the given owners; hint < 0
// leaves the transfer homed with its input (chain affinity), hint >= 0
// directs the outputs to that shard.
func mkTransfer(t *testing.T, asset string, ref txn.OutputRef, from *keys.KeyPair, outs []*txn.Output, hint int) *txn.Transaction {
	t.Helper()
	var meta map[string]any
	if hint >= 0 {
		meta = map[string]any{MetaShardHint: float64(hint)}
	}
	tr := txn.NewTransfer(asset,
		[]txn.Spend{{Ref: ref, Owners: []string{from.PublicBase58()}}}, outs, meta)
	if err := txn.Sign(tr, from); err != nil {
		t.Fatal(err)
	}
	return tr
}

func out(to *keys.KeyPair, amount uint64) *txn.Output {
	return &txn.Output{PublicKeys: []string{to.PublicBase58()}, Amount: amount}
}

// submitDrain submits txs (failing the test on any verdict) and commits
// local blocks until the pools drain.
func submitDrain(t *testing.T, c *Cluster, txs ...*txn.Transaction) {
	t.Helper()
	for id, err := range c.SubmitBatch(txs) {
		t.Fatalf("submit %s: %v", id[:8], err)
	}
	c.DrainLocal(64)
}

func TestRoutingChainAffinity(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3})
	alice, bob := kp(1), kp(2)
	a := mkCreate(t, alice, 10, 0)
	b := mkCreate(t, bob, 10, 2)
	submitDrain(t, c, a, b)

	if s, ok := c.Directory().Lookup(a.ID); !ok || s != 0 {
		t.Fatalf("create A routed to %d,%v, want shard 0", s, ok)
	}
	if s, ok := c.Directory().Lookup(b.ID); !ok || s != 2 {
		t.Fatalf("create B routed to %d,%v, want shard 2", s, ok)
	}

	// A hintless transfer homes with its spent input — fully local.
	local := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice, []*txn.Output{out(bob, 10)}, -1)
	r, err := c.RouteOf(local)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cross() || r.Home != 0 {
		t.Fatalf("chain-affinity route = %+v, want single-shard home 0", r)
	}

	// A hinted transfer spans the input's shard and the hint target.
	cross := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice, []*txn.Output{out(bob, 10)}, 2)
	r, err = c.RouteOf(cross)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cross() || r.Home != 2 || len(r.Participants) != 2 || r.Participants[0] != 0 || r.Participants[1] != 2 {
		t.Fatalf("hinted route = %+v, want home 2 over shards [0 2]", r)
	}

	// A spend of a transaction no shard has is unroutable.
	ghost := mkTransfer(t, a.ID, txn.OutputRef{TxID: "nonexistent", Index: 0}, alice, []*txn.Output{out(bob, 10)}, -1)
	var missing *txn.InputDoesNotExistError
	if _, err := c.RouteOf(ghost); !errors.As(err, &missing) {
		t.Fatalf("unroutable input: %v", err)
	}
}

// TestSubmitAdmitsIntoHomePoolOnly: the router is the only way into a
// shard's pool, and it puts each transaction into its home shard's pool
// and no other. A shard's node validates what it is handed and knows
// nothing of routing.
func TestSubmitAdmitsIntoHomePoolOnly(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice := kp(1)
	for home := range 2 {
		a := mkCreate(t, alice, 10, home)
		if err := c.Submit(a); err != nil {
			t.Fatalf("submit create homed on %d: %v", home, err)
		}
		if !c.Shard(home).pool.Contains(a.ID) || c.Shard(1-home).pool.Contains(a.ID) {
			t.Fatalf("create homed on %d: pooled on shard 0 %v, shard 1 %v", home,
				c.Shard(0).pool.Contains(a.ID), c.Shard(1).pool.Contains(a.ID))
		}
		c.DrainLocal(64)
		if !c.Shard(home).Node.State().IsCommitted(a.ID) || c.Shard(1-home).Node.State().IsCommitted(a.ID) {
			t.Fatalf("create homed on %d committed elsewhere", home)
		}
	}
}

func TestLocalChainsCommitIndependently(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	// One transfer chain per shard, submitted interleaved: every
	// transaction is single-shard, so both shards commit local blocks
	// with zero coordination.
	const hops = 4
	var txs []*txn.Transaction
	owners := []*keys.KeyPair{kp(10), kp(20)}
	for s := 0; s < 2; s++ {
		a := mkCreate(t, owners[s], 10, s)
		submitDrain(t, c, a)
		ref := txn.OutputRef{TxID: a.ID, Index: 0}
		from := owners[s]
		for h := 0; h < hops; h++ {
			next := kp(int64(100*(s+1) + h))
			tr := mkTransfer(t, a.ID, ref, from, []*txn.Output{out(next, 10)}, -1)
			txs = append(txs, tr)
			ref = txn.OutputRef{TxID: tr.ID, Index: 0}
			from = next
		}
	}
	// Chained transfers conflict with their parents, so drain between
	// hops: hop i of both chains lands in one round's local blocks.
	for h := 0; h < hops; h++ {
		submitDrain(t, c, txs[h], txs[hops+h])
	}
	for s := 0; s < 2; s++ {
		st := c.Shard(s).Node.State()
		if got := st.TxCount(); got != 1+hops {
			t.Fatalf("shard %d: %d transactions, want %d", s, got, 1+hops)
		}
		if st.Height() == 0 {
			t.Fatalf("shard %d: no blocks committed", s)
		}
	}
	// The two chains never met: no 2PC records anywhere.
	for s := 0; s < 2; s++ {
		indoubt, err := c.Shard(s).Node.State().InDoubt()
		if err != nil || len(indoubt) != 0 {
			t.Fatalf("shard %d: in-doubt %v err %v", s, indoubt, err)
		}
	}
}

func TestPlacementDefaultInRange(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3})
	alice := kp(1)
	// No hint, no inputs: hash placement, stable and in range.
	cr := txn.NewCreate(alice.PublicBase58(), map[string]any{"k": "v"}, 5, nil)
	if err := txn.Sign(cr, alice); err != nil {
		t.Fatal(err)
	}
	r1, err := c.RouteOf(cr)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := c.RouteOf(cr)
	if r1.Home != r2.Home || r1.Home < 0 || r1.Home >= 3 || r1.Cross() {
		t.Fatalf("hash placement = %+v then %+v", r1, r2)
	}
}

// TestPlaceOverride: a shard hint overrides the hash placement of a
// transaction with no spent inputs, whichever shard the hash picks.
func TestPlaceOverride(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice := kp(1)
	for home := range 2 {
		cr := mkCreate(t, alice, 5, home)
		if r, err := c.RouteOf(cr); err != nil || r.Home != home || r.Cross() {
			t.Fatalf("hinted to shard %d: route = %+v, %v", home, r, err)
		}
	}
}

// TestHintOf: a hint is a whole number in [0, S) — a JSON number or,
// from a Go caller, an int. A fraction, a negative or out-of-range
// number, a non-number and a number far beyond int's range are each
// no hint.
func TestHintOf(t *testing.T) {
	const shards = 3
	for _, c := range []struct {
		hint any
		want int
		ok   bool
	}{
		{1.0, 1, true},
		{0.0, 0, true},
		{2, 2, true},
		{1.5, 0, false},
		{-1.0, 0, false},
		{-1, 0, false},
		{float64(shards), 0, false},
		{shards, 0, false},
		{"1", 0, false},
		{1e300, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
	} {
		tx := &txn.Transaction{Metadata: map[string]any{MetaShardHint: c.hint}}
		if got, ok := hintOf(tx, shards); got != c.want || ok != c.ok {
			t.Errorf("hint %#v: (%d, %v), want (%d, %v)", c.hint, got, ok, c.want, c.ok)
		}
	}
	if _, ok := hintOf(&txn.Transaction{}, shards); ok {
		t.Error("no metadata: a hint")
	}
}

func TestSubmitBatchVerdicts(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	alice, bob := kp(1), kp(2)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)
	ref := txn.OutputRef{TxID: a.ID, Index: 0}
	good := mkTransfer(t, a.ID, ref, alice, []*txn.Output{out(bob, 10)}, -1)
	rival := mkTransfer(t, a.ID, ref, bob, []*txn.Output{out(alice, 10)}, -1)
	errs := c.SubmitBatch([]*txn.Transaction{good, rival})
	if err := errs[good.ID]; err != nil {
		t.Fatalf("good transfer: %v", err)
	}
	if err := errs[rival.ID]; err == nil {
		t.Fatal("double-spending rival admitted")
	}
	if got := fmt.Sprint(len(errs)); got != "1" {
		t.Fatalf("verdicts = %v", errs)
	}
}

// Per-shard registries record each shard's side of the work — the data
// source the labeled ops endpoint (obs.LabeledHandler) serves under
// one label per shard.
func TestPerShardObsCounters(t *testing.T) {
	regs := []*obs.Registry{obs.New(), obs.New()}
	c := newTestCluster(t, Config{Shards: 2, ObsFor: func(i int) *obs.Registry { return regs[i] }})
	alice, bob := kp(1), kp(2)
	a := mkCreate(t, alice, 10, 0)
	submitDrain(t, c, a)

	cross := mkTransfer(t, a.ID, txn.OutputRef{TxID: a.ID, Index: 0}, alice, []*txn.Output{out(bob, 10)}, 1)
	if err := c.Submit(cross); err != nil {
		t.Fatal(err)
	}

	s0, s1 := regs[0].Snapshot(), regs[1].Snapshot()
	// Only shard 0 committed a zero-coordination local block.
	if s0.Counters["shard.local_blocks"] != 1 || s1.Counters["shard.local_blocks"] != 0 {
		t.Fatalf("local blocks = %d/%d, want 1/0",
			s0.Counters["shard.local_blocks"], s1.Counters["shard.local_blocks"])
	}
	// Both participants joined the 2PC round, voted, and applied.
	for i, s := range []obs.Snapshot{s0, s1} {
		if s.Counters["shard.cross_txs"] != 1 || s.Counters["shard.2pc.prepared"] != 1 ||
			s.Counters["shard.2pc.committed"] != 1 || s.Counters["shard.2pc.aborted"] != 0 {
			t.Fatalf("shard %d 2PC counters: %v", i, s.Counters)
		}
		if s.Histograms["shard.2pc.prepare_ns"].Count != 1 || s.Histograms["shard.2pc.apply_ns"].Count != 1 {
			t.Fatalf("shard %d 2PC histograms: %v", i, s.Histograms)
		}
	}
	// Height gauges track each shard's chain: the create block plus the
	// 2PC apply on shard 0, the migration apply alone on shard 1.
	if s0.Gauges["shard.height"] != 2 || s1.Gauges["shard.height"] != 1 {
		t.Fatalf("heights = %d/%d, want 2/1", s0.Gauges["shard.height"], s1.Gauges["shard.height"])
	}
}

// TestOpenSurfacesNodeRefusal: a node configuration server.OpenNode
// refuses comes back from Open as an error naming the shard and the
// field, with no shard left open.
func TestOpenSurfacesNodeRefusal(t *testing.T) {
	_, err := Open(Config{Shards: 2, Node: server.Config{CommitDepth: 3}})
	if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "Config.CommitDepth is 3") {
		t.Fatalf("Open with CommitDepth 3: got %v, want shard 0's refusal naming Config.CommitDepth", err)
	}
}
