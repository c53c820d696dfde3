package consensus

import (
	"fmt"
	"testing"
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// objTx is a transaction with identity: two objTx with one hash are two
// builds of the same transaction, and a pool holds one or the other. It
// spends the output its claim names, as a nested child spends one
// escrow output.
type objTx struct{ h string }

func (t *objTx) Hash() string { return t.h }

func (t *objTx) Footprint() txn.Footprint {
	w := []string{t.h, claimOf(t.h)}
	return txn.Footprint{Spends: w[1:], Writes: w}
}

// claimOf is the spend claim of the transaction named hash.
func claimOf(hash string) string { return "utxo:" + hash + ":0" }

// builder counts the builds of one transaction a test injects.
type builder struct {
	hash   string
	builds int
}

// build returns a fresh copy of the transaction, as a validator that
// builds and signs its own would.
func (b *builder) build() Tx {
	b.builds++
	return &objTx{h: b.hash}
}

// injectOwn hands validator i its own build of the transaction named
// hash at instant at.
func injectOwn(c *Cluster, at time.Duration, i int, hash string) {
	c.InjectAt(at, i, claimOf(hash), func() Tx { return &objTx{h: hash} })
}

// batchApp records the admission batches its validator checks.
type batchApp struct {
	App
	batches [][]string
}

func (a *batchApp) CheckTxBatch(txs []Tx) map[string]error {
	var b []string
	for _, tx := range txs {
		b = append(b, tx.Hash())
	}
	a.batches = append(a.batches, b)
	return a.App.CheckTxBatch(txs)
}

func newBatchCluster(cfg Config) (*Cluster, []*batchApp) {
	apps := make([]*batchApp, cfg.Nodes)
	c := NewCluster(cfg, func(i int) App {
		apps[i] = &batchApp{App: Lift(newTestApp(i))}
		return apps[i]
	})
	return c, apps
}

// injectEverywhere hands every validator the transaction named hash at
// instant at, the way each validator's nested hook hands it the
// children it derived.
func injectEverywhere(c *Cluster, at time.Duration, hash string) {
	for i := range c.nodes {
		injectOwn(c, at, i, hash)
	}
}

// TestInjectSendsNoTxMessage: an injected transaction commits with the
// consensus messages alone. Submitted by a client the same transaction
// costs one more broadcast, the receiver's gossip to the other
// validators; injected, it costs none.
func TestInjectSendsNoTxMessage(t *testing.T) {
	run := func(inject bool) int {
		c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 31})
		if inject {
			injectEverywhere(c, 0, "child")
		} else {
			c.SubmitAt(0, &objTx{h: "child"})
		}
		if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
			t.Fatalf("inject=%v: committed %d, want 1", inject, got)
		}
		c.RunUntil(c.Sched().Now() + time.Second)
		sent, _, _ := c.Net().Stats()
		return sent
	}
	submitted, injected := run(false), run(true)
	if submitted-injected != 4-1 {
		t.Fatalf("client submission sent %d messages, injection %d: want exactly the 3 gossip copies fewer", submitted, injected)
	}
}

// TestInjectLatencyStartsAtFirstInjection: an injected transaction has
// a submit time — its first injection into a live validator — so
// Latency is defined and measures from there.
func TestInjectLatencyStartsAtFirstInjection(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 32})
	c.Crash(3)
	injectOwn(c, 2*time.Millisecond, 3, "child") // dropped: validator 3 is down
	injectOwn(c, 5*time.Millisecond, 1, "child")
	injectOwn(c, 9*time.Millisecond, 0, "child")
	injectOwn(c, 9*time.Millisecond, 2, "child")
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatalf("committed %d, want 1", got)
	}
	if at, ok := c.submitTimes["child"]; !ok || at != 5*time.Millisecond {
		t.Fatalf("submit time = %v, %v; want the first live injection, 5ms", at, ok)
	}
	lat, ok := c.Latency("child")
	commit, _ := c.CommitTime("child")
	if !ok || lat <= 0 || lat != commit-5*time.Millisecond {
		t.Fatalf("latency = %v, %v; want commit %v - 5ms", lat, ok, commit)
	}
}

// TestInjectSharesOneObject: the first validator to owe the
// transaction builds it, every other validator is handed that copy
// without building its own, and once it commits the cluster holds no
// copy of it.
func TestInjectSharesOneObject(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 33})
	b := &builder{hash: "child"}
	for _, i := range []int{2, 0, 1, 3} {
		c.InjectAt(time.Millisecond, i, claimOf("child"), b.build)
	}
	if b.builds != 1 {
		t.Fatalf("four validators owing one transaction built it %d times, want once", b.builds)
	}
	c.RunUntil(time.Millisecond)
	first := c.nodes[2].pool.Pending()
	for i, n := range c.nodes {
		pending := n.pool.Pending()
		if len(pending) != 1 || len(first) != 1 || pending[0] != first[0] {
			t.Fatalf("validator %d pools %v, validator 2 %v: want one shared copy", i, pending, first)
		}
	}
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatalf("committed %d, want 1", got)
	}
	if len(c.injected) != 0 {
		t.Errorf("%d copies held after commit", len(c.injected))
	}
}

// TestInjectAfterCommitBuildsItsOwn: a validator that owes the
// transaction after it committed — one replaying its recovery log —
// builds its own copy, which the cluster does not hold and the
// validator's pool drops as committed.
func TestInjectAfterCommitBuildsItsOwn(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 37})
	injectEverywhere(c, time.Millisecond, "child")
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatalf("committed %d, want 1", got)
	}
	c.RunUntil(c.Sched().Now() + time.Second)
	late := &builder{hash: "child"}
	c.InjectAt(c.Sched().Now()+time.Millisecond, 0, claimOf("child"), late.build)
	if late.builds != 1 {
		t.Fatalf("a validator owing a committed transaction built it %d times, want once", late.builds)
	}
	if len(c.injected) != 0 {
		t.Errorf("%d copies held after commit", len(c.injected))
	}
	c.RunUntil(c.Sched().Now() + time.Second)
	if c.nodes[0].pool.Contains("child") {
		t.Error("validator pooled a committed transaction")
	}
}

// TestInjectOneBatchPerInstant: what one validator is handed for one
// instant — the children of one commit's join — is one admission
// batch, never behind the client batch in flight on the same node.
func TestInjectOneBatchPerInstant(t *testing.T) {
	c, apps := newBatchCluster(Config{Nodes: 4, Seed: 34})
	for _, a := range apps {
		a.App.(lifted).MinimalApp.(*testApp).recvTime = 50 * time.Millisecond
	}
	c.SubmitAt(0, &objTx{h: "client"}) // occupies its receiver until 50ms
	for k := 0; k < 3; k++ {
		injectEverywhere(c, 10*time.Millisecond, fmt.Sprintf("child%d", k))
	}
	c.RunUntil(10 * time.Millisecond)
	for i, a := range apps {
		if len(a.batches) != 1 || len(a.batches[0]) != 3 {
			t.Fatalf("validator %d checked batches %v by 10ms, want the three children as one", i, a.batches)
		}
	}
	if got := c.RunUntilCommitted(4, time.Minute); got != 4 {
		t.Fatalf("committed %d, want 4", got)
	}
}

// TestInjectIntoCrashedValidatorIsDropped: a crashed validator's
// injection is lost, not queued for its restart, and the transaction
// commits through the validators that injected theirs.
func TestInjectIntoCrashedValidatorIsDropped(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 35})
	c.Crash(2)
	injectEverywhere(c, time.Millisecond, "child")
	c.RunUntil(time.Millisecond)
	if c.nodes[2].pool.Contains("child") {
		t.Fatal("crashed validator admitted an injection")
	}
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatalf("committed %d with validator 2 down, want 1", got)
	}
	c.Restart(2)
	c.RunUntil(c.Sched().Now() + time.Second)
	if c.nodes[2].pool.Contains("child") {
		t.Fatal("restarted validator pooled a dropped injection")
	}
}

// obsApp gives a test app a registry, so its node traces stages.
type obsApp struct {
	App
	reg *obs.Registry
}

func (a obsApp) Obs() *obs.Registry { return a.reg }

// TestInjectStampsArrival: a validator's injection is its trace's
// arrival, so an injected transaction's recv stage measures from there
// and does not read zero. One batch of many makes the first member's
// dwell span the stamping of the rest.
func TestInjectStampsArrival(t *testing.T) {
	reg := obs.New()
	c := NewCluster(Config{Nodes: 4, Seed: 36}, func(i int) App {
		if i == 0 {
			return obsApp{App: Lift(newTestApp(i)), reg: reg}
		}
		return Lift(newTestApp(i))
	})
	for k := 0; k < 2000; k++ {
		injectOwn(c, time.Millisecond, 0, fmt.Sprintf("child%04d", k))
	}
	c.RunUntil(time.Millisecond)
	tr, ok := reg.Tracer().Trace("child0000")
	if !ok || tr.Stages[obs.StageRecv] <= 0 {
		t.Fatalf("first injected transaction's recv dwell = %v (traced %v), want the time since its injection", tr.Stages[obs.StageRecv], ok)
	}
}
