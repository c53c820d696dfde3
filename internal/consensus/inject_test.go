package consensus

import (
	"fmt"
	"testing"
	"time"

	"smartchaindb/internal/mempool"
	"smartchaindb/internal/obs"
)

// objTx is a transaction with identity: two objTx with one hash are two
// builds of the same transaction, and a pool holds one or the other.
type objTx struct{ h string }

func (t *objTx) Hash() string { return t.h }

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

// injectEverywhere hands every validator its own build of the
// transaction named hash at instant at, the way each validator's nested
// hook hands it the children it derived.
func injectEverywhere(c *Cluster, at time.Duration, hash string) {
	for i := range c.nodes {
		c.InjectAt(at, i, &objTx{h: hash})
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
	c.InjectAt(2*time.Millisecond, 3, &objTx{h: "child"}) // dropped: validator 3 is down
	c.InjectAt(5*time.Millisecond, 1, &objTx{h: "child"})
	c.InjectAt(9*time.Millisecond, 0, &objTx{h: "child"})
	c.InjectAt(9*time.Millisecond, 2, &objTx{h: "child"})
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

// TestInjectSharesOneObject: every validator built its own copy, and
// every pool holds the first one.
func TestInjectSharesOneObject(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 33})
	first := &objTx{h: "child"}
	c.InjectAt(time.Millisecond, 2, first)
	for _, i := range []int{0, 1, 3} {
		c.InjectAt(time.Millisecond, i, &objTx{h: "child"})
	}
	c.RunUntil(time.Millisecond)
	for i, n := range c.nodes {
		pending := n.pool.Pending()
		if len(pending) != 1 || pending[0] != mempool.Tx(first) {
			t.Fatalf("validator %d pools %v, want the first copy %p", i, pending, first)
		}
	}
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatalf("committed %d, want 1", got)
	}
	if len(c.injected) != 0 {
		t.Errorf("%d first copies held after commit", len(c.injected))
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
		c.InjectAt(time.Millisecond, 0, &objTx{h: fmt.Sprintf("child%04d", k)})
	}
	c.RunUntil(time.Millisecond)
	tr, ok := reg.Tracer().Trace("child0000")
	if !ok || tr.Stages[obs.StageRecv] <= 0 {
		t.Fatalf("first injected transaction's recv dwell = %v (traced %v), want the time since its injection", tr.Stages[obs.StageRecv], ok)
	}
}
