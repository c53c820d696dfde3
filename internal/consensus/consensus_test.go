package consensus

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// testTx is a string-hashed transaction for engine tests.
type testTx string

func (t testTx) Hash() string { return string(t) }

// testApp is a minimal replicated state machine that records commit
// order and can reject configured transactions.
type testApp struct {
	node      int
	order     []string
	reject    map[string]bool // CheckTx failures
	invalid   map[string]bool // ValidateBlock failures
	valTime   time.Duration
	recvTime  time.Duration
	perHeight map[int64][]string
}

func newTestApp(node int) *testApp {
	return &testApp{
		node:      node,
		reject:    make(map[string]bool),
		invalid:   make(map[string]bool),
		valTime:   time.Millisecond,
		recvTime:  time.Millisecond,
		perHeight: make(map[int64][]string),
	}
}

func (a *testApp) CheckTx(tx Tx) error {
	if a.reject[tx.Hash()] {
		return fmt.Errorf("rejected %s", tx.Hash())
	}
	return nil
}

func (a *testApp) ValidateBlock(txs []Tx) []Tx {
	var bad []Tx
	for _, tx := range txs {
		if a.invalid[tx.Hash()] {
			bad = append(bad, tx)
		}
	}
	return bad
}

func (a *testApp) ReceiverTime(Tx) time.Duration     { return a.recvTime }
func (a *testApp) ValidationTime([]Tx) time.Duration { return a.valTime }
func (a *testApp) Commit(height int64, txs []Tx) {
	for _, tx := range txs {
		a.order = append(a.order, tx.Hash())
		a.perHeight[height] = append(a.perHeight[height], tx.Hash())
	}
}

func newTestCluster(t *testing.T, cfg Config) (*Cluster, []*testApp) {
	t.Helper()
	apps := make([]*testApp, cfg.Nodes)
	c := NewCluster(cfg, func(i int) App {
		apps[i] = newTestApp(i)
		return Lift(apps[i])
	})
	return c, apps
}

func TestSingleTxCommits(t *testing.T) {
	c, apps := newTestCluster(t, Config{Nodes: 4, Seed: 1})
	c.SubmitAt(0, testTx("tx1"))
	if got := c.RunUntilCommitted(1, 10*time.Second); got != 1 {
		t.Fatalf("committed %d, want 1", got)
	}
	lat, ok := c.Latency("tx1")
	if !ok || lat <= 0 || lat > time.Second {
		t.Errorf("latency = %v, %v", lat, ok)
	}
	c.RunUntil(c.Sched().Now() + time.Second) // let stragglers apply
	for i, a := range apps {
		if len(a.order) != 1 || a.order[0] != "tx1" {
			t.Errorf("node %d order = %v", i, a.order)
		}
	}
}

func TestManyTxsAllNodesAgree(t *testing.T) {
	c, apps := newTestCluster(t, Config{Nodes: 4, Seed: 2, MaxBlockTxs: 10})
	const n = 100
	for i := 0; i < n; i++ {
		c.SubmitAt(time.Duration(i)*time.Millisecond, testTx(fmt.Sprintf("tx%03d", i)))
	}
	if got := c.RunUntilCommitted(n, time.Minute); got != n {
		t.Fatalf("committed %d, want %d", got, n)
	}
	c.RunUntil(c.Sched().Now() + time.Second)
	// Safety: all nodes applied the same sequence.
	for i := 1; i < len(apps); i++ {
		if !reflect.DeepEqual(apps[0].order, apps[i].order) {
			t.Fatalf("node %d commit order differs from node 0", i)
		}
	}
	s := c.Summarize()
	if s.Committed != n || s.Throughput <= 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestMinorityCrashStillCommits(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 3})
	c.Crash(3) // 1 of 4 down: quorum 3 still reachable
	for i := 0; i < 10; i++ {
		c.SubmitAt(time.Duration(i)*time.Millisecond, testTx(fmt.Sprintf("tx%d", i)))
	}
	if got := c.RunUntilCommitted(10, time.Minute); got != 10 {
		t.Fatalf("committed %d with one node down, want 10", got)
	}
}

func TestQuorumLossStallsThenRecovers(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 4})
	c.Crash(2)
	c.Crash(3) // 2 of 4 down: only 2 < quorum(3)
	c.SubmitAt(0, testTx("stalled"))
	c.RunUntil(30 * time.Second)
	if c.CommittedCount() != 0 {
		t.Fatal("committed despite quorum loss")
	}
	c.Restart(2)
	if got := c.RunUntilCommitted(1, c.Sched().Now()+5*time.Minute); got != 1 {
		t.Fatal("did not recover after quorum restored")
	}
}

func TestProposerCrashRoundChange(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 5, ProposeTimeout: 200 * time.Millisecond})
	// Height 1 round 0 proposer is node (1+0)%4 = 1. Crash it.
	c.Crash(1)
	c.SubmitAt(0, testTx("tx1"))
	if got := c.RunUntilCommitted(1, time.Minute); got != 1 {
		t.Fatal("round change did not rescue the height")
	}
	lat, _ := c.Latency("tx1")
	if lat < 200*time.Millisecond {
		t.Errorf("latency %v should include at least one round timeout", lat)
	}
}

func TestCheckTxRejectionRecorded(t *testing.T) {
	apps := make([]*testApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: 6}, func(i int) App {
		apps[i] = newTestApp(i)
		apps[i].reject["bad"] = true
		return Lift(apps[i])
	})
	c.SubmitAt(0, testTx("bad"))
	c.SubmitAt(0, testTx("good"))
	c.RunUntilCommitted(1, time.Minute)
	if _, committed := c.CommitTime("bad"); committed {
		t.Error("rejected tx committed")
	}
	if err, ok := c.rejected["bad"]; !ok || err == nil {
		t.Error("rejection not recorded")
	}
	if _, ok := c.CommitTime("good"); !ok {
		t.Error("good tx did not commit")
	}
}

func TestInvalidBlockNeverCommits(t *testing.T) {
	apps := make([]*testApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: 7, ProposeTimeout: 100 * time.Millisecond}, func(i int) App {
		apps[i] = newTestApp(i)
		apps[i].invalid["poison"] = true
		return Lift(apps[i])
	})
	c.SubmitAt(0, testTx("poison"))
	c.SubmitAt(time.Millisecond, testTx("fine"))
	c.RunUntil(10 * time.Second)
	if _, ok := c.CommitTime("poison"); ok {
		t.Error("block-invalid tx committed")
	}
	if _, ok := c.CommitTime("fine"); !ok {
		t.Error("valid tx starved by invalid one")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int) {
		c, _ := newTestCluster(t, Config{Nodes: 7, Seed: 99})
		for i := 0; i < 20; i++ {
			c.SubmitAt(time.Duration(i)*time.Millisecond, testTx(fmt.Sprintf("t%d", i)))
		}
		c.RunUntilCommitted(20, time.Minute)
		lat, _ := c.Latency("t7")
		return lat, c.CommittedCount()
	}
	lat1, n1 := run()
	lat2, n2 := run()
	if lat1 != lat2 || n1 != n2 {
		t.Errorf("runs differ: (%v,%d) vs (%v,%d)", lat1, n1, lat2, n2)
	}
}

func TestPipeliningImprovesThroughput(t *testing.T) {
	run := func(pipelined bool) Summary {
		c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 11, MaxBlockTxs: 5, Pipelined: pipelined})
		for i := 0; i < 200; i++ {
			c.SubmitAt(time.Duration(i)*100*time.Microsecond, testTx(fmt.Sprintf("t%03d", i)))
		}
		c.RunUntilCommitted(200, 5*time.Minute)
		return c.Summarize()
	}
	base := run(false)
	piped := run(true)
	if base.Committed != 200 || piped.Committed != 200 {
		t.Fatalf("commits: base %d, piped %d", base.Committed, piped.Committed)
	}
	if piped.Throughput <= base.Throughput {
		t.Errorf("pipelining should raise throughput: %0.1f vs %0.1f tps", piped.Throughput, base.Throughput)
	}
}

func TestLargerClusterStillCommits(t *testing.T) {
	for _, nodes := range []int{4, 8, 16, 32} {
		c, _ := newTestCluster(t, Config{Nodes: nodes, Seed: int64(nodes)})
		for i := 0; i < 10; i++ {
			c.SubmitAt(time.Duration(i)*time.Millisecond, testTx(fmt.Sprintf("t%d", i)))
		}
		if got := c.RunUntilCommitted(10, time.Minute); got != 10 {
			t.Errorf("%d nodes: committed %d, want 10", nodes, got)
		}
	}
}

func TestQuorumThreshold(t *testing.T) {
	cases := map[int]int{1: 1, 3: 3, 4: 3, 7: 5, 10: 7, 32: 22}
	for n, want := range cases {
		if got := Quorum(n); got != want {
			t.Errorf("Quorum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 1})
	s := c.Summarize()
	if s.Committed != 0 || s.Throughput != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestDuplicateSubmitIgnored(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 13})
	c.SubmitAt(0, testTx("dup"))
	c.SubmitAt(time.Millisecond, testTx("dup"))
	c.RunUntilCommitted(1, time.Minute)
	if c.CommittedCount() != 1 {
		t.Errorf("committed %d, want 1", c.CommittedCount())
	}
}

func TestOnCommitHook(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 14})
	var hooked []string
	c.OnCommit(func(tx Tx, at time.Duration) { hooked = append(hooked, tx.Hash()) })
	c.SubmitAt(0, testTx("a"))
	c.RunUntilCommitted(1, time.Minute)
	if len(hooked) != 1 || hooked[0] != "a" {
		t.Errorf("hooked = %v", hooked)
	}
}
