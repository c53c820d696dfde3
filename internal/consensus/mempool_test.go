package consensus

import (
	"fmt"
	"testing"
	"time"
)

// batchTestApp is a full App: the lifted testApp with its own batched
// admission, recording admission batch sizes.
type batchTestApp struct {
	*testApp
	App
	batchSizes []int
}

func (a *batchTestApp) CheckTxBatch(txs []Tx) map[string]error {
	a.batchSizes = append(a.batchSizes, len(txs))
	var errs map[string]error
	for _, tx := range txs {
		if a.reject[tx.Hash()] {
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[tx.Hash()] = fmt.Errorf("rejected %s", tx.Hash())
		}
	}
	return errs
}

func (a *batchTestApp) ReceiverBatchTime(txs []Tx) time.Duration {
	// Model perfect 4-way admission parallelism.
	n := (len(txs) + 3) / 4
	return time.Duration(n) * a.recvTime
}

func TestBatchedAdmissionCommitsEverything(t *testing.T) {
	apps := make([]*batchTestApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: 31, MaxBlockTxs: 16}, func(i int) App {
		ta := newTestApp(i)
		apps[i] = &batchTestApp{testApp: ta, App: Lift(ta)}
		apps[i].reject["bad"] = true
		return apps[i]
	})
	const n = 60
	for i := 0; i < n; i++ {
		// Same-instant burst: arrivals pile up behind the receiver's
		// execution resource and admit in batches.
		c.SubmitAt(0, testTx(fmt.Sprintf("tx%03d", i)))
	}
	c.SubmitAt(0, testTx("bad"))
	if got := c.RunUntilCommitted(n, time.Minute); got != n {
		t.Fatalf("committed %d, want %d", got, n)
	}
	if err, ok := c.rejected["bad"]; !ok || err == nil {
		t.Error("batched rejection not recorded for client tx")
	}
	batched := false
	for _, a := range apps {
		for _, sz := range a.batchSizes {
			if sz > 1 {
				batched = true
			}
		}
	}
	if !batched {
		t.Error("no admission batch held more than one transaction")
	}
}

// TestLateArrivingReservedTxStaysUnpackable pins the pipelining guard:
// a transaction reserved by a precommitted block whose gossip beats its
// own admission must still be admitted (it has to be swept on commit)
// but never packable into a later height.
func TestLateArrivingReservedTxStaysUnpackable(t *testing.T) {
	c, _ := newTestCluster(t, Config{Nodes: 4, Seed: 33, Pipelined: true})
	n := c.nodes[0]
	n.reserved["T"] = true // precommitted block B_h holds T
	n.enqueueAdmission(testTx("T"), false)
	c.Sched().RunFor(time.Second)
	if !n.pool.Contains("T") {
		t.Fatal("late-arriving reserved tx was not admitted at all")
	}
	if n.pool.PendingCount() != 0 {
		t.Fatal("reserved tx is packable into the next height")
	}
	// Commit of B_h sweeps it.
	n.applyBlock(1, []Tx{testTx("T")})
	if n.pool.Contains("T") {
		t.Fatal("committed reserved tx survived the sweep")
	}
}

// TestClientCopyUpgradesQueuedGossipCopy pins the verdict path: a
// client submission landing while a gossiped copy of the same invalid
// transaction waits in the admission queue must still produce a
// recorded rejection.
func TestClientCopyUpgradesQueuedGossipCopy(t *testing.T) {
	apps := make([]*testApp, 4)
	c := NewCluster(Config{Nodes: 4, Seed: 35}, func(i int) App {
		apps[i] = newTestApp(i)
		apps[i].reject["bad"] = true
		return Lift(apps[i])
	})
	n := c.nodes[0]
	// Occupy the node so the queue holds both copies before admission.
	n.enqueueAdmission(testTx("warm"), true)
	n.enqueueAdmission(testTx("bad"), false) // gossip copy first
	n.enqueueAdmission(testTx("bad"), true)  // client copy lands on top
	c.Sched().RunFor(time.Second)
	if err, ok := c.rejected["bad"]; !ok || err == nil {
		t.Fatal("client rejection lost when gossip copy was queued first")
	}
}
