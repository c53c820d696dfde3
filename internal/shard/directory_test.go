package shard

import (
	"maps"
	"sync"
	"testing"

	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// routeRef is the routing map the cluster once kept beside the shards'
// chains, written where that map was written: a local block's committed
// transactions on its shard (CommitLocal), a committed cross-shard
// transfer on its route's home (commitCross), and, at open, every
// transaction each shard's log holds (the rebuild). The map's fourth
// writer, the child submitter, homed an ACCEPT_BID on its shard from
// the join of the local block that commits it, and that block's
// CommitLocal wrote the same home again: the reference records it there.
// Directory, which reads the chains, must agree with it.
type routeRef struct {
	mu   sync.Mutex
	home map[string]int
}

func newRouteRef() *routeRef { return &routeRef{home: make(map[string]int)} }

// openRouteRef is the reference a cluster rebuilt at open: every
// transaction on the shard whose log holds it.
func openRouteRef(c *Cluster) *routeRef {
	r := newRouteRef()
	for s := 0; s < c.Shards(); s++ {
		for _, id := range c.Shard(s).Node.State().Store().Collection(ledger.ColTransactions).Keys() {
			r.home[id] = s
		}
	}
	return r
}

func (r *routeRef) set(id string, s int) {
	r.mu.Lock()
	r.home[id] = s
	r.mu.Unlock()
}

// commitLocal is Cluster.CommitLocal, recorded.
func (r *routeRef) commitLocal(c *Cluster, id, maxTxs int) []*txn.Transaction {
	committed := c.CommitLocal(id, maxTxs)
	for _, t := range committed {
		r.set(t.ID, id)
	}
	return committed
}

// drainLocal is Cluster.DrainLocal's loop through commitLocal: every
// shard in parallel until its pool is empty.
func (r *routeRef) drainLocal(c *Cluster, maxTxs int) {
	var wg sync.WaitGroup
	for id := 0; id < c.Shards(); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for len(r.commitLocal(c, id, maxTxs)) > 0 {
			}
		}(id)
	}
	wg.Wait()
}

// submitBatch is Cluster.SubmitBatch, recording each cross-shard
// transfer that committed on its route's home. Routing every
// transaction first reads what SubmitBatch's own routing reads: the
// batch's local transactions are only admitted before its cross-shard
// ones run.
func (r *routeRef) submitBatch(c *Cluster, txs []*txn.Transaction) map[string]error {
	routes := make(map[string]Route, len(txs))
	for _, t := range txs {
		if rt, err := c.RouteOf(t); err == nil && rt.Cross() {
			routes[t.ID] = rt
		}
	}
	errs := c.SubmitBatch(txs)
	for id, rt := range routes {
		if errs[id] == nil {
			r.set(id, rt.Home)
		}
	}
	return errs
}

// submitDrain is the package's submitDrain, recorded and checked.
func (r *routeRef) submitDrain(t *testing.T, c *Cluster, txs ...*txn.Transaction) {
	t.Helper()
	for id, err := range r.submitBatch(c, txs) {
		t.Fatalf("submit %s: %v", id[:8], err)
	}
	r.drainLocal(c, 64)
	r.check(t, c)
}

// check fails unless c's directory homes every transaction the
// reference records where the reference does, and counts as many
// transactions as the reference and the shards' logs together hold.
func (r *routeRef) check(t *testing.T, c *Cluster) {
	t.Helper()
	dir := c.Directory()
	for id, want := range r.home {
		if got, ok := dir.Lookup(id); !ok || got != want {
			t.Fatalf("directory homes %.8s on %d (%v), the reference on %d", id, got, ok, want)
		}
	}
	held := 0
	for s := 0; s < c.Shards(); s++ {
		held += c.Shard(s).Node.State().TxCount()
	}
	if dir.Len() != held || len(r.home) != held {
		t.Fatalf("directory counts %d transactions, the reference %d, the shards hold %d", dir.Len(), len(r.home), held)
	}
}

// checkReopened closes a disk-backed cluster, reopens it, and checks
// that the directory agrees with r and with the reference the reopened
// cluster rebuilds, which must be r. An in-memory cluster has nothing
// to reopen: the check is made on the disk backend.
func (r *routeRef) checkReopened(t *testing.T, c *Cluster) {
	t.Helper()
	if c.cfg.DataDir == "" {
		return
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(c.cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if rebuilt := openRouteRef(c2); !maps.Equal(rebuilt.home, r.home) {
		t.Fatalf("reopened cluster rebuilds %d homes, %d were recorded", len(rebuilt.home), len(r.home))
	}
	r.check(t, c2)
}
