package shard

import (
	"fmt"
	"path/filepath"
	"sync"

	"smartchaindb/internal/mempool"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// Config parameterizes a sharded deployment.
type Config struct {
	// Shards is the shard count (default 2).
	Shards int
	// Node configures every shard's server node. DataDir and Obs are
	// managed per shard (see DataDir and ObsFor); other fields apply
	// to each shard verbatim.
	Node server.Config
	// DataDir, when set, gives every shard a persistent storage engine
	// under DataDir/shard-<id> — its own WAL, segments, and MVCC
	// clock. A cluster reopened over existing directories recovers
	// every shard and resolves in-doubt cross-shard transactions
	// (recovery.go); routing reads the recovered chains. Empty keeps
	// per-shard in-memory backends.
	DataDir string
	// MempoolBatch caps one admission batch per shard pool.
	MempoolBatch int
	// ObsFor, when set, supplies each shard's observability registry;
	// per-shard registries keep every shard's metrics separable (the
	// ops endpoint serves them under shard labels). Nil entries keep
	// that shard's no-op build.
	ObsFor func(shard int) *obs.Registry
	// EventHook, when set, fires synchronously after every durable
	// 2PC step, named "<step>:<txid-prefix>" — the crash property
	// tests cut WALs at these points, and the obs stage trace rides
	// the same call sites. Steps: hold, stage, prepare@<shard>,
	// decide, apply@<shard>, release.
	EventHook func(event string)
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
}

// Shard is one vertical slice: a full server node (ledger state over
// its own storage backend) plus its own footprint-indexed mempool. The
// router is the only way into a shard's pool: the node itself knows
// nothing of routing.
type Shard struct {
	ID   int
	Node *server.Node
	pool *mempool.Pool
	// mu serializes this shard's local commit cycles (pack → commit →
	// sweep) and its 2PC applies, which take the next height: never
	// that of a local block still staging. 2PC staging and prepare do
	// not take it: mempool holds keep the footprints disjoint.
	mu sync.Mutex
	ob shardObs
}

// Cluster is the sharded deployment: S shards plus the cross-shard
// commit coordinator. Routing reads the shards' chains (Directory).
type Cluster struct {
	cfg    Config
	shards []*Shard
	// xmu serializes cross-shard 2PC rounds: one coordinator at a
	// time, so prepare/decide interleavings across transactions cannot
	// deadlock on holds. Local commits on disjoint shards proceed in
	// parallel regardless.
	xmu sync.Mutex
	// Recovered counts the in-doubt transactions resolved at open.
	Recovered int
}

// Open builds (or reopens) the sharded cluster. With DataDir set, each
// shard recovers its own chain from its WAL; then in-doubt cross-shard
// transactions are driven to their global outcome and each shard's
// nested recovery log is replayed into its pool. Nothing is rebuilt
// for routing: the directory reads the recovered chains.
func Open(cfg Config) (*Cluster, error) {
	cfg.fill()
	c := &Cluster{cfg: cfg}
	c.shards = make([]*Shard, cfg.Shards)
	for i := range c.shards {
		nodeCfg := cfg.Node
		if cfg.DataDir != "" {
			nodeCfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%02d", i))
		}
		if cfg.ObsFor != nil {
			nodeCfg.Obs = cfg.ObsFor(i)
		}
		node, err := server.OpenNode(nodeCfg)
		if err != nil {
			for _, s := range c.shards[:i] {
				s.Node.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh := &Shard{ID: i, Node: node, ob: newShardObs(nodeCfg.Obs)}
		// Nested children go to the shard's own pool; the join hands
		// them on after the seal, so their parent is already homed here.
		node.SetChildSubmitter(func(_ txn.OutputRef, build func() *txn.Transaction) {
			sh.pool.AdmitBatch([]mempool.Tx{build()})
		})
		sh.pool = mempool.New(mempool.Config{
			BatchSize: cfg.MempoolBatch,
			Obs:       nodeCfg.Obs,
			Check:     node.CheckTxBatch,
		})
		c.shards[i] = sh
	}
	if err := c.recover(); err != nil {
		c.Close()
		return nil, err
	}
	for _, sh := range c.shards {
		if sh.Node.State().Height() > 0 { // a fresh shard has no recovery log
			sh.Node.Recover() // not counted in Recovered: that counts 2PC resolutions
		}
		sh.ob.height.Set(sh.Node.State().Height())
	}
	return c, nil
}

// Close releases every shard's storage backend.
func (c *Cluster) Close() error {
	var first error
	for _, sh := range c.shards {
		if sh == nil {
			continue
		}
		if err := sh.Node.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard exposes one shard (for queries, tests, and the ops endpoint).
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Directory exposes the routing directory, a reader of the shards'
// chains.
func (c *Cluster) Directory() Directory { return Directory{c.shards} }

// Submit routes one transaction (SubmitBatch of one): a single-shard
// route admits into the home shard's mempool (committed by that
// shard's next local block); a cross-shard route runs the full
// two-phase commit synchronously and returns its outcome.
func (c *Cluster) Submit(t *txn.Transaction) error {
	return c.SubmitBatch([]*txn.Transaction{t})[t.ID]
}

// SubmitBatch routes a batch: each transaction lands in its home
// shard's admission batch (that shard's CheckTxBatch), and cross-shard transactions run 2PC in submission
// order. Per-transaction verdicts are returned by ID; absent means
// admitted or committed.
func (c *Cluster) SubmitBatch(txs []*txn.Transaction) map[string]error {
	errs := make(map[string]error)
	perShard := make([][]mempool.Tx, len(c.shards))
	var cross []*txn.Transaction
	crossRoute := make(map[string]Route)
	for _, t := range txs {
		r, err := c.RouteOf(t)
		if err != nil {
			errs[t.ID] = err
			continue
		}
		if r.Cross() {
			cross = append(cross, t)
			crossRoute[t.ID] = r
			continue
		}
		perShard[r.Home] = append(perShard[r.Home], t)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *Shard, batch []mempool.Tx) {
			defer wg.Done()
			res := sh.pool.AdmitBatch(batch)
			mu.Lock()
			for id, err := range res.Rejected {
				errs[id] = err
			}
			for id, err := range res.Skipped {
				errs[id] = err
			}
			mu.Unlock()
		}(c.shards[id], batch)
	}
	wg.Wait()
	for _, t := range cross {
		if err := c.commitCross(t, crossRoute[t.ID]); err != nil {
			errs[t.ID] = err
		}
	}
	return errs
}

// CommitLocal packs one local block on shard id from its pending pool
// and commits it through its node (server.Node.CommitNext), with zero
// cross-shard coordination. Returns the transactions committed. Safe
// to call concurrently across shards — the single-shard scaling path.
func (c *Cluster) CommitLocal(id int, maxTxs int) []*txn.Transaction {
	sh := c.shards[id]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	packed := sh.pool.Pack(maxTxs, c.cfg.Node.ParallelWorkers)
	if len(packed) == 0 {
		return nil
	}
	batch := make([]*txn.Transaction, len(packed))
	for i, tx := range packed {
		batch[i] = tx.(*txn.Transaction)
	}
	committed, _ := sh.Node.CommitNext(batch)
	sh.pool.RemoveCommitted(asPoolTxs(committed))
	sh.ob.localBlocks.Inc()
	sh.ob.height.Set(sh.Node.State().Height())
	return committed
}

// DrainLocal commits local blocks on every shard in parallel until all
// pools are empty — the test/bench settle step.
func (c *Cluster) DrainLocal(maxTxs int) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id := range c.shards {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				n := len(c.CommitLocal(id, maxTxs))
				if n == 0 {
					return
				}
				mu.Lock()
				total += n
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	return total
}

func asPoolTxs(txs []*txn.Transaction) []mempool.Tx {
	out := make([]mempool.Tx, len(txs))
	for i, t := range txs {
		out[i] = t
	}
	return out
}
