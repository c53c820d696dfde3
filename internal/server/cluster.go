package server

import (
	"fmt"
	"path/filepath"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/mempool"
	"smartchaindb/internal/nested"
	"smartchaindb/internal/netsim"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/txn"
)

// ClusterConfig parameterizes a full SmartchainDB validator cluster.
type ClusterConfig struct {
	// Nodes is the validator count (4–32 in the paper's experiments).
	Nodes int
	// Node configures each server node.
	Node Config
	// BlockInterval paces block production.
	BlockInterval time.Duration
	// MaxBlockTxs caps block size.
	MaxBlockTxs int
	// Pipelined enables BigchainDB-style block pipelining.
	Pipelined bool
	// Latency models inter-validator network delay.
	Latency netsim.LatencyModel
	// ChildDelay is the return-queue hop of a nested child: the delay
	// between a validator's commit of the parent and the children that
	// commit derived entering the same validator's mempool.
	ChildDelay time.Duration
	// DataDir, when set, gives every validator a persistent storage
	// engine under DataDir/node-<i>; each node's committed blocks land
	// as atomic WAL batches it recovers from on reopen.
	DataDir string
	// Packing selects the proposers' block-packing policy off the
	// footprint-indexed mempool: "makespan" (the default) balances
	// conflict-group chains across the validators' ParallelWorkers so
	// packed blocks validate with minimal makespan; "fifo" keeps
	// arrival order. With ParallelWorkers < 2 the two are identical.
	Packing string
	// ObsFor, when set, supplies each validator's observability
	// registry (nil entries keep that node's no-op build). Registries
	// are per node — each validator's mempool, stage tracer, and
	// storage metrics record into its own — so Node.Obs overrides,
	// when both are set, apply to every node and are almost never what
	// a cluster wants.
	ObsFor func(node int) *obs.Registry
	// Seed drives all randomness.
	Seed int64
}

// ParsePacking maps a ClusterConfig.Packing string to the mempool
// policy — the one place the valid policy names live. Command-line
// front ends validate flags through it; NewCluster panics on what it
// rejects (programmatic misuse, like NewNode on an unopenable DataDir).
func ParsePacking(s string) (mempool.Policy, error) {
	switch s {
	case "", "makespan":
		return mempool.PackMakespan, nil
	case "fifo":
		return mempool.PackFIFO, nil
	}
	return 0, fmt.Errorf("server: unknown packing policy %q (want fifo or makespan)", s)
}

// Cluster is a simulated SmartchainDB network: n server nodes replicated
// over BFT consensus, with each validator's nested-transaction pipeline
// wired into its own mempool (ChildInjector).
type Cluster struct {
	*consensus.Cluster
	nodes []*Node
	cfg   ClusterConfig
}

// NewCluster builds the cluster. Pipelining defaults on, matching
// BigchainDB.
func NewCluster(cfg ClusterConfig) *Cluster {
	return newCluster(cfg, func(n *Node) consensus.App { return n })
}

// newCluster is NewCluster with app giving the consensus engine each
// validator's App for its node.
func newCluster(cfg ClusterConfig, app func(*Node) consensus.App) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.ChildDelay <= 0 {
		cfg.ChildDelay = time.Millisecond
	}
	cfg.Node.ReservedSeed = cfg.Seed + 1000 // shared by all nodes
	policy, err := ParsePacking(cfg.Packing)
	if err != nil {
		// invariant: front ends validate the name through ParsePacking first; reaching here is programmatic misuse.
		panic(err)
	}
	c := &Cluster{cfg: cfg}
	c.nodes = make([]*Node, cfg.Nodes)
	cc := consensus.NewCluster(consensus.Config{
		Nodes:         cfg.Nodes,
		BlockInterval: cfg.BlockInterval,
		MaxBlockTxs:   cfg.MaxBlockTxs,
		Pipelined:     cfg.Pipelined,
		CommitDepth:   cfg.Node.CommitDepth,
		Latency:       cfg.Latency,
		Mempool: mempool.Config{
			BatchSize:   cfg.Node.MempoolBatch,
			Policy:      policy,
			PackWorkers: cfg.Node.ParallelWorkers,
		},
		Seed: cfg.Seed,
	}, func(i int) consensus.App {
		nodeCfg := cfg.Node
		if cfg.DataDir != "" {
			nodeCfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%02d", i))
		}
		if cfg.ObsFor != nil {
			nodeCfg.Obs = cfg.ObsFor(i)
		}
		n := NewNode(nodeCfg)
		c.nodes[i] = n
		return app(n)
	})
	c.Cluster = cc
	for i, n := range c.nodes {
		n.SetChildSubmitter(c.ChildInjector(i))
	}
	return c
}

// ChildInjector is validator i's nested-child submitter: it injects the
// child owed for each escrow output the validator's commit of a parent
// derived into that validator's own mempool, ChildDelay later. Every
// validator derives the same children from the same committed parent,
// so no child needs a receiver or gossip, and the cluster builds and
// signs each one once: the validators' injectors share the pending
// copy, keyed by the output it spends (consensus.Cluster.InjectAt).
func (c *Cluster) ChildInjector(i int) nested.Submitter {
	return func(out txn.OutputRef, build func() *txn.Transaction) {
		c.InjectAt(c.Sched().Now()+c.cfg.ChildDelay, i, txn.SpendKeyPrefix+out.String(), func() consensus.Tx { return build() })
	}
}

// ServerNode returns validator i's server node.
func (c *Cluster) ServerNode(i int) *Node { return c.nodes[i] }

// Close flushes and releases every validator's storage backend.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Submit schedules a client submission now.
func (c *Cluster) Submit(t *txn.Transaction) { c.SubmitAt(c.Sched().Now(), t) }

// RestartNode brings a crashed validator back and replays its nested
// recovery log, the crash-handling path of §4.2.1.
func (c *Cluster) RestartNode(i int) {
	c.Cluster.Restart(i)
	n := c.nodes[i]
	c.Sched().After(0, func() { n.Recover() })
}
