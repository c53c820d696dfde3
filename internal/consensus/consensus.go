// Package consensus implements a Tendermint-style BFT consensus engine
// over the simulated network, standing in for the Tendermint service of
// the BigchainDB/SmartchainDB stack. Each validator keeps a mempool fed
// by gossip, proposals rotate round-robin, and a block commits once
// more than 2/3 of the validators precommit it. The engine supports the
// blockchain pipelining technique the paper credits for BigchainDB's
// scalability — voting on block h+1 before block h is finalized — as a
// configuration toggle so the ablation benchmarks can quantify it.
//
// Fault model: crash faults only (no equivocation), matching the
// paper's failure scenarios: progress requires more than 2/3 of the
// voting power online, and a crashed node rejoins with its state
// intact.
package consensus

import (
	"fmt"
	"time"

	"smartchaindb/internal/mempool"
	"smartchaindb/internal/netsim"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/simclock"
)

// Tx is the unit of consensus: anything with a stable unique hash.
type Tx interface{ Hash() string }

// App is the state machine replicated by consensus — the ABCI-like
// surface of the SmartchainDB server (CheckTx / DeliverTx / Commit in
// Figure 4). One App instance runs per validator node. It is the only
// interface the engine drives; an app that has nothing to say about
// batching, verdict reuse, overlapped commits or metrics implements
// MinimalApp and is lifted by Lift.
type App interface {
	// CheckTxBatch validates one admission batch against committed
	// state (schema + semantic validation, the first and second
	// validations of Fig. 4), returning the errors keyed by transaction
	// hash; transactions absent from the result are admitted. The
	// node's receiver path accumulates arrivals while its execution
	// resource is busy and admits them in batches; an app may validate
	// a batch internally in parallel (the SmartchainDB app dispatches
	// conflict groups to a worker pool), and per-transaction verdicts
	// mean one bad transaction never poisons its batch.
	CheckTxBatch(txs []Tx) map[string]error
	// ReceiverBatchTime is the simulated time the receiver node spends
	// on one batched admission ("Prepare and Sign" + semantic
	// validation): the makespan of the batch's conflict groups on the
	// admission workers, or the per-transaction sum.
	ReceiverBatchTime(txs []Tx) time.Duration
	// ValidateBlockFresh re-validates a proposed block before the node
	// prevotes it (the DeliverTx-stage checks) and returns the invalid
	// transactions; an empty result means the block is acceptable.
	// Proposers also use it to filter what they packed. fresh is
	// aligned with txs: fresh[i] marks a transaction whose
	// CheckTx-stage verdict was computed against committed state alone
	// and has not been conflicted by any commit since (the pool tracks
	// this through the transactions' declarative footprints). An app
	// may skip the semantic condition sets for fresh transactions and
	// re-run only the structural intra-block checks, which closes the
	// propose-time O(pending) re-validation gap; soundness rests on
	// the declarative contract that a transaction's validity depends
	// only on the state keys in its footprint. An app may also
	// validate the batch internally in parallel; the engine only
	// requires that the returned set be deterministic in the block's
	// transaction order, so every honest validator votes identically.
	ValidateBlockFresh(txs []Tx, fresh []bool) []Tx
	// ValidationTimeFresh is the simulated time a validator spends on
	// ValidateBlockFresh before voting: fresh transactions cost
	// nothing, so a mostly-fresh block votes in the time of its stale
	// remainder.
	ValidationTimeFresh(txs []Tx, fresh []bool) time.Duration
	// CommitStart begins applying the decided block and returns a join
	// that blocks until the block is fully sealed and runs the app's
	// post-commit hooks (e.g. the nested-transaction pipeline). The
	// engine calls CommitStart in height order and the join on the
	// simulation thread once the block's CommitTime has elapsed on the
	// resource Config.CommitDepth selects; the join must be idempotent.
	// Between the two the block may apply in the background, and the
	// app is responsible for its own safety: reads that touch an
	// unsealed block's write footprint must wait for the seal (the
	// SmartchainDB app orders them through a commit fence), and commits
	// must seal in height order (CommitStart(h+1) is the app's place to
	// wait out block h).
	CommitStart(height int64, txs []Tx) (join func())
	// CommitTime is the simulated duration of the block's commit — the
	// commit-stage counterpart of ValidationTimeFresh.
	CommitTime(txs []Tx) time.Duration
	// Obs returns the app's observability registry (nil for the no-op
	// build). The engine wires the node's mempool to it (admission
	// counters, stage dwell tracing) and stamps client arrivals into
	// its stage tracer, so a transaction's recv dwell — arrival at the
	// receiver to admission-batch pickup — lands on the same trace its
	// mempool, validation, and commit stages do.
	Obs() *obs.Registry
}

// MinimalApp is the five-method state machine an application can get
// away with — the frozen ETH-SC baseline and the engine's own test
// apps: one transaction checked at a time, no verdict reuse, a
// synchronous Commit that is free in virtual time, no metrics.
type MinimalApp interface {
	// CheckTx admits a transaction to the mempool.
	CheckTx(tx Tx) error
	// ValidateBlock returns the block's invalid transactions.
	ValidateBlock(txs []Tx) []Tx
	// ReceiverTime is the simulated receiver cost of one transaction.
	ReceiverTime(tx Tx) time.Duration
	// ValidationTime is the simulated cost of ValidateBlock.
	ValidationTime(txs []Tx) time.Duration
	// Commit applies a decided block to local state.
	Commit(height int64, txs []Tx)
}

// Lift adapts a MinimalApp to App with the trivial defaults: a batch
// is checked (and priced) transaction by transaction, freshness flags
// are ignored, the block is applied inside CommitStart with a no-op
// join and zero CommitTime, and there is no registry.
func Lift(m MinimalApp) App { return lifted{m} }

type lifted struct{ MinimalApp }

func (l lifted) CheckTxBatch(txs []Tx) map[string]error {
	var errs map[string]error
	for _, tx := range txs {
		if err := l.CheckTx(tx); err != nil {
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[tx.Hash()] = err
		}
	}
	return errs
}

func (l lifted) ReceiverBatchTime(txs []Tx) time.Duration {
	var d time.Duration
	for _, tx := range txs {
		d += l.ReceiverTime(tx)
	}
	return d
}

func (l lifted) ValidateBlockFresh(txs []Tx, _ []bool) []Tx { return l.ValidateBlock(txs) }

func (l lifted) ValidationTimeFresh(txs []Tx, _ []bool) time.Duration {
	return l.ValidationTime(txs)
}

func (l lifted) CommitStart(height int64, txs []Tx) (join func()) {
	l.Commit(height, txs)
	return func() {}
}

func (lifted) CommitTime([]Tx) time.Duration { return 0 }

func (lifted) Obs() *obs.Registry { return nil }

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the number of validators.
	Nodes int
	// BlockInterval paces proposals: a proposer waits this long after
	// the previous proposal before cutting the next block.
	BlockInterval time.Duration
	// ProposeTimeout triggers a round change when a height stalls.
	ProposeTimeout time.Duration
	// MaxBlockTxs caps transactions per block (ignored when Packer is
	// set).
	MaxBlockTxs int
	// Packer optionally selects which pending transactions form the
	// next block (e.g. a gas-limited packer for the baseline chain).
	Packer func(pending []Tx) []Tx
	// Pipelined enables voting on block h+1 before h is finalized.
	Pipelined bool
	// CommitDepth says where a decided block's commit runs. Depth 1
	// serializes: the block's CommitTime is charged to the node's
	// execution resource and its join runs at once, so the next
	// height's validation and admission queue behind it. At depth 2
	// the block occupies the node's one commit slot instead, so in
	// virtual time validation of h+1 proceeds while block h applies;
	// a block waits for the slot, so joins run in height order. Zero
	// picks 1; there is one slot, so the engine reads anything above 2
	// as 2 (the SmartchainDB app refuses it at open).
	CommitDepth int
	// Latency is the network latency model.
	Latency netsim.LatencyModel
	// RetryTimeout re-submits a client transaction that has neither
	// committed nor been rejected — the driver-side re-trigger of
	// §4.2.1 that rescues transactions lost to a crashing receiver.
	RetryTimeout time.Duration
	// Mempool configures each node's footprint-indexed admission pool:
	// batch size, packing policy, and the footprint function. The zero value keeps the seed behaviour
	// (FIFO packing, declarative footprints for SmartchainDB
	// transactions, independent footprints for foreign ones). The
	// semantic Check hook is wired per node to its App and must stay
	// nil here.
	Mempool mempool.Config
	// Seed drives all randomness.
	Seed int64
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = 100 * time.Millisecond
	}
	if c.ProposeTimeout <= 0 {
		c.ProposeTimeout = 10 * c.BlockInterval
	}
	if c.MaxBlockTxs <= 0 {
		c.MaxBlockTxs = 128
	}
	if c.Latency == nil {
		c.Latency = netsim.UniformLatency{Base: 5 * time.Millisecond, Jitter: 5 * time.Millisecond}
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 2 * time.Second
	}
	if c.CommitDepth <= 0 {
		c.CommitDepth = 1
	}
	// Mempool defaults (BatchSize, the ForTransaction
	// footprint function) apply inside mempool.New.
}

// Quorum returns the vote threshold: more than 2/3 of n validators.
func Quorum(n int) int { return 2*n/3 + 1 }

// Cluster wires n validator nodes, their apps, and the network.
type Cluster struct {
	cfg   Config
	sched *simclock.Scheduler
	net   *netsim.Network
	nodes []*node

	submitTimes map[string]time.Duration
	commitTimes map[string]time.Duration
	rejected    map[string]error
	onCommit    func(tx Tx, at time.Duration)
}

// NewCluster builds a cluster; appFor supplies each node's App.
func NewCluster(cfg Config, appFor func(node int) App) *Cluster {
	cfg.fill()
	c := &Cluster{
		cfg:         cfg,
		sched:       simclock.NewScheduler(cfg.Seed),
		submitTimes: make(map[string]time.Duration),
		commitTimes: make(map[string]time.Duration),
		rejected:    make(map[string]error),
	}
	c.net = netsim.New(c.sched, cfg.Latency)
	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(c, netsim.NodeID(i), appFor(i))
		c.nodes = append(c.nodes, n)
		id := n.id
		c.net.AddNode(id, func(msg netsim.Message) { c.nodes[id].handle(msg) })
	}
	// Arm every node's initial round timer.
	for _, n := range c.nodes {
		n.enterHeight(1)
	}
	return c
}

// Sched exposes the virtual clock.
func (c *Cluster) Sched() *simclock.Scheduler { return c.sched }

// Net exposes the simulated network (for crash/partition injection).
func (c *Cluster) Net() *netsim.Network { return c.net }

// OnCommit registers a hook invoked the first time each transaction
// commits on any node.
func (c *Cluster) OnCommit(fn func(tx Tx, at time.Duration)) { c.onCommit = fn }

// SubmitAt schedules a client submission of tx at virtual time at. The
// transaction lands on a randomly chosen receiver node — the random
// receiver selection of Figure 4 — which validates it, then gossips it
// to the other validators. If it neither commits nor is rejected
// within the retry timeout (e.g. the receiver crashed mid-validation),
// the client re-triggers it toward another node; resubmission is safe
// because transaction identity is deterministic.
func (c *Cluster) SubmitAt(at time.Duration, tx Tx) {
	c.sched.At(at, func() {
		if _, dup := c.submitTimes[tx.Hash()]; dup {
			return
		}
		c.submitTimes[tx.Hash()] = c.sched.Now()
		c.deliverToReceiver(tx, 0)
	})
}

// maxClientRetries bounds re-triggering so a permanently stalled
// cluster cannot spin the scheduler forever.
const maxClientRetries = 200

func (c *Cluster) deliverToReceiver(tx Tx, attempt int) {
	if receiver := c.aliveReceiver(); receiver != nil {
		receiver.receiveClientTx(tx)
	} else if attempt >= maxClientRetries {
		c.rejected[tx.Hash()] = fmt.Errorf("consensus: no receiver node alive")
		return
	}
	c.sched.After(c.cfg.RetryTimeout, func() {
		hash := tx.Hash()
		if _, done := c.commitTimes[hash]; done {
			return
		}
		if _, rej := c.rejected[hash]; rej {
			return
		}
		if attempt >= maxClientRetries {
			return
		}
		c.deliverToReceiver(tx, attempt+1)
	})
}

// aliveReceiver picks a random non-crashed node.
func (c *Cluster) aliveReceiver() *node {
	alive := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !c.net.IsDown(n.id) {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	return alive[c.sched.Rand().Intn(len(alive))]
}

// Crash takes validator i offline.
func (c *Cluster) Crash(i int) { c.net.Crash(netsim.NodeID(i)) }

// Restart brings validator i back online and re-arms its round timer so
// it rejoins consensus.
func (c *Cluster) Restart(i int) {
	c.net.Restart(netsim.NodeID(i))
	n := c.nodes[i]
	c.sched.After(0, func() { n.enterHeight(n.height) })
}

// Node returns validator i's node handle (read-only use in tests).
func (c *Cluster) Node(i int) *node { return c.nodes[i] }

// RunUntil advances the simulation to virtual time t.
func (c *Cluster) RunUntil(t time.Duration) { c.sched.RunUntil(t) }

// RunUntilCommitted advances until want transactions have committed or
// the virtual clock passes deadline. It reports the committed count.
func (c *Cluster) RunUntilCommitted(want int, deadline time.Duration) int {
	for len(c.commitTimes) < want && c.sched.Now() < deadline {
		if !c.sched.Step() {
			break
		}
	}
	return len(c.commitTimes)
}

// CommitTime reports when a transaction first committed on any node.
func (c *Cluster) CommitTime(hash string) (time.Duration, bool) {
	t, ok := c.commitTimes[hash]
	return t, ok
}

// SubmitTime reports when a transaction was submitted.
func (c *Cluster) SubmitTime(hash string) (time.Duration, bool) {
	t, ok := c.submitTimes[hash]
	return t, ok
}

// Latency reports commit - submit for one transaction.
func (c *Cluster) Latency(hash string) (time.Duration, bool) {
	s, okS := c.submitTimes[hash]
	e, okE := c.commitTimes[hash]
	if !okS || !okE {
		return 0, false
	}
	return e - s, true
}

// Rejected reports the admission error for a transaction, if any.
func (c *Cluster) Rejected(hash string) (error, bool) {
	err, ok := c.rejected[hash]
	return err, ok
}

// CommittedCount returns the number of distinct committed transactions.
func (c *Cluster) CommittedCount() int { return len(c.commitTimes) }

// Summary aggregates cluster-wide latency/throughput statistics.
type Summary struct {
	Submitted   int
	Committed   int
	Rejected    int
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// Throughput is committed transactions per second of virtual time,
	// measured from first submission to last commit (the paper's
	// definition in §5.1.4).
	Throughput float64
}

// Summarize computes the run summary.
func (c *Cluster) Summarize() Summary {
	s := Summary{Submitted: len(c.submitTimes), Committed: len(c.commitTimes), Rejected: len(c.rejected)}
	if s.Committed == 0 {
		return s
	}
	var total time.Duration
	var firstSubmit, lastCommit time.Duration
	first := true
	for h, ct := range c.commitTimes {
		st := c.submitTimes[h]
		lat := ct - st
		total += lat
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
		if first || st < firstSubmit {
			firstSubmit = st
		}
		if ct > lastCommit {
			lastCommit = ct
		}
		first = false
	}
	s.MeanLatency = total / time.Duration(s.Committed)
	if window := lastCommit - firstSubmit; window > 0 {
		s.Throughput = float64(s.Committed) / window.Seconds()
	}
	return s
}

func (c *Cluster) recordCommit(txs []Tx) {
	now := c.sched.Now()
	for _, tx := range txs {
		if _, dup := c.commitTimes[tx.Hash()]; dup {
			continue
		}
		c.commitTimes[tx.Hash()] = now
		if c.onCommit != nil {
			c.onCommit(tx, now)
		}
	}
}
