// Package server implements the SmartchainDB server node: the
// transaction life cycle of Figure 4. Incoming payloads pass schema
// validation (Algorithm 1) and semantic validation (Algorithms 2–3) on
// a receiver node, are re-checked on every validator via CheckTx,
// validated a third time at the DeliverTx stage, and finally committed
// to the node's MongoDB-style document store. Committing a nested
// ACCEPT_BID triggers the non-locking child pipeline of §4.2.
package server

import (
	"fmt"
	"sync"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/nested"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
	"smartchaindb/internal/validate"
)

// Config parameterizes one server node.
type Config struct {
	// ReservedSeed derives the shared system accounts (ESCROW, ADMIN);
	// every node in a cluster must use the same seed.
	ReservedSeed int64
	// ReceiverTime is the simulated wall time the receiver node spends
	// validating one incoming transaction. SmartchainDB validation cost
	// is dominated by fixed-cost index lookups, so it is independent of
	// payload size — the property behind the flat curves of Figure 7.
	ReceiverTime time.Duration
	// ValidationTimePerTx is the simulated per-transaction cost of the
	// DeliverTx-stage block validation.
	ValidationTimePerTx time.Duration
	// ParallelWorkers is the worker count of the DeliverTx-stage block
	// check: a block's batch is partitioned into conflict groups from
	// the transactions' declarative footprints and the groups validate
	// on this many workers (values below 2: one after another on the
	// caller's goroutine). The valid/invalid partition is identical at
	// every count; only the validation latency changes.
	ParallelWorkers int
	// AdmissionWorkers does the same for the CheckTx-stage receiver
	// path: incoming transactions are admitted in batches, and one
	// batch's signatures and semantic validation run on this many
	// workers, with per-transaction verdicts.
	AdmissionWorkers int
	// MempoolBatch caps one admission batch (default 64). Arrivals
	// while the receiver is busy accumulate up to this size into the
	// next batch.
	MempoolBatch int
	// CommitWorkers is the ledger block commit's stage parallelism:
	// the block's conflict groups stage on this many workers (values
	// below 2: one after another) and seal in block order as one WAL
	// group. State bytes are identical at every count.
	CommitWorkers int
	// CommitDepth says where a decided block's commit runs. 1 (the
	// zero value): the consensus engine joins the commit at once and
	// charges it to the execution resource, so validation of h+1
	// starts only after block h seals. 2: the commit runs behind the
	// next height's validation — reads at h+1 that touch h's write
	// footprint wait on the node's commit fence, disjoint ones
	// proceed. At most one block is ever in flight, so state bytes are
	// identical either way; on a bare Node (no consensus engine) the
	// two values are one program, since the caller decides when to
	// join. Wired through consensus.Config.CommitDepth by the cluster.
	// OpenNode refuses any other value.
	CommitDepth int
	// CommitTimePerTx is the simulated per-transaction cost of the
	// commit stage in the consensus engine (charged to the execution
	// resource at depth 1, to the commit slot at depth 2; zero keeps
	// commits free in virtual time).
	CommitTimePerTx time.Duration
	// DataDir selects the persistent storage engine: the node's chain
	// state lives in a write-ahead log plus segment files under this
	// directory, every committed block lands as one atomic fsynced WAL
	// batch, and a restarted node recovers to its exact committed
	// height. Empty keeps the in-memory backend (state dies with the
	// process).
	DataDir string
	// NoSync keeps the disk backend's files but skips fsync — the
	// crash-consistency formats without the per-block flush cost.
	// Only meaningful with DataDir set.
	NoSync bool
	// Obs attaches an observability registry to every layer of the
	// node: ledger commit histograms, docstore planner counters,
	// storage WAL/MVCC metrics, the validation fence counters, and the
	// per-transaction stage tracer. Nil (the default) keeps the no-op
	// build — instrumentation compiles in but every record is a
	// nil-receiver no-op.
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.ReceiverTime <= 0 {
		c.ReceiverTime = 5 * time.Millisecond
	}
	if c.ValidationTimePerTx <= 0 {
		c.ValidationTimePerTx = time.Millisecond
	}
	if c.CommitDepth <= 0 {
		c.CommitDepth = 1
	}
}

// CheckCommitDepth is OpenNode's check of Config.CommitDepth — the one
// place the legal values live — exported so command-line front ends
// can refuse a flag before building anything. Zero and below mean 1.
func CheckCommitDepth(d int) error {
	if d > 2 {
		return fmt.Errorf("server: Config.CommitDepth is %d, want 1 (join each commit at once) or 2 (commit behind the next height's validation)", d)
	}
	return nil
}

// Node is one SmartchainDB validator.
type Node struct {
	cfg      Config
	schemas  *schema.Registry
	types    *txtype.Registry
	state    *ledger.State
	reserved *keys.Reserved
	nested   *nested.Engine
	sched    *parallel.Scheduler
	ob       nodeObs

	// baseHeight is the ledger height recovered at open; consensus
	// heights (always starting at 1 per run) are committed relative
	// to it so a restarted node extends its chain instead of
	// overwriting historical block records.
	baseHeight int64

	// One-entry conflict-plan memo: the consensus engine asks for a
	// block's ValidationTime and then validates the same batch, so
	// the plan built for the first call is reused by the second.
	planMu  sync.Mutex
	planTxs []*txn.Transaction
	plan    *parallel.Plan

	// fence orders validation against the one in-flight block commit
	// (parallel.PipelineFence has the contract): validation whose
	// footprint intersects the block's published writes waits for its
	// seal, and CommitStart parks until the previous block has sealed.
	// Plain reads — queries, analytics, fingerprints — take no fence:
	// they run on MVCC snapshots of the last sealed block.
	fence parallel.PipelineFence

	submitChild nested.Submitter
}

// NewNode builds a node with fresh state and the native type registry.
// It panics if cfg.DataDir is set but cannot be opened; use OpenNode
// to handle storage errors.
func NewNode(cfg Config) *Node {
	n, err := OpenNode(cfg)
	if err != nil {
		// invariant: NewNode is the must-constructor; a caller with a DataDir or a depth to get wrong uses OpenNode.
		panic(fmt.Sprintf("server: open node: %v", err))
	}
	return n
}

// OpenNode builds a node, opening (or recovering) the persistent
// storage engine when cfg.DataDir is set. A node reopened over an
// existing data directory resumes from its last committed block.
func OpenNode(cfg Config) (*Node, error) {
	cfg.fill()
	if err := CheckCommitDepth(cfg.CommitDepth); err != nil {
		return nil, err
	}
	state, err := openState(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		schemas:  schema.MustNewRegistry(),
		types:    validate.NewRegistry(),
		state:    state,
		reserved: keys.NewReservedWithDefaults(cfg.ReservedSeed),
		sched:    &parallel.Scheduler{Workers: cfg.ParallelWorkers},
		ob:       newNodeObs(cfg.Obs),
	}
	n.submitChild = func(_ txn.OutputRef, build func() *txn.Transaction) {
		// Standalone default: apply children locally and synchronously.
		_ = n.Apply(build())
	}
	// The simulated consensus engine numbers blocks from 1 in every
	// process; a node recovered from disk keeps counting the ledger
	// from where it stopped.
	n.baseHeight = state.Height()
	n.nested = nested.NewEngine(n.state, n.reserved.Escrow(), func(out txn.OutputRef, build func() *txn.Transaction) {
		n.submitChild(out, build)
	})
	return n, nil
}

// openState builds the node's chain state over the configured backend.
func openState(cfg Config) (*ledger.State, error) {
	var state *ledger.State
	if cfg.DataDir == "" {
		state = ledger.NewState()
	} else {
		eng, err := storage.Open(cfg.DataDir, storage.Options{NoSync: cfg.NoSync})
		if err != nil {
			return nil, err
		}
		state = ledger.NewStateWith(eng)
	}
	state.SetCommitWorkers(cfg.CommitWorkers)
	if cfg.Obs != nil {
		state.SetObs(cfg.Obs)
	}
	return state, nil
}

// DrainCommits blocks until no asynchronous block commit is in
// flight. Callers reading state-wide snapshots (fingerprints, dumps)
// from outside the engine thread drain first: a commit whose
// CommitStart ran but whose applier has not yet taken the state lock
// would otherwise be invisible to the snapshot.
func (n *Node) DrainCommits() { n.fence.Drain() }

// Close waits for any in-flight asynchronous commit to seal, then
// flushes and releases the node's storage backend.
func (n *Node) Close() error {
	n.fence.Drain()
	return n.state.Close()
}

// SetChildSubmitter routes child transactions produced by the nested
// engine (e.g. into a consensus cluster instead of local apply).
func (n *Node) SetChildSubmitter(s nested.Submitter) { n.submitChild = s }

// State exposes the node's chain state (for queries and tests).
func (n *Node) State() *ledger.State { return n.state }

// Reserved exposes the node's reserved-account registry.
func (n *Node) Reserved() *keys.Reserved { return n.reserved }

// Escrow returns the shared escrow system account.
func (n *Node) Escrow() *keys.KeyPair { return n.reserved.Escrow() }

// Types exposes the declarative type registry so applications can
// register additional transaction types.
func (n *Node) Types() *txtype.Registry { return n.types }

// Schemas exposes the structural schema registry.
func (n *Node) Schemas() *schema.Registry { return n.schemas }

// ValidateTx runs the receiver-node validation of Figure 4: schema
// first (Algorithm 1), then the semantic condition set for the
// operation against committed state. If an asynchronous block commit
// is in flight and this transaction's footprint touches its writes,
// the check waits for the seal; disjoint transactions validate
// concurrently with the appliers. The condition set then runs against
// a pinned snapshot of the newest sealed block, so a commit landing
// mid-validation cannot flip individual reads under the verdict.
func (n *Node) ValidateTx(t *txn.Transaction) error {
	if err := n.schemas.ValidateTx(t); err != nil {
		return err
	}
	n.waitFence([]txn.Footprint{t.Footprint()})
	ctx := &txtype.Context{State: n.state.View(), Reserved: n.reserved}
	return n.types.Validate(ctx, t)
}

// Apply validates and commits a transaction synchronously against this
// single node — the standalone (consensus-free) mode used by examples
// and tests — as a one-transaction block at the next height
// (CommitNext). Nested children are applied recursively, each its own
// block.
func (n *Node) Apply(t *txn.Transaction) error {
	if err := n.ValidateTx(t); err != nil {
		return err
	}
	_, skipped := n.CommitNext([]*txn.Transaction{t})
	return skipped[t.ID]
}

// Recover resubmits, after a crash, every nested child the node owes,
// each once, and returns how many: the pending children of every
// PENDING recovery record. The seal of a block writes the records it
// changes in the block's own WAL group, so whatever blocks sealed
// before the crash, with their joins run or not, the log names exactly
// the children not yet committed.
func (n *Node) Recover() int { return n.nested.Recover() }

// --- consensus.App implementation -----------------------------------

// CheckTxBatch admits one batch to the mempool with per-transaction
// verdicts: schema validation per transaction (Algorithm 1, cheap and
// independent), then the semantic condition sets dispatched over the
// conflict-group scheduler on AdmissionWorkers workers. Intra-batch
// conflicts are caught the same way the DeliverTx stage catches
// intra-block ones: the first claimant of an output wins, in batch
// order, so the verdict set is deterministic.
func (n *Node) CheckTxBatch(txs []consensus.Tx) map[string]error {
	errs := make(map[string]error)
	batch := make([]*txn.Transaction, 0, len(txs))
	for _, tx := range txs {
		t, ok := tx.(*txn.Transaction)
		if !ok {
			errs[tx.Hash()] = fmt.Errorf("server: unexpected tx type %T", tx)
			continue
		}
		if err := n.schemas.ValidateTx(t); err != nil {
			errs[t.ID] = err
			continue
		}
		batch = append(batch, t)
	}
	// Verify the batch's fulfillments up front, one transaction per
	// task on the admission workers; within a transaction identical
	// (pub, sig) pairs — a multi-input transaction signs its one
	// payload once per input — cost a single ed25519 check. The
	// verdicts are deliberately NOT authoritative: successes are
	// memoized on the transactions so the condition sets below serve
	// the signature condition in O(1), while a failed transaction
	// simply stays cold and re-verifies inside its condition set,
	// failing with the exact error — including the condition name
	// and ordering relative to structural conditions — the per-tx
	// path produces. Correctness never depends on this stage. What
	// PrecheckBatch proved while the batch waited is not checked again,
	// and is counted here as the work it would have been.
	_, stats := txn.VerifyFulfillmentsBatch(batch, n.cfg.AdmissionWorkers)
	n.ob.sigTasks.Add(uint64(stats.Sig.Tasks))
	n.ob.sigDedup.Add(uint64(stats.Sig.DedupHits))
	n.ob.sigReused.Add(uint64(stats.Reused))
	// The fence reads the plan's footprints, so the batch's footprints
	// are gathered once, not once per consumer.
	plan := parallel.BuildPlan(batch)
	n.waitFence(plan.Footprints)
	// One snapshot for the whole batch: every worker's condition set
	// reads the same sealed height (the one the fence wait just
	// guaranteed covers the batch's footprints), so the verdict set is
	// deterministic even with commits racing in the background.
	sched := &parallel.Scheduler{Workers: n.cfg.AdmissionWorkers}
	res := sched.ValidateBatch(n.types, n.state.View(), n.reserved, batch, plan, nil)
	for id, err := range res.Errs {
		errs[id] = err
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

// ReceiverBatchTime reports the simulated receiver cost of one batched
// admission: the makespan of the batch's conflict groups on the
// admission pool — the simulated counterpart of the wall-clock speedup
// CheckTxBatch gets from the scheduler. On one worker it is the
// per-transaction sum, identical to admitting one at a time.
func (n *Node) ReceiverBatchTime(txs []consensus.Tx) time.Duration {
	span := parallel.BuildPlan(asTransactions(txs)).Makespan(n.cfg.AdmissionWorkers)
	return time.Duration(span) * n.cfg.ReceiverTime
}

// ValidateBlock is ValidateBlockFresh with no verdict to reuse: every
// transaction's semantic condition set runs.
func (n *Node) ValidateBlock(txs []consensus.Tx) []consensus.Tx {
	return n.ValidateBlockFresh(txs, nil)
}

// ValidateBlockFresh re-validates a proposed block with intra-block
// conflict detection (the CurrentTxs context of Algorithms 2–3) and
// returns the transactions that must not be included. The batch is
// validated by the dependency-aware scheduler on ParallelWorkers
// workers; transactions in one conflict group keep block order, so the
// result is identical to a block-order pass.
// Transactions flagged fresh skip their semantic condition sets —
// their admission verdict was proven against committed state and
// nothing committed since has written into their footprints — and
// re-run only the structural duplicate and intra-block double-spend
// checks. A nil fresh re-validates everything. Either way the block
// first waits out any in-flight commit whose writes its footprints
// touch.
func (n *Node) ValidateBlockFresh(txs []consensus.Tx, fresh []bool) []consensus.Tx {
	batch, freshBatch := asTransactionsFresh(txs, fresh)
	plan := n.planFor(batch)
	fenceD := n.waitFence(plan.Footprints)
	if n.ob.tracer != nil {
		n.ob.tracer.ObserveEach(n.batchIDs(batch), obs.StageFenceWait, fenceD)
	}
	validateT := time.Now()
	res := n.sched.ValidateBatch(n.types, n.state.View(), n.reserved, batch, plan, freshBatch)
	n.observeValidation(batch, res, time.Since(validateT))
	rejected := make(map[*txn.Transaction]bool, len(res.Invalid))
	for _, t := range res.Invalid {
		rejected[t] = true
	}
	var invalid []consensus.Tx
	for _, tx := range txs {
		t, ok := tx.(*txn.Transaction)
		if !ok || rejected[t] {
			invalid = append(invalid, tx)
		}
	}
	return invalid
}

// ValidationTimeFresh reports the simulated block validation cost: the
// makespan of scheduling the block's conflict groups on the worker
// pool — the simulated counterpart of the wall-clock speedup; on one
// worker, the batch size. Fresh transactions cost nothing (their
// semantic checks are skipped), so the block's cost is the weighted
// makespan of its stale remainder.
func (n *Node) ValidationTimeFresh(txs []consensus.Tx, fresh []bool) time.Duration {
	batch, freshBatch := asTransactionsFresh(txs, fresh)
	weight := func(i int) int {
		if i < len(freshBatch) && freshBatch[i] {
			return 0
		}
		return 1
	}
	span := n.planFor(batch).MakespanWeighted(n.cfg.ParallelWorkers, weight)
	return time.Duration(span) * n.cfg.ValidationTimePerTx
}

// planFor returns the conflict plan for a batch, reusing the last
// computed one when the batch holds the same transactions.
func (n *Node) planFor(batch []*txn.Transaction) *parallel.Plan {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	if n.plan != nil && len(batch) == len(n.planTxs) {
		same := true
		for i := range batch {
			if batch[i] != n.planTxs[i] {
				same = false
				break
			}
		}
		if same {
			return n.plan
		}
	}
	n.planTxs = append(n.planTxs[:0], batch...)
	n.plan = parallel.BuildPlan(batch)
	return n.plan
}

// asTransactions filters the consensus batch down to the SmartchainDB
// transactions it carries; foreign entries are handled by the callers.
func asTransactions(txs []consensus.Tx) []*txn.Transaction {
	batch, _ := asTransactionsFresh(txs, nil)
	return batch
}

// asTransactionsFresh is asTransactions keeping the freshness flags
// aligned with the filtered batch. A nil fresh yields a nil flag
// slice (validate everything).
func asTransactionsFresh(txs []consensus.Tx, fresh []bool) ([]*txn.Transaction, []bool) {
	batch := make([]*txn.Transaction, 0, len(txs))
	var flags []bool
	if fresh != nil {
		flags = make([]bool, 0, len(txs))
	}
	for i, tx := range txs {
		t, ok := tx.(*txn.Transaction)
		if !ok {
			continue
		}
		batch = append(batch, t)
		if fresh != nil {
			flags = append(flags, i < len(fresh) && fresh[i])
		}
	}
	return batch, flags
}

// CommitStart applies a decided block at the consensus height, counted
// on from the height the node recovered at open, through commit below
// and returns the join. Per-transaction commit failures indicate
// duplicates delivered through catch-up, which are safe to skip.
func (n *Node) CommitStart(height int64, txs []consensus.Tx) (join func()) {
	joinBlock := n.commit(n.baseHeight+height, asTransactions(txs))
	return func() { joinBlock() }
}

// HandsOn reports whether the join of a block of txs hands anything
// on: whether a transaction in it owes nested children
// (nested.OwesChildren). The engine runs the join of any other block
// when it next needs the node, not at the block's instant.
func (n *Node) HandsOn(txs []consensus.Tx) bool {
	for _, tx := range txs {
		if t, ok := tx.(*txn.Transaction); ok && nested.OwesChildren(t.Operation) {
			return true
		}
	}
	return false
}

// PrecheckBatch starts the state-free checks of an admission batch —
// each transaction's ID and fulfillments — on AdmissionWorkers workers
// beside the simulation (txn.VerifyFulfillmentsEarly) and returns a
// wait for them. What they prove is memoized on the shared
// transactions, so the CheckTxBatch that follows verifies only what
// they did not prove, and counts each transaction once, as it would
// have without them; every check that reads state stays there.
func (n *Node) PrecheckBatch(txs []consensus.Tx) (wait func()) {
	batch := asTransactions(txs)
	if len(batch) == 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		txn.VerifyFulfillmentsEarly(batch, n.cfg.AdmissionWorkers)
	}()
	return func() { <-done }
}

// CommitNext commits batch as the block after the last one sealed, joined
// at once, and returns what committed, in block order, and what the
// stage skipped, with each one's error. It is the entry for a node no
// consensus engine drives: a standalone node's Apply, a shard's local
// block. Callers make one call at a time, never beside CommitStart.
func (n *Node) CommitNext(batch []*txn.Transaction) (committed []*txn.Transaction, skipped map[string]error) {
	n.fence.Drain()
	return n.commit(n.state.Height()+1, batch)()
}

// commit is the one body behind CommitStart and CommitNext — one atomic
// WAL group per block. It admits block h — parking while the previous
// block is still in flight, then publishing its write footprint on the
// commit fence — stages and seals it in the background, and returns a
// join. Validation of the next height proceeds meanwhile; reads into
// the unsealed block's writes wait on the fence, disjoint reads run
// concurrently with the applier. A storage failure is fatal. The join
// waits for the seal, hands the children of each committed ACCEPT_BID,
// as its sealed recovery record names them, to the child submitter in
// block order on the caller's thread (never from the background
// goroutine), once, and reports the seal's outcome.
func (n *Node) commit(h int64, batch []*txn.Transaction) (join func() ([]*txn.Transaction, map[string]error)) {
	// One plan serves the whole commit — the one ValidateBlockFresh
	// built, when this is the batch it validated: it supplies the
	// fence's footprints and the stage's conflict groups.
	plan := n.planFor(batch)
	if waited := n.fence.Begin(h, plan.Footprints); waited {
		n.ob.stackWaits.Inc()
	}
	n.ob.inflight.Set(int64(n.fence.InFlight()))
	// The previous block has sealed (Begin returned), so this one
	// stages against exactly the sequential prefix.
	pending := n.state.BeginBlockCommit(h)
	done := make(chan struct{})
	var committed []*txn.Transaction
	var skipped map[string]error
	go func() {
		defer close(done)
		pending.StagePlan(batch, plan)
		var err error
		committed, skipped, err = pending.Seal()
		if err != nil {
			// fail-stop: the backend lost a write mid-block; no later commit may build on this state.
			panic("server: " + ledger.SealFailure(h, err))
		}
		n.fence.End(h)
		n.ob.inflight.Set(int64(n.fence.InFlight()))
	}()
	var once sync.Once
	return func() ([]*txn.Transaction, map[string]error) {
		once.Do(func() {
			<-done
			for _, t := range committed {
				if nested.OwesChildren(t.Operation) {
					n.nested.Submit(t.ID)
				}
			}
		})
		return committed, skipped
	}
}

// CommitTime reports the simulated duration of a block's commit in the
// consensus engine: the makespan of its conflict groups on the commit
// workers (the per-group appliers), in CommitTimePerTx units. Zero
// cost unless configured — commits were first modeled as free, and the
// default keeps that calibration.
func (n *Node) CommitTime(txs []consensus.Tx) time.Duration {
	if n.cfg.CommitTimePerTx <= 0 {
		return 0
	}
	span := n.planFor(asTransactions(txs)).Makespan(n.cfg.CommitWorkers)
	return time.Duration(span) * n.cfg.CommitTimePerTx
}
