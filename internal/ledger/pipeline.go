package ledger

import (
	"sync/atomic"
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/parallel"
	"smartchaindb/internal/txn"
)

// Every block commit is one PendingCommit taken through Stage and
// then a seal:
//
//	stage — plan the batch into conflict groups from the transactions'
//	        declarative footprints (parallel.BuildPlan, the same
//	        relation validation and packing use) and let per-group
//	        appliers check their transactions in block order against
//	        committed state plus a group-local overlay, emitting the
//	        write ops each transaction would perform (commit.go);
//	seal  — a single pass applies the staged ops in block order inside
//	        one storage Group, then writes the height record, so the
//	        whole block is one atomic WAL record.
//
// The entry points differ only in who holds what while that happens.
// BeginBlockCommit opens block h — at most one block is open at a
// time — Stage runs off the state lock, so the next height's
// validation reads beside it, and Seal takes the state lock and
// seals: every block a server.Node commits. CommitBlock (ledger.go)
// runs the same Stage and seal body back to back under the state lock,
// for callers without a node; ApplyPrepared (prepare.go) seals a 2PC
// share as a one-transaction block in the same bracket. The WAL
// byte stream, the document iteration order, and the MVCC height
// bracketing are identical either way and at every worker count; the
// differential tests pin this byte for byte against an interleaved
// per-transaction reference.
//
// Cross-group independence is what makes the parallel stage sound: a
// transaction's checks only read keys in its own footprint, and two
// transactions in different groups share no footprint key, so each
// group sees exactly the state a block-order pass would have shown it.
// Because only one block is ever open, Stage reads exactly the
// sequential prefix: every earlier block has sealed.

// SetCommitWorkers sets how many per-conflict-group appliers the stage
// runs; values below 2 run the groups one after another. Safe to call
// only while no commit is running.
func (s *State) SetCommitWorkers(w int) { s.commitWorkers = w }

// BeginBlockCommit opens height's block commit and returns it. At most
// one block is open at a time — the commit fence admits block h+1 only
// after block h has sealed — so the returned commit must Seal before
// the next BeginBlockCommit.
func (s *State) BeginBlockCommit(height int64) *PendingCommit {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requireSealed("BeginBlockCommit", height)
	p := &PendingCommit{s: s, height: height}
	s.unsealed = p
	return p
}

// PendingCommit is one in-flight block commit.
type PendingCommit struct {
	s      *State
	height int64

	batch  []*txn.Transaction
	staged []*stagedTx
	plan   *parallel.Plan

	t0     time.Time
	planD  time.Duration
	applyD time.Duration
	busy   int64
}

// Stage runs the plan and apply phases for the block's batch. It takes
// no lock: conflict groups stage their write ops against committed
// state plus group-local overlays over the shared LPT dispatch
// (largest group first, so the critical path never starts last), on
// CommitWorkers appliers.
func (p *PendingCommit) Stage(batch []*txn.Transaction) { p.StagePlan(batch, nil) }

// StagePlan is Stage with the batch's conflict plan already built —
// the server planned the block to validate it and to publish its
// fence keys, so the commit need not derive the footprints again. The
// plan must be parallel.BuildPlan of exactly this batch; nil plans on
// demand.
func (p *PendingCommit) StagePlan(batch []*txn.Transaction, plan *parallel.Plan) {
	s := p.s
	p.batch = batch
	p.t0 = time.Now()
	p.staged = make([]*stagedTx, len(batch))
	if plan == nil {
		plan = parallel.BuildPlan(batch)
	}
	p.plan = plan
	p.planD = time.Since(p.t0)
	// busy accumulates per-group applier time so busy/(wall*workers)
	// reports the phase's worker utilization.
	var busy atomic.Int64
	applyT := time.Now()
	plan.RunGroups(s.commitWorkers, func(g []int) {
		gt := time.Now()
		overlay := newGroupOverlay(s)
		for _, i := range g {
			p.staged[i] = overlay.stageTx(batch[i])
		}
		busy.Add(int64(time.Since(gt)))
	})
	p.applyD = time.Since(applyT)
	p.busy = busy.Load()
}

// Seal applies the staged block under the state lock and closes it,
// whatever the outcome. It returns the transactions committed, in block
// order, and the ones the stage skipped with their errors (CommitBlock
// has the semantics); a non-nil error means the backend could not make
// the block durable.
func (p *PendingCommit) Seal() (committed []*txn.Transaction, skipped map[string]error, err error) {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unsealed = nil
	return p.sealLocked()
}

// sealLocked is the one seal body, called with the state lock held:
// it brackets the MVCC block, applies the staged ops in block order,
// each transaction's followed by the nested bookkeeping it owes
// (sealNested), inside one atomic WAL group closed by the height
// record — nothing of the block is durable before everything is —
// publishes the block, and records its plan/apply/seal attribution.
func (p *PendingCommit) sealLocked() (committed []*txn.Transaction, skipped map[string]error, err error) {
	s := p.s
	sealT := time.Now()
	committed = make([]*txn.Transaction, 0, len(p.batch))
	err = s.sealBlock(p.height, func() error {
		for i, t := range p.batch {
			st := p.staged[i]
			if st.err != nil {
				if skipped == nil {
					skipped = make(map[string]error)
				}
				skipped[t.ID] = st.err
				continue
			}
			if serr := s.sealTx(st); serr != nil {
				// The apply phase vouched for these ops; a failure here
				// means the backend lost a write mid-block.
				return serr
			}
			if serr := s.sealNested(t, st.ops); serr != nil {
				return serr
			}
			committed = append(committed, t)
		}
		ids := make([]any, len(committed))
		for i, t := range committed {
			ids[i] = t.ID
		}
		return s.putBlockRecord(p.height, ids, false)
	})
	if err != nil {
		return nil, nil, err
	}
	if p.height > s.lastHeight {
		s.lastHeight = p.height
	}
	// The clock stops after the MVCC seal and the index sweep: a block
	// is not sealed until it is published.
	sealD := time.Since(sealT)
	if s.ob.tracer != nil { // guard: the id projections allocate
		cids := txIDs(committed)
		s.ob.tracer.ObserveEach(txIDs(p.batch), obs.StageApply, p.applyD)
		s.ob.tracer.ObserveEach(cids, obs.StageSeal, sealD)
		s.ob.sealTraces(p.height, cids, skipped)
	}
	s.ob.recordBlock(p.height, p.planD, p.applyD, sealD, time.Since(p.t0), len(p.batch), len(committed), len(skipped))
	s.ob.applyBusyNs.Add(uint64(p.busy))
	s.ob.applyWallNs.Add(uint64(p.applyD))
	s.ob.conflictGroups.Observe(int64(len(p.plan.Groups)))
	s.ob.largestGroup.Observe(int64(p.plan.Largest()))
	return committed, skipped, nil
}

// sealBlock is the bracket both seal sites (the block commit above and
// ApplyPrepared's one-transaction block) write through: every write
// group makes is stamped with height and stays invisible to snapshot
// readers until SealBlock publishes it atomically. Sealing also
// garbage-collects versions that fell out of the retained window, and
// the index sweep rides the same moment, since that is when the
// retention floor advances; both cost what the blocks leaving the
// window changed, not what the state holds. The block is published
// even when group fails: a height once opened must be closed, or later
// writes would be stamped with it. Caller holds the state lock.
func (s *State) sealBlock(height int64, group func() error) error {
	bk := s.store.Backend()
	bk.BeginBlock(height)
	err := s.store.Group(group)
	bk.SealBlock(height)
	s.store.SweepIndexes()
	return err
}
