// Package nested implements the non-locking execution engine for
// nested blockchain transactions (§4.2 of the paper). An ACCEPT_BID
// parent commits immediately — no lock — and its child transactions
// (one TRANSFER to the requester, n-1 RETURNs to losing bidders) are
// enqueued into a return queue, built and signed by the escrow system
// account, and submitted asynchronously with eventual-commit semantics.
// Child construction is deterministic (same escrow key, same parent
// output), so every validator derives the same children, with the same
// transaction IDs, from its own commit of the parent: in a cluster each
// validator's engine hands its children to its own mempool, and none
// travels through a receiver or gossip. The accept_tx_recovery log
// makes the children replayable after a crash, and a replayed child is
// the same transaction again.
package nested

import (
	"fmt"
	"sync"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// Submitter hands a signed child transaction on for commit. A cluster
// validator's submitter injects it into that validator's own mempool
// (server.Cluster.ChildInjector), a shard's into the shard's pool; a
// standalone node's applies it at once.
type Submitter func(child *txn.Transaction)

// Engine is one node's return-queue worker pool and recovery driver.
type Engine struct {
	state  *ledger.State
	escrow *keys.KeyPair
	submit Submitter

	mu    sync.Mutex
	queue []ledger.ReturnSpec
}

// NewEngine wires an engine to a node's chain state and escrow key.
func NewEngine(state *ledger.State, escrow *keys.KeyPair, submit Submitter) *Engine {
	return &Engine{state: state, escrow: escrow, submit: submit}
}

// OnParentCommitted runs at the commit phase of an ACCEPT_BID
// (Algorithm 3's Commit hook): it determines the child transactions
// (deterRtrnTxs), writes the recovery log, and enqueues the children.
// It does NOT block the parent's commit — the caller already committed
// the parent before invoking this.
func (e *Engine) OnParentCommitted(accept *txn.Transaction, rfqOwner string) error {
	specs, err := e.state.PendingReturnsFor(accept, e.escrow.PublicBase58(), rfqOwner)
	if err != nil {
		return fmt.Errorf("nested: determine children of %s: %w", short(accept.ID), err)
	}
	rfqID := ""
	if len(accept.Refs) > 0 {
		rfqID = accept.Refs[0]
	}
	if err := e.state.LogAcceptRecovery(accept.ID, rfqID, specs); err != nil {
		return fmt.Errorf("nested: log recovery for %s: %w", short(accept.ID), err)
	}
	e.enqueue(specs)
	return nil
}

func (e *Engine) enqueue(specs []ledger.ReturnSpec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = append(e.queue, specs...)
}

// QueueLen reports the number of children awaiting submission.
func (e *Engine) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// Drain builds, signs, and submits every queued child. Workers in the
// paper run in parallel; submission order does not matter because the
// children are independent.
func (e *Engine) Drain() int {
	e.mu.Lock()
	specs := e.queue
	e.queue = nil
	e.mu.Unlock()
	for _, spec := range specs {
		child := ledger.BuildChild(spec, e.escrow.PublicBase58())
		if err := txn.Sign(child, e.escrow); err != nil {
			// invariant: the escrow key is local; a signing failure is a
			// defect, not a runtime condition.
			panic(fmt.Sprintf("nested: sign child: %v", err))
		}
		e.submit(child)
	}
	return len(specs)
}

// OnChildCommitted runs when a RETURN or child TRANSFER commits: it
// marks the child done in the recovery log and refreshes the parent's
// children vector. Unrelated transactions are ignored, so the server
// can call this for every committed TRANSFER/RETURN.
func (e *Engine) OnChildCommitted(child *txn.Transaction) {
	if len(child.Inputs) == 0 || child.Inputs[0].Fulfills == nil {
		return
	}
	ref := *child.Inputs[0].Fulfills
	// Every committed TRANSFER and RETURN comes through here, and all
	// but the nested children stop at this line: ask for the parent's
	// operation, not for the parent.
	if op, _ := e.state.OperationOf(ref.TxID); op != txn.OpAcceptBid {
		return
	}
	if err := e.state.MarkReturnDone(ref.TxID, ref.Index, child.ID); err != nil {
		return // already marked by an earlier replica of this child
	}
	if rec, err := e.state.RecoveryFor(ref.TxID); err == nil {
		// Children are excluded from the signing payload, so updating
		// the vector after the fact is safe.
		_ = e.state.SetChildren(ref.TxID, rec.Done)
	}
}

// Recover replays the recovery log after a crash: every pending child
// of every incomplete ACCEPT_BID is re-enqueued ("enqueue all the
// RETURNs using the recovery log when the receiver node comes up
// online"). It returns the number of children re-enqueued.
func (e *Engine) Recover() int {
	n := 0
	for _, rec := range e.state.PendingRecoveries() {
		// Skip specs whose child already committed (the log may lag the
		// chain if the crash hit between commit and mark-done).
		var still []ledger.ReturnSpec
		for _, spec := range rec.Pending {
			if e.state.IsUnspent(txn.OutputRef{TxID: spec.AcceptID, Index: spec.OutputIndex}) {
				still = append(still, spec)
			}
		}
		e.enqueue(still)
		n += len(still)
	}
	return n
}

// LockingCommit is the locking alternative the paper argues against
// (§4.2): it commits the parent and all children, one block each,
// blocking until every child is applied. It exists for the ablation
// benchmark comparing locking vs non-locking nested execution; the
// non-locking path is the production one.
func LockingCommit(state *ledger.State, escrow *keys.KeyPair, accept *txn.Transaction, rfqOwner string) ([]*txn.Transaction, error) {
	if _, skipped := state.CommitBlock([]*txn.Transaction{accept}); skipped[accept.ID] != nil {
		return nil, skipped[accept.ID]
	}
	specs, err := state.PendingReturnsFor(accept, escrow.PublicBase58(), rfqOwner)
	if err != nil {
		return nil, err
	}
	children := make([]*txn.Transaction, 0, len(specs))
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		child := ledger.BuildChild(spec, escrow.PublicBase58())
		if err := txn.Sign(child, escrow); err != nil {
			return nil, err
		}
		if _, skipped := state.CommitBlock([]*txn.Transaction{child}); skipped[child.ID] != nil {
			return nil, fmt.Errorf("nested: locking commit child: %w", skipped[child.ID])
		}
		children = append(children, child)
		ids = append(ids, child.ID)
	}
	if err := state.SetChildren(accept.ID, ids); err != nil {
		return nil, err
	}
	return children, nil
}

func short(s string) string {
	if len(s) <= 8 {
		return s
	}
	return s[:8] + "..."
}
