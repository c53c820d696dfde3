// Package nested implements the non-locking execution engine for
// nested blockchain transactions (§4.2 of the paper). An ACCEPT_BID
// parent commits immediately — no lock — and the seal of its block
// writes its accept_tx_recovery record, naming its child transactions
// (one TRANSFER to the requester, n-1 RETURNs to losing bidders), in
// the block's own storage group; the seal of each child's block marks
// it done there. This engine builds the children, signs them with the
// escrow system account and submits them with eventual-commit
// semantics: at the join of the parent's block, and again, from every
// PENDING record, when a node comes back from a crash. Child
// construction is deterministic (same escrow key, same parent output),
// so every validator derives the same children, with the same
// transaction IDs, from its own commit of the parent: in a cluster each
// validator's engine hands its children to its own mempool, and none
// travels through a receiver or gossip. A replayed child is the same
// transaction again.
package nested

import (
	"fmt"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// Submitter hands a signed child transaction on for commit. A cluster
// validator's submitter injects it into that validator's own mempool
// (server.Cluster.ChildInjector), a shard's into the shard's pool; a
// standalone node's applies it at once.
type Submitter func(child *txn.Transaction)

// Engine builds, signs and submits one node's nested children.
type Engine struct {
	state  *ledger.State
	escrow *keys.KeyPair
	submit Submitter
}

// NewEngine wires an engine to a node's chain state and escrow key.
func NewEngine(state *ledger.State, escrow *keys.KeyPair, submit Submitter) *Engine {
	return &Engine{state: state, escrow: escrow, submit: submit}
}

// Submit hands the children the sealed recovery record of the
// committed ACCEPT_BID acceptID lists as pending to the submitter, in
// output order. It does NOT block the parent's commit: the join of the
// parent's block calls it after the seal.
func (e *Engine) Submit(acceptID string) {
	if rec, err := e.state.RecoveryFor(acceptID); err == nil {
		e.submitAll(rec.Pending)
	}
}

// Recover replays the recovery log after a crash: every pending child
// of every PENDING record is submitted again ("enqueue all the RETURNs
// using the recovery log when the receiver node comes up online"). A
// record is sealed with the block that changes it, so it lists exactly
// the children not yet committed. It returns the number submitted.
func (e *Engine) Recover() int {
	n := 0
	for _, rec := range e.state.PendingRecoveries() {
		e.submitAll(rec.Pending)
		n += len(rec.Pending)
	}
	return n
}

func (e *Engine) submitAll(specs []ledger.ReturnSpec) {
	for _, spec := range specs {
		child := ledger.BuildChild(spec, e.escrow.PublicBase58())
		if err := txn.Sign(child, e.escrow); err != nil {
			// invariant: the escrow key is local; a signing failure is a
			// defect, not a runtime condition.
			panic(fmt.Sprintf("nested: sign child: %v", err))
		}
		e.submit(child)
	}
}

// LockingCommit is the locking alternative the paper argues against
// (§4.2): it commits the parent and then each child its seal logged,
// one block each, blocking until every child is applied. It exists for
// the ablation benchmark comparing locking vs non-locking nested
// execution; the non-locking path is the production one.
func LockingCommit(state *ledger.State, escrow *keys.KeyPair, accept *txn.Transaction) ([]*txn.Transaction, error) {
	if _, skipped := state.CommitBlock([]*txn.Transaction{accept}); skipped[accept.ID] != nil {
		return nil, skipped[accept.ID]
	}
	rec, err := state.RecoveryFor(accept.ID)
	if err != nil {
		return nil, err
	}
	children := make([]*txn.Transaction, 0, len(rec.Pending))
	for _, spec := range rec.Pending {
		child := ledger.BuildChild(spec, escrow.PublicBase58())
		if err := txn.Sign(child, escrow); err != nil {
			return nil, err
		}
		if _, skipped := state.CommitBlock([]*txn.Transaction{child}); skipped[child.ID] != nil {
			return nil, fmt.Errorf("nested: locking commit child: %w", skipped[child.ID])
		}
		children = append(children, child)
	}
	return children, nil
}
