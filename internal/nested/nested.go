// Package nested implements the non-locking execution engine for
// nested blockchain transactions (§4.2 of the paper). An ACCEPT_BID
// parent commits immediately — no lock — and the seal of its block
// writes its accept_tx_recovery record, naming its child transactions
// (one TRANSFER to the requester, n-1 RETURNs to losing bidders), in
// the block's own storage group; the seal of each child's block marks
// it done there. This engine hands each owed child on with eventual-
// commit semantics: at the join of the parent's block, and again, from
// every PENDING record, when a node comes back from a crash. Child
// construction is deterministic (same escrow key, same parent output,
// and ed25519 signatures are deterministic too), so every validator
// derives the same child, byte for byte, from its own commit of the
// parent. The engine therefore hands on not a child but the escrow
// output it spends and a builder that builds and signs it on first
// call: a cluster's validators share one process, and the cluster
// builds one copy per owed output for all of them
// (consensus.Cluster.InjectAt); a standalone node or a shard builds at
// once. No child travels through a receiver or gossip. A replayed
// child is the same transaction again.
package nested

import (
	"fmt"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// Submitter hands one owed child on for commit: out is the escrow
// output the child spends — a recovery record owes at most one child
// per output — and build returns the signed child, building and
// signing it on its first call and returning that same object after.
// A cluster validator's submitter injects it into that validator's own
// mempool and calls build only when no copy for out is pending in the
// cluster (server.Cluster.ChildInjector); a shard's calls it and admits
// the child to the shard's pool; a standalone node's calls it and
// applies the child at once.
type Submitter func(out txn.OutputRef, build func() *txn.Transaction)

// Engine hands one node's owed nested children to its submitter.
type Engine struct {
	state     *ledger.State
	escrow    *keys.KeyPair
	escrowPub string
	submit    Submitter
}

// NewEngine wires an engine to a node's chain state and escrow key.
func NewEngine(state *ledger.State, escrow *keys.KeyPair, submit Submitter) *Engine {
	return &Engine{state: state, escrow: escrow, escrowPub: escrow.PublicBase58(), submit: submit}
}

// OwesChildren reports whether a committed transaction of operation op
// owes nested children: an ACCEPT_BID does, and the join of its block
// hands them on (Submit). A block holding no such transaction hands
// nothing on.
func OwesChildren(op string) bool { return op == txn.OpAcceptBid }

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
		e.submit(txn.OutputRef{TxID: spec.AcceptID, Index: spec.OutputIndex}, e.builder(spec))
	}
}

// builder returns the Submitter's build for spec: the child is built
// and signed on the first call only.
func (e *Engine) builder(spec ledger.ReturnSpec) func() *txn.Transaction {
	var child *txn.Transaction
	return func() *txn.Transaction {
		if child == nil {
			child = ledger.BuildChild(spec, e.escrowPub)
			if err := txn.Sign(child, e.escrow); err != nil {
				// invariant: the escrow key is local; a signing failure is a
				// defect, not a runtime condition.
				panic(fmt.Sprintf("nested: sign child: %v", err))
			}
		}
		return child
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
