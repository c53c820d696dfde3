// Package ledger maintains each node's committed chain state on top of
// the document store: the transaction log, the unspent-output (UTXO)
// set, asset registrations, escrow holdings per REQUEST, and the
// accept_tx_recovery collection that drives nested-transaction
// recovery. Validators read this state; the consensus commit phase is
// the only writer.
package ledger

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"smartchaindb/internal/docstore"
	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// Collection names, mirroring the MongoDB collections the paper's
// implementation extends.
const (
	ColTransactions = "transactions"
	ColUTXOs        = "utxos"
	ColAssets       = "assets"
	ColRecovery     = "accept_tx_recovery"
	ColBlocks       = "blocks"
)

// State is one node's committed chain state.
type State struct {
	mu         sync.RWMutex
	store      *docstore.Store
	lastHeight int64
	// commitWorkers is the block commit's stage parallelism: conflict
	// groups from declarative footprints stage concurrently on this
	// many workers (below 2: one after another), then seal in block
	// order as one WAL group. See pipeline.go.
	commitWorkers int
	// ob holds the cached observability handles (obs.go). The zero
	// value is the no-op build; SetObs swaps in live handles. Guarded
	// by mu, which every commit path already holds.
	ob  ledgerObs
	reg *obs.Registry
	// unsealed is the block BeginBlockCommit opened and Seal has not
	// closed; a second open while it is set is a caller bug. Guarded by
	// mu.
	unsealed *PendingCommit
}

// NewState creates a chain state over the backend selected by the
// SCDB_BACKEND environment variable — in-memory by default, or a
// throwaway disk engine under SCDB_BACKEND=disk, the switch the
// Makefile flips to run the entire tier-1 suite over both backends.
// Nodes with a real data directory use NewStateWith directly.
func NewState() *State { return NewStateWith(defaultBackend()) }

// NewStateWith creates (or, for a disk backend with existing data,
// reopens) the chain state over b: the standard collections and the
// registry's secondary indexes (see ChainIndexes — on a disk reopen
// every index is rebuilt from the documents WAL replay recovered),
// with the committed block height recovered from the blocks
// collection.
func NewStateWith(b storage.Backend) *State {
	s := &State{store: docstore.NewStoreWith(b)}
	applyIndexes(s.store, ChainIndexes())
	s.store.Collection(ColRecovery)
	for _, key := range s.store.Collection(ColBlocks).Keys() {
		if h, err := strconv.ParseInt(key, 10, 64); err == nil && h > s.lastHeight {
			s.lastHeight = h
		}
	}
	// Align the snapshot clock with the recovered chain height, so
	// View() immediately reads as of the last committed block even if
	// the backend's own recovery saw a lower stamp (e.g. pre-MVCC data
	// whose WAL records carry no heights).
	if b.Visible() < s.lastHeight {
		b.BeginBlock(s.lastHeight)
		b.SealBlock(s.lastHeight)
	}
	return s
}

// Store exposes the underlying document store for read-only analytics
// (the marketplace query layer).
func (s *State) Store() *docstore.Store { return s.store }

// Height returns the highest committed block height (0 before any
// block commit). It survives restarts on the disk backend: the block
// record rides the same atomic WAL batch as the block's effects.
func (s *State) Height() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastHeight
}

// Close flushes and releases the underlying storage backend.
func (s *State) Close() error { return s.store.Close() }

func blockKey(height int64) string { return fmt.Sprintf("%016d", height) }

func utxoKey(ref txn.OutputRef) string { return ref.String() }

// spentUTXOKeys lists the UTXO keys of the outputs t spends, in
// SpentRefs order. Each is the suffix of the spend key the transaction
// already carries for that input, so naming them builds no string.
func spentUTXOKeys(t *txn.Transaction) []string {
	spends := t.Footprint().Spends
	keys := make([]string, len(spends))
	for i, k := range spends {
		keys[i] = k[len(txn.SpendKeyPrefix):]
	}
	return keys
}

// CommitBlock applies a validated batch in order as the block at the
// next height, derived under the state lock, so concurrent callers and
// the 2PC applies never collide. A failing transaction (a duplicate, or
// an input an earlier entry spent) is skipped without side effects and
// reported in skipped; the block — every committed transaction's
// effects plus the height record — is one atomic WAL group. It is the
// pipeline's Stage and seal run back to back under the state lock, for
// callers without a node. A storage failure is fatal: the seal lost a
// backend write (Seal is the variant that returns the error).
func (s *State) CommitBlock(batch []*txn.Transaction) (committed []*txn.Transaction, skipped map[string]error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	height := s.lastHeight + 1
	s.requireSealed("CommitBlock", height)
	p := &PendingCommit{s: s, height: height}
	p.Stage(batch)
	committed, skipped, err := p.sealLocked()
	if err != nil {
		// fail-stop: the backend lost a write mid-block; Seal is the variant that returns the error.
		panic("ledger: " + SealFailure(height, err))
	}
	return committed, skipped
}

// requireSealed panics if a block BeginBlockCommit opened is unsealed:
// height would take its place. Caller holds the state lock.
func (s *State) requireSealed(what string, height int64) {
	if s.unsealed != nil {
		// invariant: one block is open at a time; a writer taking the next height waits for its seal.
		panic(fmt.Sprintf("ledger: %s(%d) while block %d is unsealed", what, height, s.unsealed.height))
	}
}

// SealFailure words the fatal report of a block commit that returned
// an error, for the callers that stop the node on one. A failed storage
// checkpoint (storage.ErrCheckpoint) comes back after the block's WAL
// group is already durable: the node still stops — it cannot fold its
// log — but the operator is not told a block was lost when none was.
func SealFailure(height int64, err error) string {
	if errors.Is(err, storage.ErrCheckpoint) {
		return fmt.Sprintf("block %d is durable; checkpoint failed: %v", height, err)
	}
	return fmt.Sprintf("block %d lost durability: %v", height, err)
}

// putBlockRecord writes height's record into the blocks collection —
// the one place the record is built. It must run last inside the
// block's storage Group, so the record and the block's effects are
// one atomic WAL group. twopc marks a cross-shard apply's
// single-transaction block.
func (s *State) putBlockRecord(height int64, txids []any, twopc bool) error {
	rec := map[string]any{
		"height": float64(height),
		"count":  float64(len(txids)),
		"txids":  txids,
	}
	if twopc {
		rec["twopc"] = true
	}
	return s.store.Collection(ColBlocks).Upsert(blockKey(height), rec)
}

// The State read API delegates to a fresh snapshot view of the newest
// sealed block (see view.go): reads never take the commit lock or a
// collection lock and never observe a half-applied block — a racing
// commit is invisible until it seals. Callers needing several reads
// against one consistent state pin a view themselves via View().

// Tx reads a committed transaction in place (StateView.Tx).
func (s *State) Tx(id string) (txn.Stored, bool) { return s.View().Tx(id) }

// GetTx returns a committed transaction by ID, read-only in its
// free-form maps (StateView.GetTx).
func (s *State) GetTx(id string) (*txn.Transaction, error) { return s.View().GetTx(id) }

// IsCommitted reports whether the transaction exists in the log.
func (s *State) IsCommitted(id string) bool { return s.View().IsCommitted(id) }

// TxCount returns the number of committed transactions.
func (s *State) TxCount() int { return s.View().TxCount() }

// Output returns what the chain holds of a committed output
// (StateView.Output).
func (s *State) Output(ref txn.OutputRef) (txn.OutputFact, bool) { return s.View().Output(ref) }

// OutputKeyed is Output under ref's UTXO key (StateView.OutputKeyed).
func (s *State) OutputKeyed(ref txn.OutputRef, key string) (txn.OutputFact, bool) {
	return s.View().OutputKeyed(ref, key)
}

// Balance sums the unspent shares pub owns of the given asset.
func (s *State) Balance(pub, assetID string) uint64 { return s.View().Balance(pub, assetID) }

// LockedBidsForRFQ implements the validator query getLockedBids: the
// IDs of the committed BID transactions referencing the REQUEST whose
// escrow output (index 0) is still unspent.
func (s *State) LockedBidsForRFQ(rfqID string) []string {
	return s.View().LockedBidsForRFQ(rfqID)
}

// Accepted reads the committed ACCEPT_BID referencing the REQUEST in
// place (StateView.Accepted).
func (s *State) Accepted(rfqID string) (txn.Stored, bool) { return s.View().Accepted(rfqID) }

// AcceptForRFQ implements getAcceptTxForRFQ: the committed ACCEPT_BID
// referencing the REQUEST, if one exists.
func (s *State) AcceptForRFQ(rfqID string) (*txn.Transaction, bool) {
	return s.View().AcceptForRFQ(rfqID)
}

// RecoveryFor returns the recovery record of one ACCEPT_BID.
func (s *State) RecoveryFor(acceptID string) (*RecoveryRecord, error) {
	return s.View().RecoveryFor(acceptID)
}
