package mempool

import "smartchaindb/internal/txn"

// Tx is the pool's unit: anything with a stable unique hash. It is
// also the consensus engine's transaction (consensus.Tx names this one
// type), so blocks and batches pass between the engine and its pool as
// they are.
type Tx interface{ Hash() string }

// ForTransaction returns a transaction's footprint without executing
// it — the declarative contract of the paper. A transaction that
// declares its own (as *txn.Transaction does: Transaction.Footprint)
// is read through it, its spend keys doubling as the exclusive spend
// claims; nothing is built per call. Any other transaction (the
// baseline chain's) writes only its own identity — its bare hash, the
// transaction key namespace of txn.Footprint — so it claims no spend
// and conflicts with nothing but itself.
func ForTransaction(tx Tx) txn.Footprint {
	if t, ok := tx.(interface{ Footprint() txn.Footprint }); ok {
		return t.Footprint()
	}
	return txn.Footprint{Writes: []string{tx.Hash()}}
}
