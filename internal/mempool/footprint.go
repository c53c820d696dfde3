package mempool

import "smartchaindb/internal/txn"

// Tx is the pool's unit: anything with a stable unique hash. It is
// method-compatible with consensus.Tx, so consensus transactions flow
// in and out without wrapping.
type Tx interface{ Hash() string }

// Footprint is the pool's view of one transaction's declarative
// read/write set.
//
// Spends are the exclusive claims — the spent-output keys. At most one
// pending transaction may hold a given spend key, so a claim collision
// rejects admission in O(1); the block-commit sweep uses the same index
// to evict the pending rival of every freshly committed spend. Writes
// and Reads drive conflict grouping for makespan-aware packing only
// (two writers of one key conflict, as do a writer and a reader;
// readers sharing a key stay independent), mirroring
// parallel.BuildPlan.
type Footprint struct {
	Spends []string
	Writes []string
	Reads  []string
}

// FootprintFn derives a transaction's footprint without executing it —
// the declarative contract of the paper.
type FootprintFn func(Tx) Footprint

// ForTransaction is the footprint function for SmartchainDB
// transactions: the transaction's own footprint keys
// (txn.Transaction.FootprintKeys, the ones parallel.FootprintOf
// returns), with the spent-output keys doubling as the exclusive spend
// claims. Nothing is built per call.
// Foreign transaction types (e.g. the baseline chain's) fall back to
// DefaultFootprint and are treated as mutually independent.
func ForTransaction(tx Tx) Footprint {
	t, ok := tx.(*txn.Transaction)
	if !ok {
		return DefaultFootprint(tx)
	}
	w, r := t.FootprintKeys()
	return Footprint{Spends: t.SpendKeys(), Writes: w, Reads: r}
}

// DefaultFootprint treats a transaction as writing only its own
// identity — its bare hash, the transaction key namespace of
// txn.Transaction.FootprintKeys: no spend claims, no conflicts with
// anything else.
func DefaultFootprint(tx Tx) Footprint {
	return Footprint{Writes: []string{tx.Hash()}}
}
