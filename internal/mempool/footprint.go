package mempool

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

// ForTransaction derives a transaction's footprint without executing it
// — the declarative contract of the paper. A transaction that declares
// its footprint keys (as *txn.Transaction does: FootprintKeys, the
// keys parallel.FootprintOf returns, and SpendKeys) is read through
// them, the spent-output keys doubling as the exclusive spend claims;
// nothing is built per call. Any other transaction (e.g. the baseline
// chain's) gets DefaultFootprint and is independent of every other.
func ForTransaction(tx Tx) Footprint {
	t, ok := tx.(footprinted)
	if !ok {
		return DefaultFootprint(tx)
	}
	w, r := t.FootprintKeys()
	return Footprint{Spends: t.SpendKeys(), Writes: w, Reads: r}
}

// footprinted is a transaction that declares its footprint keys.
type footprinted interface {
	FootprintKeys() (writes, reads []string)
	SpendKeys() []string
}

// DefaultFootprint treats a transaction as writing only its own
// identity — its bare hash, the transaction key namespace of
// txn.Transaction.FootprintKeys: no spend claims, no conflicts with
// anything else.
func DefaultFootprint(tx Tx) Footprint {
	return Footprint{Writes: []string{tx.Hash()}}
}
