package ledger

import (
	"smartchaindb/internal/docstore"
	"smartchaindb/internal/txn"
)

// IndexSpec declares one secondary index on a chain-state collection.
type IndexSpec struct {
	Collection string
	Path       string
	// Ordered selects a sorted multikey index (range scans, ordered
	// iteration) instead of a hash index (equality probes only).
	Ordered bool
	// Where makes the index partial: it holds only the documents whose
	// Where.Path equals Where.Value, and serves only the filters that
	// say so (docstore.Collection.CreateIndexWhere). The zero Where
	// indexes every document.
	Where docstore.Where
}

// ChainIndexes is the chain state's index registry: the declarative
// list NewStateWith applies when a state opens — including a disk
// reopen, where every index is rebuilt from the documents recovered by
// WAL replay (secondary indexes are never persisted). Each entry exists
// for the readers that drive on it, named beside it — a reader drives
// on the first conjunct of its filter an index serves — and indexes
// only what they can ask for (internal/query's TestEveryIndexHasAReader
// holds the two lists equal):
//
//   - transactions.operation: every per-operation read and rollup, and
//     the open-requests difference.
//   - transactions.refs: the validator queries (AcceptForRFQ,
//     LockedBidsForRFQ) and the bids of a REQUEST, whose operation is
//     checked on each referencing transaction.
//   - transactions.asset.data.capabilities and, ordered,
//     metadata.timestamp, both over REQUESTs only: the paper's
//     motivating "open requests demanding a capability" query and the
//     most-recent open requests feed.
//   - transactions.outputs.amount (ordered) and inputs.owners_before,
//     both over BIDs only: price bands over escrowed bid amounts, and
//     the bids an account placed.
//   - utxos.owner / asset_id and, ordered, amount, all over unspent
//     outputs only: balances, holders, an owner's unspent outputs and
//     value bands. A spent output leaves all three at the height it is
//     spent, and the index sweep retires it once no retained snapshot
//     can see it.
//   - assets.data.capabilities, over CREATEd assets only:
//     provider-side asset discovery.
func ChainIndexes() []IndexSpec {
	unspent := docstore.Where{Path: "spent", Value: false}
	op := func(operation string) docstore.Where { return docstore.Where{Path: "operation", Value: operation} }
	return []IndexSpec{
		{Collection: ColTransactions, Path: "operation"},
		{Collection: ColTransactions, Path: "refs"},
		{Collection: ColTransactions, Path: "asset.data.capabilities", Where: op(txn.OpRequest)},
		{Collection: ColTransactions, Path: "metadata.timestamp", Ordered: true, Where: op(txn.OpRequest)},
		{Collection: ColTransactions, Path: "outputs.amount", Ordered: true, Where: op(txn.OpBid)},
		{Collection: ColTransactions, Path: "inputs.owners_before", Where: op(txn.OpBid)},
		{Collection: ColUTXOs, Path: "owner", Where: unspent},
		{Collection: ColUTXOs, Path: "asset_id", Where: unspent},
		{Collection: ColUTXOs, Path: "amount", Ordered: true, Where: unspent},
		{Collection: ColAssets, Path: "data.capabilities", Where: op(txn.OpCreate)},
	}
}

// applyIndexes builds every registry index over the store's current
// documents — a no-op backfill on a fresh state, a full rebuild after
// a disk recovery.
func applyIndexes(store *docstore.Store, specs []IndexSpec) {
	for _, spec := range specs {
		store.Collection(spec.Collection).CreateIndexWhere(spec.Path, spec.Ordered, spec.Where)
	}
}
