// Package docstore is an embedded document store playing the role
// MongoDB plays in BigchainDB/SmartchainDB: each node keeps its
// transaction, asset, metadata, UTXO, and recovery collections in one.
// It supports JSON-style documents (map[string]any), dot-path filter
// queries with Mongo-flavoured operators ($gt, $in, $elemMatch, ...),
// secondary indexes, and deterministic iteration — enough to implement
// the validators' lookups (getTxFromDB, getLockedBids,
// getAcceptTxForRFQ) and the marketplace queryability study.
//
// The store runs over a pluggable storage.Backend: the volatile
// memory backend (the default) or the disk engine, which makes every
// mutation durable through a write-ahead log and recovers it on
// reopen. Filters, secondary indexes, document ownership, and
// iteration order behave identically on both; Group exposes the
// backend's atomic-durability batches to the ledger's block commit.
//
// # Who owns a document
//
// A stored document is an immutable value: whoever builds it hands it
// over, nobody copies it, nobody edits it. Insert and Upsert take
// ownership of the map they are given; Update hands its closure a copy
// of the top level only, sharing everything below with the version it
// replaces; Get and Find copy on the way out, for documents that leave
// the program; Borrow and the BorrowFind family hand in-program readers
// the stored documents themselves, read-only. The deep-copying write
// path this replaced is kept in reference_test.go, and the new one is
// pinned to it; `go test -tags tripwire` (internal/storage) checks that
// no stored document is ever written to.
//
// # Query planning
//
// Every read entry point (Find, FindLimit, FindKeys, FindOne, Count)
// resolves through a cost-aware planner. A filter tree is first made
// introspectable by Analyze (filter.go), then compiled against the
// collection's secondary indexes into an access plan (planner.go):
//
//   - equality-class operators (Eq, Contains, In) probe a hash or
//     ordered index for candidate keys;
//   - comparisons (Gt, Gte, Lt, Lte) become range scans over an
//     ordered index (CreateOrderedIndex), a deterministic skip list
//     ordering numbers and strings (ordindex.go);
//   - And intersects its indexable conjuncts — the lowest-estimate
//     index drives, chosen from index cardinalities, and the others
//     shrink its candidates via O(1) membership probes — while
//     unindexable conjuncts are left to the residual filter;
//   - Or unions its branches when every branch is indexable;
//   - provably empty filters (Never, In with no values, comparisons
//     against non-comparable arguments) plan to nothing at all;
//   - everything else falls back to the full collection scan.
//
// Every read compiles its own plan, from the estimates its own
// arguments give at that moment; nothing is cached between reads. A
// compile costs a few index read locks and no allocation per estimate
// (BenchmarkPlanLockedBids), and a plan chosen from another argument's
// or an older state's estimates can drive on the wrong index: a
// shape-keyed plan cache once made the validator's locked-bid read
// materialise every BID on the chain.
//
// Planned reads resolve candidates through the indexes' own locks and
// lock-free point reads, re-ordered into insertion order from the
// backend's ord counters — never the collection-wide lock, so they do
// not serialize behind the commit writer. Candidates are a superset
// of the matches (multikey indexes fan arrays out) and every fetched
// document is re-checked against the full filter, so plans affect
// performance, never results: the planner/scan differential property
// test holds Find to byte-identical output with a forced full scan
// (FindScan, a reference implementation kept in the package's tests)
// on both backends.
//
// Explain renders the plan Plan compiles ("point(operation eq "BID")[3]",
// "intersect[2](...)", "full-scan(no index on "x")") for tests and
// benchmarks; with a Store.SetObs registry attached, executed full
// scans, planner decisions, and index probes record into the
// docstore.* obs counters, so hot paths can assert they never take
// the collection lock. FindOrdered streams
// documents in index-value order (ties in insertion order) straight
// off an ordered index — the "most recent first" query shape.
package docstore
