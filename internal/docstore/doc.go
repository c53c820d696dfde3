// Package docstore is an embedded document store playing the role
// MongoDB plays in BigchainDB/SmartchainDB: each node keeps its
// transaction, asset, metadata, UTXO, and recovery collections in one.
// It holds JSON-style documents (map[string]any) and answers dot-path
// filters built from the operators the chain's readers call — Eq, Gte,
// Lt, Lte, In, Contains, And, Not — over secondary indexes, in
// deterministic order: enough to implement the validators' lookups
// (getTxFromDB, getLockedBids, getAcceptTxForRFQ) and the marketplace
// queryability study, and no more.
//
// The store runs over a pluggable storage.Backend: the volatile
// memory backend (the default) or the disk engine, which makes every
// mutation durable through a write-ahead log and recovers it on
// reopen. Filters, secondary indexes, document ownership, and
// iteration order behave identically on both; Group exposes the
// backend's atomic-durability batches to the ledger's block commit.
// Documents are inserted and replaced, never deleted: the chain only
// adds and supersedes.
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
// Every filtered read (Find, BorrowFind, BorrowFindLimit, Count)
// resolves through the planner (planner.go), which walks the filter
// itself and compiles it against the collection's secondary indexes
// by one rule: in an And, the first conjunct in written order that an
// index can serve drives the read, and every other conjunct is left to
// the residual filter.
//
//   - equality-class operators (Eq, Contains, In) probe a hash or
//     ordered index for candidate keys;
//   - comparisons (Gte, Lt, Lte) become range scans over an ordered
//     index (CreateOrderedIndex), a deterministic skip list ordering
//     numbers and strings (ordindex.go), bounded by every comparison
//     on the path while it is single-valued;
//   - provably empty filters (In with no values, comparisons against
//     non-comparable arguments) plan to nothing at all;
//   - Not, and an And with no servable conjunct, fall back to the full
//     collection scan.
//
// A reader's filter is therefore its access path, fixed when the
// reader is written: the chain's readers (internal/ledger,
// internal/query) write the conjunct whose index should drive first.
// Compiling takes no lock, and executing touches one index.
//
// Planned reads resolve candidates through the driving index's own
// lock and lock-free point reads, re-ordered into insertion order from the
// backend's ord counters — never the collection-wide lock, so they do
// not serialize behind the commit writer. Candidates are a superset
// of the matches (multikey indexes fan arrays out) and every fetched
// document is re-checked against the full filter, so plans affect
// performance, never results: the planner/scan differential property
// test holds Find to byte-identical output with a forced full scan
// (FindScan, a reference implementation kept in the package's tests)
// on both backends.
//
// Explain renders the plan Plan compiles ("point(refs contains "r1")",
// "range(amount >=1 <=5)", "full-scan(no index on "x")") for tests and
// benchmarks; with a Store.SetObs registry attached, executed full
// scans, planner decisions, and index probes record into the
// docstore.* obs counters, so hot paths can assert they never take
// the collection lock. Snapshot.BorrowFindOrdered streams documents in
// index-value order (ties in insertion order) straight off an ordered
// index — the "most recent first" query shape.
package docstore
