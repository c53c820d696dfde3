// Package mempool is the ingest leg of the parallel pipeline: a
// footprint-indexed pending-transaction pool that replaces the plain
// arrival-order slice inside the consensus engine.
//
// The paper's thesis — declarative transactions expose their read/write
// footprints before execution — is applied here to the receiver path,
// ahead of any validation:
//
//   - Admission is batched. Incoming client and gossip transactions are
//     screened structurally against the pool's indexes first (duplicate
//     IDs and already-claimed spent outputs are rejected in O(1),
//     before any signature is verified), and only the survivors reach
//     the semantic CheckFn — the consensus app's CheckTxBatch, which
//     the server implements over the dependency-aware parallel
//     scheduler so one batch validates concurrently across a worker
//     pool with per-transaction verdicts.
//
//   - A transaction's footprint is its own txn.Footprint, read through
//     ForTransaction and stored with its entry as it is: the spend
//     keys are the claims, the writes and reads drive the staleness
//     sweep and the conflict grouping. The pool's Tx is the consensus
//     engine's (consensus.Tx is this type), so batches and blocks pass
//     between them without a copy.
//
//   - The pool indexes every pending transaction by its declarative
//     spend keys in one map beside its ID map, both under the pool's
//     lock. The screen's point lookups (is this output already
//     claimed? is this ID pending?) take its read lock; block-commit
//     compaction becomes an index sweep — each committed spend key
//     evicts its pending rival directly — instead of a full rescan.
//
//   - The staleness sweep reads a second index: every footprint key
//     (writes and reads) of every pending transaction, to its holders.
//     Each key a committed transaction writes marks its holders stale,
//     so their admission verdicts are re-proved at block validation.
//     Almost every key has one holder, which the index keeps in place;
//     only a key with two or more gets an overflow list, and no key
//     gets a set. A transaction holds a key once, however often its
//     footprint names it (a fan-in reading one transaction's outputs
//     reads its ID once per input). keyindex_test.go holds the index to
//     the map-of-sets it replaced.
//
//   - Pack selects the next block. PackFIFO reproduces arrival order
//     (the pre-mempool behaviour); PackMakespan groups the pending set
//     into conflict groups through parallel.GroupFootprints — the
//     grouping every validator's block plan uses — and greedily
//     balances group chains across the validators' workers, so
//     the proposed block's parallel-validation makespan is minimized
//     rather than inherited from arrival order.
//
// The pool is safe for concurrent use: real deployments admit batches
// from many connections while a proposer packs and the commit path
// sweeps. The simulated consensus engine drives it single-threaded
// through the virtual clock, but its CheckFn still fans out across real
// goroutines.
package mempool
