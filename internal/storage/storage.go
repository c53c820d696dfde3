// Package storage is the persistence layer under the document store: a
// dependency-free embedded storage engine in the spirit of the
// log-structured stores (bbolt, pebble) real blockchain databases sit
// on. It offers two backends behind one interface:
//
//   - Memory (NewMemory): the original volatile backend — in-memory
//     maps, no files. A restarted node starts empty.
//   - Engine (Open): a disk backend combining an append-only
//     write-ahead log with immutable sorted segment files. Every
//     mutation is framed into the WAL ([length][CRC32-C][payload])
//     and group-fsynced; a checkpoint folds the live state into sorted
//     per-collection segment files beside the commits and retires the
//     log it covers. Open replays segments then the WALs, truncating a
//     torn final record, so a killed node recovers to its last durable
//     group — for the ledger, the last fully committed block.
//
// File layout of an Engine directory:
//
//	MANIFEST                 root pointer (JSON, atomically renamed)
//	wal-<gen>.log            append-only log of mutation groups
//	seg-<gen>-<idx>.seg      one sorted immutable segment per collection
//
// MANIFEST names the segment files of the last installed checkpoint and
// the WALs to replay over them, oldest first:
//
//	{"version":1, "gen":7, "wal":"wal-000007.log",
//	 "segments":["seg-000006-000.seg", …],
//	 "wals":["wal-000006.log","wal-000007.log"]}
//
// "wal" is the live WAL, always the last to replay; "wals" is written
// only while there is more than one, so a manifest without it (every
// one written before checkpoints ran beside commits, and every one
// between checkpoints since) reads as its single "wal".
//
// WAL record frame (big endian):
//
//	[4B payload length][4B CRC32-C of payload][payload]
//
// WAL payload (version 2, the only one ever written to a file):
//
//	[1B version][height uvarint][count uvarint] then per mutation:
//	[1B op (1=put 2=delete 3=drop-collection 4=2PC-prepare 5=2PC-decide)]
//	[collection uvarint len + bytes][key uvarint len + bytes]
//	[doc uvarint len + canonical JSON]   (put, prepare, decide)
//
// Segment file (version 2, likewise):
//
//	"SCDBSEG1" [1B version][collection][count uvarint]
//	records sorted by key:
//	[key][ord uvarint][height uvarint][doc len uvarint][doc JSON]
//	[4B CRC32-C of everything after the magic]
//
// ord is the document's insertion counter; reloading sorts keys by ord
// so iteration order survives restarts byte-for-byte. height is the
// block height the version was written at (the MVCC stamp). Documents
// are written by internal/canon, byte for byte what encoding/json
// writes, each encoded once straight into the buffer that goes to the
// file. An unknown version of either format fails the open with the
// version in the message.
//
// # Checkpoints: cut, fold, install
//
// A checkpoint (Compact, or automatically once the live WAL passes
// max(CompactWALBytes, bytes the previous checkpoint wrote)) runs in
// three steps, and only the first is on the commit path:
//
//   - cut, between two groups: fsync the live WAL, create the next
//     one, publish a MANIFEST naming the current segments and every WAL
//     including the new one, switch appends to it, and capture a
//     pointer to the head version of every live document. O(keys)
//     pointer copies; nothing is encoded, no segment is touched.
//   - fold, on its own goroutine with no engine lock: sort the captured
//     heads and write each collection's segment (tmp, fsync, rename).
//     Versions are immutable once published, so commits and snapshot
//     reads proceed throughout.
//   - install: publish a MANIFEST naming the new segments and the live
//     WAL only, then delete the old segments and the WALs the fold
//     covered.
//
// One fold runs at a time; Compact and Close wait for it. What Open
// finds after a crash at each point, and does:
//
//	next WAL created, MANIFEST old        replay as before; delete the orphan WAL
//	cut MANIFEST published                old segments, then both WALs in order
//	mid-fold (a partial seg-*.seg.tmp)    the same; delete the partial file
//	segments renamed, MANIFEST still cut  the same; delete the unnamed segments
//	install MANIFEST published            new segments + live WAL; delete the old generation
//
// Only the last WAL a MANIFEST names can have a torn tail, which Open
// truncates; an earlier one was fsynced before the cut that closed it
// was published, so a bad frame there is corruption and Open fails
// naming the file. A manifest that names more than one WAL is an
// interrupted checkpoint, which Open redoes before returning. A failed
// checkpoint is reported as ErrCheckpoint — by the Group whose cut
// failed, and for a failed fold by the next cut, Compact and Close —
// and never costs a committed group: the generation on disk stays
// intact.
//
// # MVCC snapshot reads
//
// Both backends version every document by block height. A caller
// brackets a block commit with BeginBlock(h) / SealBlock(h): writes in
// between are stamped h and stay invisible to snapshot reads at
// heights below h until the seal publishes them. Each key holds an
// immutable version chain (newest first); reads at height h resolve
// the newest version with height <= h using atomics only — the read
// path takes no collection, shard, or order lock. Writes outside a
// block are stamped with the current visible height and become
// visible immediately (the standalone relaxation).
//
// SealBlock retains the last K sealed heights (SetRetain, default
// DefaultRetainHeights) and garbage-collects versions no retained
// height can observe; Floor reports the oldest exact height. Version
// history does not survive a restart: Open recovers every document at
// its logged height but pins the floor to the recovered visible
// height.
package storage

import "smartchaindb/internal/obs"

// TwoPCCollection is the reserved collection the two-phase-commit log
// lives in. It is an ordinary collection at the storage layer (it
// replays from the WAL, survives Compact as a segment, and is
// versioned like any other), but the ledger fingerprint excludes it
// and the docstore never indexes it — it is coordination state, not
// chain state.
const TwoPCCollection = "__twopc__"

// Backend is the persistence layer a docstore.Store runs over. It was
// extracted from the document store's collection primitives so the
// same Store (filters, indexes, document ownership) runs unchanged
// over volatile memory or the durable disk engine.
//
// Concurrency contract: Collection handles are safe for concurrent
// use. A Group serializes against other Groups; mutations issued
// outside an open Group while one is active join that group's
// atomicity (they become durable when the group commits).
type Backend interface {
	// Collection returns the named backend collection, creating it on
	// first use. Creation alone is not durable: an empty collection
	// that never receives a document is not persisted until Compact.
	Collection(name string) Collection
	// CollectionNames lists existing collections, sorted.
	CollectionNames() []string
	// Drop removes a collection and its documents.
	Drop(name string) error
	// Group runs fn and commits every mutation it issues as one
	// atomic, durable unit — on disk, a single WAL record covering
	// the whole group, fsynced once. Reads inside fn observe the
	// group's own writes. If fn returns an error the error is
	// returned, but mutations already applied stay applied in memory;
	// atomicity is a durability guarantee (all-or-nothing on disk
	// after a crash), not a rollback mechanism.
	Group(fn func() error) error
	// Compact checkpoints the log into fresh segment files and waits
	// for it (disk) or is a no-op (memory).
	Compact() error
	// Close flushes and releases the backend. The memory backend
	// forgets everything; the disk engine can be reopened.
	Close() error

	// BeginBlock opens block h: until SealBlock, writes are stamped h
	// and stay invisible to snapshot reads at earlier heights. Blocks
	// are sequential — at most one is open at a time.
	BeginBlock(h int64)
	// SealBlock publishes block h (Visible advances to h) and
	// garbage-collects versions outside the retention window.
	SealBlock(h int64)
	// Visible returns the highest sealed height — the height of the
	// newest committed snapshot.
	Visible() int64
	// Floor returns the lowest height snapshot reads are exact for;
	// reads below it may miss garbage-collected versions.
	Floor() int64
	// StampHeight returns the height the next write is stamped with:
	// the open block's height, or Visible outside a block.
	StampHeight() int64
	// SetRetain sets K, the number of sealed heights retained for
	// snapshot reads (minimum 1, default DefaultRetainHeights).
	SetRetain(k int64)

	// The two-phase-commit log, backing cross-shard transactions. All
	// four operate on TwoPCCollection; on disk, LogPrepare and
	// LogDecision frame dedicated WAL record types (opPrepare,
	// opDecide) so the log's durability points are visible in the
	// byte stream. Inside an open Group they join the group's atomic
	// record — the hook the participant apply uses to make
	// "seal + local decision + prepare removal" one durable unit.

	// LogPrepare durably records a participant PREPARE under key.
	LogPrepare(key string, doc map[string]any) error
	// LogDecision durably records a commit/abort decision under key.
	LogDecision(key string, doc map[string]any) error
	// ClearTwoPC removes a 2PC record; clearing a missing key is a
	// no-op.
	ClearTwoPC(key string) error
	// TwoPCScan visits the surviving 2PC records in insertion order
	// until fn returns false — the recovery walk on reopen.
	TwoPCScan(fn func(key string, doc map[string]any) bool)

	// SetObs attaches an observability registry: WAL group bytes and
	// fsync latency, segment counts, checkpoint durations, and MVCC
	// clock/GC metrics record into it. A nil registry (the default)
	// detaches; recording into the nil handles is a no-op.
	SetObs(reg *obs.Registry)
}

// Collection is one backend collection: an ordered, concurrency-safe
// key → document map. Iteration (Keys, Scan) is in insertion order —
// the determinism the validators' queries rely on. Documents are
// stored by reference and never written to again: Put takes ownership
// of the map it is given, and the reads hand out the stored map itself
// (docstore decides who gets a copy).
type Collection interface {
	// Get returns the stored document (not a copy) and whether it
	// exists. Point reads never lock the whole collection.
	Get(key string) (map[string]any, bool)
	// Put stores doc under key (insert or replace). An insert appends
	// to the iteration order; a replace keeps the original position.
	// Documents must be JSON-representable (string/float64/bool/nil/
	// []any/map[string]any) — the canonical document shape everywhere
	// in this repo — or durability round-trips will change types.
	Put(key string, doc map[string]any) error
	// Delete removes key; deleting a missing key is a no-op.
	Delete(key string) error
	// Has reports whether key exists.
	Has(key string) bool
	// Ords returns the insertion counters for the given keys (missing
	// keys are absent from the result), acquired in one shot so a
	// candidate set costs a single order-lock acquisition. Ords are
	// unique per live key and ascend in insertion order (a replace
	// keeps the original counter), so index-backed readers can
	// reassemble insertion order from point reads without scanning
	// under any collection-wide lock.
	Ords(keys []string) map[string]uint64
	// Len returns the number of documents.
	Len() int
	// Keys returns the live keys in insertion order.
	Keys() []string
	// Scan visits documents in insertion order until fn returns false.
	Scan(fn func(key string, doc map[string]any) bool)

	// The At variants answer the same questions as-of block height h,
	// lock-free: they resolve each key's version chain to the newest
	// version with height <= h. HeightLatest selects the writer view,
	// making Get equivalent to GetAt(key, HeightLatest). Heights below
	// the backend's Floor may miss garbage-collected versions.
	GetAt(key string, h int64) (map[string]any, bool)
	OrdsAt(keys []string, h int64) map[string]uint64
	LenAt(h int64) int
	KeysAt(h int64) []string
	ScanAt(h int64, fn func(key string, doc map[string]any) bool)
}
