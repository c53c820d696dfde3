package docstore

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
)

// Store is a set of named collections over one storage backend. The
// zero value is not usable; call NewStore or NewStoreWith.
type Store struct {
	mu          sync.RWMutex
	backend     storage.Backend
	collections map[string]*Collection
	reg         *obs.Registry
	sweepSpans  *obs.Counter // docstore.index_sweep_spans
}

// NewStore creates an empty store over the in-memory backend.
func NewStore() *Store { return NewStoreWith(storage.NewMemory()) }

// NewStoreWith creates a store over b, adopting every collection the
// backend already holds (a disk backend recovers them at open).
// Secondary indexes are not persisted; callers re-create them after
// open and CreateIndex rebuilds from the recovered documents.
func NewStoreWith(b storage.Backend) *Store {
	s := &Store{backend: b, collections: make(map[string]*Collection)}
	for _, name := range b.CollectionNames() {
		s.collections[name] = newCollection(name, b.Collection(name), b)
	}
	return s
}

// Backend returns the storage backend the store runs over — the
// handle for block-height bracketing (BeginBlock/SealBlock) and the
// snapshot clock (Visible/Floor).
func (s *Store) Backend() storage.Backend { return s.backend }

// SetObs attaches an observability registry to the store, its backend,
// and every collection (existing and future): planner decisions, full
// scans, index probes, snapshot handles, and the backend's WAL / MVCC
// metrics all record into it. A nil registry detaches.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.sweepSpans = reg.Counter("docstore.index_sweep_spans")
	s.backend.SetObs(reg)
	for _, c := range s.collections {
		c.setObs(reg)
	}
}

// Collection returns the named collection, creating it on first use —
// the same lazy semantics MongoDB gives drivers.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c := s.collections[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	return s.locked(name, func() *Collection {
		return newCollection(name, s.backend.Collection(name), s.backend)
	})
}

// locked is the one critical section Collection and Drop share: every
// create and every drop of a collection happens under the store lock,
// so a create/drop race can neither hand out a collection that
// survives its own drop nor resurrect dropped documents through a
// stale handle.
func (s *Store) locked(name string, create func() *Collection) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.collections[name]; c != nil {
		return c
	}
	c := create()
	c.setObs(s.reg)
	s.collections[name] = c
	return c
}

// CollectionNames lists existing collections, sorted.
func (s *Store) CollectionNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend.CollectionNames()
}

// Drop removes a collection, its documents, and its indexes. Handles
// held across the drop become inert: reads miss, writes fail with
// ErrCollectionDropped. Storage failure while logging the drop is
// fatal, like any other lost write.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.collections[name]; c != nil {
		// Mark under the collection's writer lock so any mutation
		// that raced the drop either completed before it or observes
		// the flag — never lands after the backend wiped the data.
		c.mu.Lock()
		c.dropped.Store(true)
		c.mu.Unlock()
		delete(s.collections, name)
	}
	if err := s.backend.Drop(name); err != nil {
		// fail-stop: the collection is already unlinked in memory; a backend that kept its data would resurrect it on reopen.
		panic(fmt.Sprintf("docstore: drop %q: %v", name, err))
	}
}

// SweepIndexes garbage-collects secondary-index lifespans against the
// backend's current retention floor. The ledger calls it after every
// block seal — the moment the floor actually advances — so index GC
// tracks version GC exactly instead of amortizing by mutation count.
// Each index visits only the span lists whose spans the floor has just
// passed (see closedSpans); docstore.index_sweep_spans counts them.
func (s *Store) SweepIndexes() {
	floor := s.backend.Floor()
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	sweepSpans := s.sweepSpans
	s.mu.RUnlock()
	examined := 0
	for _, c := range colls {
		for _, idx := range c.indexMap() {
			examined += idx.sweepFloor(floor)
		}
	}
	sweepSpans.Add(uint64(examined))
}

// Group runs fn and commits every mutation it makes as one atomic,
// durable unit — on the disk backend a single fsynced WAL record, the
// all-or-nothing boundary crash recovery restores. The ledger wraps
// each block commit in one Group.
func (s *Store) Group(fn func() error) error { return s.backend.Group(fn) }

// Compact folds the backend's log into fresh segment files.
func (s *Store) Compact() error { return s.backend.Compact() }

// Close flushes and releases the backend.
func (s *Store) Close() error { return s.backend.Close() }

// Collection is a concurrency-safe set of documents keyed by a string
// primary key. A stored document is an immutable value: Insert and
// Upsert take ownership of the document they are handed, Update
// replaces the version, and nothing writes to a stored document
// again. Get and Find copy on the way out, so their results are the
// caller's own; Borrow and BorrowFind hand a reader the stored
// documents themselves on the promise that it only reads.
//
// Reads come in two flavours. The plain methods (Get, Find, ...) read
// the writer view — the newest version of every document, including
// an in-flight block's writes — which is what writers (read-modify-
// write, duplicate checks) and intra-group readers need. Snapshot /
// SnapshotAt return an immutable as-of-height view whose reads take
// no collection lock and no fence: the MVCC read path.
type Collection struct {
	name string

	// mu guards writers (who must see their own collection's index
	// maintenance atomically) and the dropped flag. Full scans of the
	// writer view hold it shared so they see a stable iteration;
	// point reads, planned (index-backed) reads, and every snapshot
	// read skip it entirely.
	mu sync.RWMutex
	be storage.Collection
	bk storage.Backend

	// indexes maps each indexed dot path to its index. It is
	// copy-on-write: writers swap a fresh map under mu, readers (Plan,
	// FindOrdered) load it with one atomic read.
	indexes atomic.Pointer[map[string]secondaryIndex]

	dropped atomic.Bool
	// ob holds the attached metric handles (nil: observability off;
	// the zero collObs handles are no-ops either way). Full scans,
	// planner decisions, and index probes record through it — the
	// observable the hot-path tests use to assert a query resolves
	// through the planner. Snapshot full scans count too: they are
	// lock-free but still O(collection).
	ob atomic.Pointer[collObs]
}

// collObs is one collection's bundle of cached metric handles.
type collObs struct {
	reg         *obs.Registry
	fullScans   *obs.Counter // docstore.full_scans
	indexProbes *obs.Counter // docstore.index_probes
	candidates  *obs.Counter // docstore.candidates
	snapshots   *obs.Counter // docstore.snapshots
	plan        [AccessUnion + 1]*obs.Counter
	// indexUses counts, per indexed path, the executed plans that
	// drive on or probe the index and the FindOrdered walks over it
	// (docstore.index_uses.<collection>.<path>): which indexes earn
	// their upkeep.
	indexUses map[string]*obs.Counter
	// plans counts compiled plans. Its name, docstore.plan_cache.misses,
	// is left from a deleted plan cache and kept only because the repo
	// benchmark divides docstore.index_probes by it; it becomes
	// docstore.plans with the next benchmark change (ROADMAP item 1(c)).
	plans *obs.Counter
}

// obs returns the collection's handles; detached reads as all-no-op.
func (c *Collection) obs() collObs {
	if ob := c.ob.Load(); ob != nil {
		return *ob
	}
	return collObs{}
}

// setObs attaches (nil: detaches) the collection's metric handles. It
// takes the writer lock so an index being built picks up the registry
// its collection ends up with.
func (c *Collection) setObs(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.ob.Store(nil)
		return
	}
	ob := &collObs{
		reg:         reg,
		fullScans:   reg.Counter("docstore.full_scans"),
		indexProbes: reg.Counter("docstore.index_probes"),
		candidates:  reg.Counter("docstore.candidates"),
		snapshots:   reg.Counter("docstore.snapshots"),
		plans:       reg.Counter("docstore.plan_cache.misses"),
	}
	for k := range ob.plan {
		ob.plan[k] = reg.Counter("docstore.plan." + AccessKind(k).metricName())
	}
	c.ob.Store(ob.withIndexUses(c.name, c.IndexedPaths()))
}

// withIndexUses returns a copy of ob counting uses of the indexes on
// paths besides those it already counts.
func (ob *collObs) withIndexUses(collection string, paths []string) *collObs {
	next := *ob
	next.indexUses = make(map[string]*obs.Counter, len(ob.indexUses)+len(paths))
	for p, ctr := range ob.indexUses {
		next.indexUses[p] = ctr
	}
	for _, p := range paths {
		next.indexUses[p] = ob.reg.Counter("docstore.index_uses." + collection + "." + p)
	}
	return &next
}

// countUses records one use of every index plan a drives on or probes.
func (ob *collObs) countUses(a *Access) {
	if a.Kind == AccessPoint || a.Kind == AccessRange {
		ob.indexUses[a.Path].Inc()
	}
	for _, ch := range a.Children {
		ob.countUses(ch)
	}
}

func newCollection(name string, be storage.Collection, bk storage.Backend) *Collection {
	c := &Collection{name: name, be: be, bk: bk}
	c.indexes.Store(new(map[string]secondaryIndex))
	return c
}

// indexMap returns the current index handles (copy-on-write; never
// mutated in place).
func (c *Collection) indexMap() map[string]secondaryIndex {
	return *c.indexes.Load()
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// ErrDuplicateKey reports an Insert with an existing primary key.
type ErrDuplicateKey struct{ Collection, Key string }

func (e *ErrDuplicateKey) Error() string {
	return fmt.Sprintf("docstore: duplicate key %q in collection %q", e.Key, e.Collection)
}

// ErrNotFound reports a missing primary key.
type ErrNotFound struct{ Collection, Key string }

func (e *ErrNotFound) Error() string {
	return fmt.Sprintf("docstore: key %q not found in collection %q", e.Key, e.Collection)
}

// ErrCollectionDropped reports a write through a handle that outlived
// its collection's Drop.
type ErrCollectionDropped struct{ Collection string }

func (e *ErrCollectionDropped) Error() string {
	return fmt.Sprintf("docstore: collection %q was dropped", e.Collection)
}

// Insert stores doc under key. It fails if the key already exists.
// The collection takes ownership of doc and everything it holds: the
// caller builds it, hands it over, and never writes to it again (it
// may keep reading it — that is a Borrow).
func (c *Collection) Insert(key string, doc map[string]any) error {
	if key == "" {
		return fmt.Errorf("docstore: empty key in collection %q", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped.Load() {
		return &ErrCollectionDropped{Collection: c.name}
	}
	if c.be.Has(key) {
		return &ErrDuplicateKey{Collection: c.name, Key: key}
	}
	if err := c.be.Put(key, doc); err != nil {
		return err
	}
	h := c.bk.StampHeight()
	for _, idx := range c.indexMap() {
		idx.add(key, doc, h)
	}
	return nil
}

// Upsert stores doc under key, replacing any existing document. Like
// Insert, it takes ownership of doc, and refuses the empty key.
func (c *Collection) Upsert(key string, doc map[string]any) error {
	if key == "" {
		return fmt.Errorf("docstore: empty key in collection %q", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped.Load() {
		return &ErrCollectionDropped{Collection: c.name}
	}
	old, existed := c.be.Get(key)
	if err := c.be.Put(key, doc); err != nil {
		return err
	}
	if existed {
		c.reindex(key, old, doc)
		return nil
	}
	h := c.bk.StampHeight()
	for _, idx := range c.indexMap() {
		idx.add(key, doc, h)
	}
	return nil
}

// Get returns a copy of the document stored under key (writer view).
func (c *Collection) Get(key string) (map[string]any, error) {
	doc, ok := c.Borrow(key)
	if !ok {
		return nil, &ErrNotFound{Collection: c.name, Key: key}
	}
	return deepCopyMap(doc), nil
}

// Borrow returns the document stored under key itself (writer view),
// not a copy, and whether it exists. The document is read-only: the
// caller must not write to it or to anything it holds, and must not
// hand it to code that might. In return it may keep it as long as it
// likes — a stored document is never written to again (Insert and
// Upsert own what they are handed, Update and Delete replace the
// version, and the MVCC chains only ever unlink one), so the borrowed
// value stays what it was when it was read. Get is for everyone else.
func (c *Collection) Borrow(key string) (map[string]any, bool) {
	return c.BorrowAt(key, storage.HeightLatest)
}

// BorrowAt is Borrow as of block height h — Snapshot.Borrow without
// the Snapshot, for a caller that reads one key per view (SnapshotAt
// says which heights are exact).
func (c *Collection) BorrowAt(key string, h int64) (map[string]any, bool) {
	if c.dropped.Load() {
		return nil, false
	}
	return c.be.GetAt(key, h)
}

// Has reports whether key exists (writer view).
func (c *Collection) Has(key string) bool { return !c.dropped.Load() && c.be.Has(key) }

// Delete removes the document under key. Deleting a missing key is a
// no-op, matching MongoDB's deleteOne semantics.
func (c *Collection) Delete(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped.Load() {
		return &ErrCollectionDropped{Collection: c.name}
	}
	old, ok := c.be.Get(key)
	if !ok {
		return nil
	}
	if err := c.be.Delete(key); err != nil {
		return err
	}
	h := c.bk.StampHeight()
	for _, idx := range c.indexMap() {
		idx.remove(key, old, h)
	}
	return nil
}

// Update applies fn to a copy of the document under key and stores the
// result atomically. fn returning an error aborts the update. The copy
// is of the top level only: fn may assign and delete top-level keys,
// and what it assigns the collection then owns, as with Insert.
// Everything below the top level is shared with the version being
// replaced and is read-only — to change a nested value, fn builds the
// new one and assigns it.
func (c *Collection) Update(key string, fn func(doc map[string]any) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped.Load() {
		return &ErrCollectionDropped{Collection: c.name}
	}
	old, ok := c.be.Get(key)
	if !ok {
		return &ErrNotFound{Collection: c.name, Key: key}
	}
	next := maps.Clone(old)
	if err := fn(next); err != nil {
		return err
	}
	if err := c.be.Put(key, next); err != nil {
		return err
	}
	c.reindex(key, old, next)
	return nil
}

// reindex is the index upkeep of replacing the document under key:
// only the indexes whose path reaches different values in old and next,
// or whose predicate the replacement enters or leaves, do any work — a
// mark-spent closes the postings of the indexes partial on unspent
// outputs, and an update of an unindexed field does nothing. Caller
// holds mu.
func (c *Collection) reindex(key string, old, next map[string]any) {
	h := c.bk.StampHeight()
	for _, idx := range c.indexMap() {
		if idx.unchanged(old, next) {
			continue
		}
		idx.remove(key, old, h)
		idx.add(key, next, h)
	}
}

// Len returns the number of documents (writer view).
func (c *Collection) Len() int {
	if c.dropped.Load() {
		return 0
	}
	return c.be.Len()
}

// Keys returns the live keys in insertion order (writer view).
func (c *Collection) Keys() []string {
	if c.dropped.Load() {
		return nil
	}
	return c.be.Keys()
}

// Where is a partial index's predicate: the index holds a document
// only while Eq(Path, Value) matches it. The zero Where indexes every
// document.
type Where struct {
	Path  string
	Value any
}

// CreateIndex builds (or rebuilds) a hash index over the dot-path
// field. Equality filters on the path then use the index instead of a
// collection scan. Array values index every element, like MongoDB
// multikey indexes.
func (c *Collection) CreateIndex(path string) { c.CreateIndexWhere(path, false, Where{}) }

// CreateOrderedIndex builds (or rebuilds) a sorted multikey index over
// the dot-path field. On top of everything a hash index answers, it
// serves the comparison operators (Gt, Gte, Lt, Lte) as range scans
// and value-ordered iteration (FindOrdered). It replaces any existing
// index on the path.
func (c *Collection) CreateOrderedIndex(path string) { c.CreateIndexWhere(path, true, Where{}) }

// CreateIndexWhere builds (or rebuilds) a hash or ordered index over
// the dot-path field that holds only the documents matching where — a
// partial index, like PostgreSQL's: a document is indexed exactly while
// its current version matches, and leaving the predicate at height h
// closes its postings at h as a value change does. The planner uses
// the index only for a filter whose top-level And holds
// Eq(where.Path, where.Value) (a bare Eq counts as an And of one), and
// FindOrdered walks it only under such a filter; any other filter
// plans as if the path had no index. A zero where builds the full
// index CreateIndex and CreateOrderedIndex do.
func (c *Collection) CreateIndexWhere(path string, ordered bool, where Where) {
	if ordered {
		c.buildIndex(path, newOrderedIndex(path, where))
	} else {
		c.buildIndex(path, newHashIndex(path, where))
	}
}

// buildIndex populates idx from the current documents and installs it
// under the collection's writer lock, so no mutation can slip between
// the backfill scan and the index going live. Backfilled lifespans
// are born at height 0 — a deliberate over-claim: snapshot reads
// re-resolve every candidate against version chains and re-apply the
// filter, so an over-inclusive candidate set can never produce a
// wrong result, while documents deleted before the index existed are
// unreachable below the backend floor anyway (the chain-state indexes
// are built at open, when floor == visible). The empty sweep tells the
// index where the floor already stands.
func (c *Collection) buildIndex(path string, idx secondaryIndex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.be.Scan(func(key string, doc map[string]any) bool {
		idx.add(key, doc, 0)
		return true
	})
	idx.sweepFloor(c.bk.Floor())
	cur := c.indexMap()
	next := make(map[string]secondaryIndex, len(cur)+1)
	for p, ix := range cur {
		next[p] = ix
	}
	next[path] = idx
	c.indexes.Store(&next)
	if ob := c.ob.Load(); ob != nil {
		c.ob.Store(ob.withIndexUses(c.name, []string{path}))
	}
}

// DropIndex removes the index on path and reports whether one existed.
// Queries on the path fall back to full scans from the next plan on.
func (c *Collection) DropIndex(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.indexMap()
	if _, ok := cur[path]; !ok {
		return false
	}
	next := make(map[string]secondaryIndex, len(cur)-1)
	for p, ix := range cur {
		if p != path {
			next[p] = ix
		}
	}
	c.indexes.Store(&next)
	return true
}

// IndexedPaths lists the indexed dot-paths, sorted.
func (c *Collection) IndexedPaths() []string {
	m := c.indexMap()
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Snapshot returns an immutable read view of the collection at the
// backend's current visible height — the newest committed snapshot.
func (c *Collection) Snapshot() *Snapshot { return c.SnapshotAt(c.bk.Visible()) }

// SnapshotAt returns an immutable read view of the collection as of
// block height h. Every read through the view resolves against
// height-stamped version chains and per-version index lifespans with
// no fence wait and no collection or shard lock; an in-flight block's
// writes are invisible until that block seals. Heights must lie in
// [Backend().Floor(), Backend().Visible()] for exact results; older
// heights may miss garbage-collected versions ("snapshot too old").
func (c *Collection) SnapshotAt(h int64) *Snapshot {
	c.obs().snapshots.Inc()
	return &Snapshot{c: c, h: h}
}

// Find returns copies of all documents matching filter, in insertion
// order (writer view). A nil filter matches everything.
func (c *Collection) Find(filter Filter) []map[string]any {
	return c.FindLimit(filter, 0)
}

// FindLimit is Find with a result cap; limit <= 0 means unlimited.
func (c *Collection) FindLimit(filter Filter, limit int) []map[string]any {
	return copyDocs(c.borrowLimitAt(storage.HeightLatest, filter, limit))
}

// BorrowFind is Find without the copies: the matching stored documents
// themselves, read-only under Borrow's contract. It is for in-program
// readers that decode or inspect each hit and let it go; Find is for
// documents that leave the program.
func (c *Collection) BorrowFind(filter Filter) []map[string]any {
	return c.borrowLimitAt(storage.HeightLatest, filter, 0)
}

// borrowLimitAt collects the stored documents matching filter at
// height h, up to limit. The slice is the caller's; the documents are
// borrowed.
func (c *Collection) borrowLimitAt(h int64, filter Filter, limit int) []map[string]any {
	var out []map[string]any
	c.visitCandidatesAt(h, filter, func(_ string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			out = append(out, doc)
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	})
	return out
}

// FindKeys returns the keys of matching documents in insertion order.
func (c *Collection) FindKeys(filter Filter) []string {
	return c.findKeysAt(storage.HeightLatest, filter)
}

func (c *Collection) findKeysAt(h int64, filter Filter) []string {
	var out []string
	c.visitCandidatesAt(h, filter, func(key string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			out = append(out, key)
		}
		return true
	})
	return out
}

// FindOne returns the first matching document, or ErrNotFound.
func (c *Collection) FindOne(filter Filter) (map[string]any, error) {
	res := c.FindLimit(filter, 1)
	if len(res) == 0 {
		return nil, &ErrNotFound{Collection: c.name, Key: "<filter>"}
	}
	return res[0], nil
}

// Count returns the number of matching documents.
func (c *Collection) Count(filter Filter) int {
	return c.countAt(storage.HeightLatest, filter)
}

func (c *Collection) countAt(h int64, filter Filter) int {
	n := 0
	c.visitCandidatesAt(h, filter, func(_ string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			n++
		}
		return true
	})
	return n
}

// visitCandidatesAt is the single dispatch every query path shares: a
// dropped collection yields nothing; a filter the planner can compile
// onto indexes goes through the sharded visit path (no collection
// lock); everything else full-scans — under the collection read lock
// for the writer view, lock-free over the version chains for a
// snapshot height. fn must apply the filter itself — candidates from
// a plan are a superset of matches.
func (c *Collection) visitCandidatesAt(h int64, filter Filter, fn func(key string, doc map[string]any) bool) {
	if c.dropped.Load() {
		return
	}
	plan := c.Plan(filter)
	if k := int(plan.Kind); k >= 0 && k < len(c.obs().plan) {
		c.obs().plan[k].Inc()
	}
	if keys, ok := resolveAccess(plan, h); ok {
		c.shardedVisitAt(h, keys, fn)
		return
	}
	c.scanVisitAt(h, fn)
}

// scanVisitAt is the full-scan path. At HeightLatest it scans the
// writer view under the collection read lock — serialized, like every
// write, behind the commit writer. At a snapshot height it walks the
// iteration log and version chains with no lock at all.
func (c *Collection) scanVisitAt(h int64, fn func(key string, doc map[string]any) bool) {
	c.obs().fullScans.Inc()
	if h == storage.HeightLatest {
		c.mu.RLock()
		defer c.mu.RUnlock()
		c.be.Scan(fn)
		return
	}
	c.be.ScanAt(h, fn)
}

// shardedVisitAt is the planned path: it resolves index candidate
// keys through lock-free point reads at height h, restores insertion
// order from the version chains' ord counters, and streams the
// documents to fn — never taking the collection lock, so index-backed
// queries (the UTXO / spent-set lookups of block validation) never
// serialize behind the commit writer. At HeightLatest the view is
// per-document consistent (a query racing a writer may miss or see
// the writer's in-flight keys); at a snapshot height it is exactly
// the sealed state of that block.
func (c *Collection) shardedVisitAt(h int64, keys []string, fn func(key string, doc map[string]any) bool) {
	type cand struct {
		key string
		ord uint64
	}
	seen := make(map[string]struct{}, len(keys))
	unique := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		unique = append(unique, k)
	}
	ords := c.be.OrdsAt(unique, h)
	cands := make([]cand, 0, len(ords))
	for _, k := range unique {
		if ord, ok := ords[k]; ok {
			cands = append(cands, cand{key: k, ord: ord})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ord < cands[j].ord })
	// Documents fetch lazily inside the streaming loop, so a limited
	// query (FindOne, FindLimit) that stops early skips the remaining
	// point reads — the early exit the ordered scan used to provide.
	for _, it := range cands {
		doc, ok := c.be.GetAt(it.key, h)
		if !ok {
			continue
		}
		if !fn(it.key, doc) {
			return
		}
	}
}

// FindOrdered returns copies of the documents matching filter in
// index-value order over orderPath — ascending, or fully reversed when
// desc — with ties broken by insertion order; limit <= 0 means
// unlimited. Documents with no scalar value at orderPath are excluded,
// and a multikey document sorts at its smallest (largest when desc)
// value.
//
// With an ordered index on orderPath the walk streams value groups
// lazily off the index plus lock-free point reads — no collection
// lock, O(group) index-lock holds, and an early limit stops the walk
// after O(limit) work. Without one — or with a partial one whose
// predicate the filter's top-level And does not hold — it falls back
// to a full scan plus sort.
func (c *Collection) FindOrdered(filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	return copyDocs(c.borrowOrderedAt(storage.HeightLatest, filter, orderPath, desc, limit))
}

// borrowOrderedAt is FindOrdered at height h, returning the stored
// documents themselves (borrowed).
func (c *Collection) borrowOrderedAt(h int64, filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	if c.dropped.Load() {
		return nil
	}
	ord, ok := c.indexMap()[orderPath].(*orderedIndex)
	if !ok || (ord.where != nil && !implies(Analyze(filter), ord.where)) {
		// No ordered index, or a partial one the filter does not confine
		// itself to: it would miss the documents outside its predicate.
		return c.findOrderedScanAt(h, filter, orderPath, desc, limit)
	}
	ob := c.obs()
	ob.indexUses[orderPath].Inc()
	var out []map[string]any
	seen := make(map[string]struct{}) // multikey docs appear under several values
	cur := ord.groups(desc)
	for {
		group, more := cur.next(h)
		if !more {
			return out
		}
		ob.candidates.Add(uint64(len(group)))
		fresh := group[:0]
		for _, k := range group {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			fresh = append(fresh, k)
		}
		ords := c.be.OrdsAt(fresh, h)
		kept := fresh[:0]
		for _, k := range fresh {
			if _, live := ords[k]; live {
				kept = append(kept, k)
			}
		}
		sort.Slice(kept, func(i, j int) bool {
			if desc {
				return ords[kept[i]] > ords[kept[j]]
			}
			return ords[kept[i]] < ords[kept[j]]
		})
		for _, k := range kept {
			doc, live := c.be.GetAt(k, h)
			if !live {
				continue
			}
			if filter == nil || filter.Matches(doc) {
				out = append(out, deepCopyMap(doc))
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
}

// findOrderedScanAt is FindOrdered's no-index fallback: scan, sort by
// the extreme scalar value at orderPath, then cut to limit. Like
// borrowOrderedAt, it returns the stored documents.
func (c *Collection) findOrderedScanAt(h int64, filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	type item struct {
		doc map[string]any
		val ordValue
		seq int
	}
	var items []item
	seq := 0
	path := splitPath(orderPath)
	c.scanVisitAt(h, func(_ string, doc map[string]any) bool {
		seq++
		if filter != nil && !filter.Matches(doc) {
			return true
		}
		val, ok := extremeOrdValue(doc, path, desc)
		if !ok {
			return true
		}
		items = append(items, item{doc: doc, val: val, seq: seq})
		return true
	})
	sort.SliceStable(items, func(i, j int) bool {
		cmp := items[i].val.compare(items[j].val)
		if cmp == 0 {
			cmp = items[i].seq - items[j].seq
		}
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	out := make([]map[string]any, len(items))
	for i, it := range items {
		out[i] = it.doc
	}
	return out
}

// Snapshot is an immutable as-of-height read view of one collection.
// Every method resolves documents and index candidates as they stood
// when the view's block height sealed, touching no fence, collection
// lock, or shard lock — concurrent block commits can neither block
// nor be observed by a snapshot read. Views are cheap (two words);
// take a fresh one per logical read for the newest sealed state.
type Snapshot struct {
	c *Collection
	h int64
}

// Height returns the block height the view reads as of.
func (s *Snapshot) Height() int64 { return s.h }

// Get returns a copy of the document under key as of the view height.
func (s *Snapshot) Get(key string) (map[string]any, error) {
	doc, ok := s.Borrow(key)
	if !ok {
		return nil, &ErrNotFound{Collection: s.c.name, Key: key}
	}
	return deepCopyMap(doc), nil
}

// Borrow is Collection.Borrow as of the view height: the stored
// document itself, read-only.
func (s *Snapshot) Borrow(key string) (map[string]any, bool) {
	return s.c.BorrowAt(key, s.h)
}

// Has reports whether key existed at the view height.
func (s *Snapshot) Has(key string) bool {
	_, ok := s.Borrow(key)
	return ok
}

// Len returns the number of documents at the view height.
func (s *Snapshot) Len() int {
	if s.c.dropped.Load() {
		return 0
	}
	return s.c.be.LenAt(s.h)
}

// Keys returns the keys at the view height in insertion order.
func (s *Snapshot) Keys() []string {
	if s.c.dropped.Load() {
		return nil
	}
	return s.c.be.KeysAt(s.h)
}

// Find returns copies of all documents matching filter at the view
// height, in insertion order.
func (s *Snapshot) Find(filter Filter) []map[string]any { return s.FindLimit(filter, 0) }

// FindLimit is Find with a result cap; limit <= 0 means unlimited.
func (s *Snapshot) FindLimit(filter Filter, limit int) []map[string]any {
	return copyDocs(s.BorrowFindLimit(filter, limit))
}

// BorrowFind is Collection.BorrowFind as of the view height: the
// matching stored documents themselves, read-only.
func (s *Snapshot) BorrowFind(filter Filter) []map[string]any { return s.BorrowFindLimit(filter, 0) }

// BorrowFindLimit is BorrowFind with a result cap; limit <= 0 means
// unlimited.
func (s *Snapshot) BorrowFindLimit(filter Filter, limit int) []map[string]any {
	return s.c.borrowLimitAt(s.h, filter, limit)
}

// FindKeys returns the keys of matching documents in insertion order.
func (s *Snapshot) FindKeys(filter Filter) []string { return s.c.findKeysAt(s.h, filter) }

// FindOne returns the first matching document, or ErrNotFound.
func (s *Snapshot) FindOne(filter Filter) (map[string]any, error) {
	res := s.FindLimit(filter, 1)
	if len(res) == 0 {
		return nil, &ErrNotFound{Collection: s.c.name, Key: "<filter>"}
	}
	return res[0], nil
}

// Count returns the number of matching documents at the view height.
func (s *Snapshot) Count(filter Filter) int { return s.c.countAt(s.h, filter) }

// FindOrdered is Collection.FindOrdered as of the view height.
func (s *Snapshot) FindOrdered(filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	return copyDocs(s.BorrowFindOrdered(filter, orderPath, desc, limit))
}

// BorrowFindOrdered is FindOrdered without the copies: the stored
// documents themselves, read-only.
func (s *Snapshot) BorrowFindOrdered(filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	return s.c.borrowOrderedAt(s.h, filter, orderPath, desc, limit)
}

// extremeOrdValue finds the smallest (largest when max) scalar value a
// document reaches at path, flattening arrays like the indexes do.
func extremeOrdValue(doc map[string]any, path indexPath, max bool) (ordValue, bool) {
	var best ordValue
	have := false
	var visit func(v any)
	visit = func(v any) {
		if arr, isArr := v.([]any); isArr {
			for _, e := range arr {
				visit(e)
			}
			return
		}
		ov, ok := ordValueOf(v)
		if !ok {
			return
		}
		if !have {
			best, have = ov, true
			return
		}
		if cmp := ov.compare(best); (max && cmp > 0) || (!max && cmp < 0) {
			best = ov
		}
	}
	path.each(doc, visit)
	return best, have
}

// copyDocs replaces each borrowed document in docs with the caller's
// own deep copy — the copy-out of Find and FindOrdered.
func copyDocs(docs []map[string]any) []map[string]any {
	for i, doc := range docs {
		docs[i] = deepCopyMap(doc)
	}
	return docs
}

func deepCopyMap(m map[string]any) map[string]any {
	if m == nil {
		return nil
	}
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = deepCopyValue(v)
	}
	return out
}

func deepCopyValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		return deepCopyMap(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = deepCopyValue(e)
		}
		return out
	default:
		return v
	}
}
