package storage

import (
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"smartchaindb/internal/obs"
)

// memObs holds the MVCC metric handles both backends' memtables record
// into. The zero value's nil handles are no-ops, so collections never
// branch on whether observability is attached.
type memObs struct {
	prunedVersions *obs.Counter   // storage.mvcc.pruned_versions
	prunedChains   *obs.Counter   // storage.mvcc.pruned_chains
	chainLen       *obs.Histogram // storage.mvcc.chain_len (per GC'd key)
	gcCollections  *obs.Counter   // storage.mvcc.gc_collections (visited by seals)
	visible        *obs.Gauge     // storage.mvcc.visible_height
	floor          *obs.Gauge     // storage.mvcc.floor_height
}

func newMemObs(reg *obs.Registry) *memObs {
	if reg == nil {
		return &memObs{}
	}
	return &memObs{
		prunedVersions: reg.Counter("storage.mvcc.pruned_versions"),
		prunedChains:   reg.Counter("storage.mvcc.pruned_chains"),
		chainLen:       reg.Histogram("storage.mvcc.chain_len"),
		gcCollections:  reg.Counter("storage.mvcc.gc_collections"),
		visible:        reg.Gauge("storage.mvcc.visible_height"),
		floor:          reg.Gauge("storage.mvcc.floor_height"),
	}
}

// HeightLatest selects the writer view: the newest version of every
// key, including writes of a block that is still being applied. It is
// the height writers and intra-group readers use; committed snapshot
// readers pass a real block height instead.
const HeightLatest int64 = math.MaxInt64

// DefaultRetainHeights is K, the number of sealed block heights whose
// versions a collection retains for snapshot reads. Versions that no
// retained height can observe are garbage-collected at seal.
const DefaultRetainHeights = 8

// verClock is the backend's height clock. Writers stamp versions with
// the open block height (or the visible height outside a block);
// readers resolve against visible; GC trails at floor.
//
//	floor <= visible <= write (while a block is open)
//
// Snapshot reads are exact for heights in [floor, visible]. Reads
// below floor are "snapshot too old": GC may already have truncated
// the versions that height would need.
type verClock struct {
	write   atomic.Int64 // open block height; 0 = no block open
	visible atomic.Int64 // highest sealed height
	floor   atomic.Int64 // lowest height snapshot reads are exact for
	retain  atomic.Int64 // K: sealed heights kept for snapshots
}

// stamp returns the height the next write is tagged with: the open
// block's height, or — outside a block — the visible height, making
// standalone writes immediately visible (the documented relaxation
// for non-block usage).
func (c *verClock) stamp() int64 {
	if w := c.write.Load(); w > 0 {
		return w
	}
	return c.visible.Load()
}

// docVersion is one immutable version of a document. A key's newest
// version is also the key's entry in its collection's table, which is
// why it carries the key: a stored key costs this one record and a
// log entry. A nil doc is a tombstone. prev points at the next-older
// version; it is only ever rewritten by GC, which cuts links no
// supported snapshot can follow.
type docVersion struct {
	key    string
	doc    map[string]any
	height int64
	ord    uint64
	prev   atomic.Pointer[docVersion]
}

// at resolves the chain starting at v at height h: the newest version
// whose height is <= h, or nil if the key did not exist at h.
func (v *docVersion) at(h int64) *docVersion {
	for ; v != nil; v = v.prev.Load() {
		if v.height <= h {
			return v
		}
	}
	return nil
}

// vacated fills the table slot of a removed key. A probe steps over
// it; the next rebuild of the table drops it.
var vacated = new(docVersion)

// verTable is a collection's key index: open addressing with linear
// probing over a power-of-two slot array, hashed with hash/maphash.
// A slot is nil (never used; it ends a probe), vacated, or a key's
// newest version. The collection's one writer (under wmu) stores into
// the current table; readers load the table and its slots atomically
// and take no lock. A table is never written again once a rebuild has
// replaced it: the writer fills the replacement completely, then
// publishes it, so a reader still probing the old table sees every
// key as of the swap.
type verTable struct {
	slots []atomic.Pointer[docVersion]
	seed  maphash.Seed
}

// verTableMinSlots is the size of an empty collection's table.
const verTableMinSlots = 8

// find returns key's newest version, or nil. The table is at most half
// full, so a probe always ends at a nil slot.
func (t *verTable) find(key string) *docVersion {
	mask := uint64(len(t.slots) - 1)
	for i := maphash.String(t.seed, key) & mask; ; i = (i + 1) & mask {
		v := t.slots[i].Load()
		if v == nil {
			return nil
		}
		if v != vacated && v.key == key {
			return v
		}
	}
}

// slot returns key's slot and its head or, for a key the table lacks,
// the slot an insert takes (the first vacated one on the probe path,
// else the nil that ended it) and nil. Caller holds wmu.
func (t *verTable) slot(key string) (*atomic.Pointer[docVersion], *docVersion) {
	mask := uint64(len(t.slots) - 1)
	var free *atomic.Pointer[docVersion]
	for i := maphash.String(t.seed, key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch v := s.Load(); {
		case v == nil:
			if free == nil {
				free = s
			}
			return free, nil
		case v == vacated:
			if free == nil {
				free = s
			}
		case v.key == key:
			return s, v
		}
	}
}

// entry is one slot of a collection's append-only iteration log: the
// key and the insertion counter it was (re)inserted with. An entry is
// emitted by a scan at height h iff the key's chain resolves at h to a
// live version carrying the same ord — which both dedups re-inserts
// (only the current ord matches) and hides deleted keys. An entry
// holds the key, not its version: a version it pointed at would stay
// alive, document and all, after a rewrite or GC had cut it from its
// chain.
type entry struct {
	key string
	ord uint64
}

// entrySeg is one fixed-capacity segment of the iteration log. The
// writer stores the element before publishing the new length, so a
// reader that observes n may read buf[:n] without any lock.
type entrySeg struct {
	buf  []entry
	n    atomic.Int64
	next atomic.Pointer[entrySeg]
}

// A log segment doubles from entrySegMinCap up to entrySegMaxCap
// entries, so the unused tail of the newest one is at most 96 KiB.
const (
	entrySegMinCap = 64
	entrySegMaxCap = 1 << 12
)

// dirtyRun is one height of a collection's GC worklist: the keys whose
// first write at height h was a put or a delete.
type dirtyRun struct {
	h    int64
	keys []string
}

// gcQueue is a backend's GC schedule: every collection whose worklist
// is not empty, filed under the height of the worklist's front run. A
// seal takes the collections filed at or below its horizon and visits
// no other.
type gcQueue struct {
	mu  sync.Mutex
	due map[int64][]*MemCollection
}

func (q *gcQueue) add(h int64, c *MemCollection) {
	q.mu.Lock()
	if q.due == nil {
		q.due = make(map[int64][]*MemCollection)
	}
	q.due[h] = append(q.due[h], c)
	q.mu.Unlock()
}

// take removes and returns the collections filed at or below horizon.
func (q *gcQueue) take(horizon int64) []*MemCollection {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*MemCollection
	for h, cs := range q.due {
		if h <= horizon {
			out = append(out, cs...)
			delete(q.due, h)
		}
	}
	return out
}

// MemCollection is the in-memory MVCC collection both backends share:
// the memory backend stores documents here directly, and the disk
// engine keeps it as the always-resident working set in front of the
// WAL and segments. Every key holds an immutable version chain stamped
// with block heights, its head in a slot of the collection's table;
// reads resolve a height against the table, the chains and the
// iteration log with atomics only — no collection or order lock
// exists on the read path. Writers serialize on one mutex.
type MemCollection struct {
	name  string
	clock *verClock
	// ob points at the owning backend's attached metric handles; a
	// stored nil (never attached) reads as all-no-op handles.
	ob  *atomic.Pointer[memObs]
	gcq *gcQueue

	table atomic.Pointer[verTable]
	log   atomic.Pointer[entrySeg]
	live  atomic.Int64 // keys live in the writer view

	// wmu serializes writers (and GC). Readers never take it.
	wmu     sync.Mutex
	keys    int // heads in the table, tombstones included
	used    int // table slots that are not nil: heads and vacated
	tail    *entrySeg
	nextOrd uint64
	dead    int // log entries no snapshot can resolve
	// dirty is the GC worklist in write order, which is height order
	// unless a block was opened or sealed below one already written;
	// GC takes runs from the front while they are at or below its
	// horizon, so such a run only waits for the runs ahead of it.
	dirty  []dirtyRun
	queued bool // filed on gcq, or taken by a seal not yet done
}

func newMemCollection(name string, clock *verClock, ob *atomic.Pointer[memObs], gcq *gcQueue) *MemCollection {
	c := &MemCollection{name: name, clock: clock, ob: ob, gcq: gcq}
	c.table.Store(&verTable{slots: make([]atomic.Pointer[docVersion], verTableMinSlots), seed: maphash.MakeSeed()})
	seg := &entrySeg{buf: make([]entry, entrySegMinCap)}
	c.log.Store(seg)
	c.tail = seg
	return c
}

// install stores v in slot s, which holds head — nil when v's key is
// new to the table. An insert that would fill more than half the slots
// rebuilds the table first. Caller holds wmu.
func (c *MemCollection) install(s *atomic.Pointer[docVersion], head, v *docVersion) {
	if head == nil {
		if s.Load() == nil {
			if t := c.table.Load(); (c.used+1)*2 > len(t.slots) {
				s, _ = c.rebuild(t, c.keys+1).slot(v.key)
			}
			c.used++
		}
		c.keys++
	}
	s.Store(v)
}

// remove vacates the slot of a key no supported snapshot can see.
// Caller holds wmu.
func (c *MemCollection) remove(s *atomic.Pointer[docVersion]) {
	s.Store(vacated)
	c.keys--
}

// rebuild publishes a table with room for n keys at most half full,
// holding every head of t and none of its vacated slots, and returns
// it. Caller holds wmu.
func (c *MemCollection) rebuild(t *verTable, n int) *verTable {
	size := verTableMinSlots
	for size < 2*n {
		size *= 2
	}
	nt := &verTable{slots: make([]atomic.Pointer[docVersion], size), seed: t.seed}
	mask := uint64(size - 1)
	for i := range t.slots {
		v := t.slots[i].Load()
		if v == nil || v == vacated {
			continue
		}
		j := maphash.String(nt.seed, v.key) & mask
		for nt.slots[j].Load() != nil {
			j = (j + 1) & mask
		}
		nt.slots[j].Store(v)
	}
	c.used = c.keys
	c.table.Store(nt)
	return nt
}

// appendEntry publishes one log entry. Caller holds wmu.
func (c *MemCollection) appendEntry(e entry) {
	t := c.tail
	n := t.n.Load()
	if int(n) == len(t.buf) {
		ns := &entrySeg{buf: make([]entry, min(len(t.buf)*2, entrySegMaxCap))}
		t.next.Store(ns)
		c.tail = ns
		t, n = ns, 0
	}
	t.buf[n] = e
	t.n.Store(n + 1)
}

// markDirty files key under height h in the GC worklist, so seal-time
// GC finds its chain once h falls past the retention horizon. Writers
// call it for a key's first write at h only. Caller holds wmu.
func (c *MemCollection) markDirty(key string, h int64) {
	if n := len(c.dirty); n > 0 && c.dirty[n-1].h == h {
		c.dirty[n-1].keys = append(c.dirty[n-1].keys, key)
		return
	}
	c.dirty = append(c.dirty, dirtyRun{h: h, keys: []string{key}})
	if !c.queued {
		c.queued = true
		c.gcq.add(h, c)
	}
}

// GetAt returns the document visible at height h.
func (c *MemCollection) GetAt(key string, h int64) (map[string]any, bool) {
	ver := c.table.Load().find(key).at(h)
	if ver == nil || ver.doc == nil {
		return nil, false
	}
	return ver.doc, true
}

// Get returns the stored document in the writer view.
func (c *MemCollection) Get(key string) (map[string]any, bool) {
	return c.GetAt(key, HeightLatest)
}

// Has reports whether key exists in the writer view.
func (c *MemCollection) Has(key string) bool {
	_, ok := c.Get(key)
	return ok
}

// Put stores doc under key, stamped with the clock's current height.
func (c *MemCollection) Put(key string, doc map[string]any) error {
	tripStored(c.clock, c.name, key, doc)
	c.wmu.Lock()
	c.putAt(key, doc, c.clock.stamp())
	c.wmu.Unlock()
	return nil
}

// putAt installs a new version of key at height h. Caller holds wmu.
func (c *MemCollection) putAt(key string, doc map[string]any, h int64) {
	s, head := c.table.Load().slot(key)
	if head != nil {
		// Every version of a key shares the first one's key string.
		key = head.key
		if h < head.height {
			// Heights only move forward; treat a stale stamp as a
			// same-height rewrite of the newest version.
			h = head.height
		}
	}
	v := &docVersion{key: key, doc: doc, height: h}
	switch {
	case head == nil || head.doc == nil:
		// Fresh insert (a new key, or over a tombstone): new insertion
		// counter and a new log entry.
		v.ord = c.nextOrd
		c.nextOrd++
		if head != nil && head.height == h {
			v.prev.Store(head.prev.Load())
		} else {
			v.prev.Store(head)
		}
		c.appendEntry(entry{key: key, ord: v.ord})
		c.live.Add(1)
		if head != nil {
			// The tombstone's entry (its pre-delete ord) can now only
			// resolve through history; once that history is below the
			// floor the entry is dead weight.
			c.dead++
		}
	case head.height == h:
		// Same-height rewrite: collapse — a chain never holds two
		// versions of one height, so chains stay one node per block.
		v.ord = head.ord
		v.prev.Store(head.prev.Load())
	default:
		v.ord = head.ord
		v.prev.Store(head)
	}
	if h <= c.clock.floor.Load() {
		// No supported snapshot can see anything older.
		v.prev.Store(nil)
	}
	if head == nil || head.height != h {
		c.markDirty(key, h)
	}
	c.install(s, head, v)
}

// Delete removes key at the clock's current height; missing keys are a
// no-op.
func (c *MemCollection) Delete(key string) error {
	c.wmu.Lock()
	c.deleteAt(key, c.clock.stamp())
	c.wmu.Unlock()
	return nil
}

// deleteAt installs a tombstone for key at height h. Caller holds wmu.
func (c *MemCollection) deleteAt(key string, h int64) {
	s, head := c.table.Load().slot(key)
	if head == nil || head.doc == nil {
		return
	}
	if h < head.height {
		h = head.height
	}
	c.live.Add(-1)
	c.dead++
	prev := head
	if head.height == h {
		prev = head.prev.Load()
	} else {
		// Filed even when the key leaves the table below: the seal
		// that collects h compacts the log its entry now clutters.
		c.markDirty(head.key, h)
	}
	if h <= c.clock.floor.Load() || prev == nil {
		// No snapshot can observe the key anymore — it is deleted at or
		// below the floor (the entire delete path for stores that never
		// seal blocks), or it was inserted above the floor and has no
		// history: vacate its slot outright.
		c.remove(s)
		return
	}
	t := &docVersion{key: head.key, height: h, ord: head.ord}
	t.prev.Store(prev)
	s.Store(t)
}

// putLoaded stores a document recovered from a segment with its
// original insertion counter and birth height. The caller finishes
// with finishLoad.
func (c *MemCollection) putLoaded(key string, doc map[string]any, ord uint64, h int64) {
	tripStored(c.clock, c.name, key, doc)
	c.wmu.Lock()
	s, head := c.table.Load().slot(key)
	if head == nil {
		c.appendEntry(entry{key: key, ord: ord})
		c.live.Add(1)
	} else {
		key = head.key
	}
	c.install(s, head, &docVersion{key: key, doc: doc, height: h, ord: ord})
	c.nextOrd = max(c.nextOrd, ord+1)
	c.wmu.Unlock()
}

// finishLoad restores insertion order after segment loading (segments
// are key-sorted, iteration order is ord-sorted).
func (c *MemCollection) finishLoad() {
	c.wmu.Lock()
	var all []entry
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		n := seg.n.Load()
		all = append(all, seg.buf[:n]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ord < all[j].ord })
	c.resetLog(all)
	c.wmu.Unlock()
}

// putReplay / deleteReplay apply one recovered WAL mutation at its
// logged height.
func (c *MemCollection) putReplay(key string, doc map[string]any, h int64) {
	tripStored(c.clock, c.name, key, doc)
	c.wmu.Lock()
	c.putAt(key, doc, h)
	c.wmu.Unlock()
}

func (c *MemCollection) deleteReplay(key string, h int64) {
	c.wmu.Lock()
	c.deleteAt(key, h)
	c.wmu.Unlock()
}

// resetLog replaces the iteration log with exactly entries. Caller
// holds wmu.
func (c *MemCollection) resetLog(entries []entry) {
	cap := entrySegMinCap
	for cap < len(entries) && cap < entrySegMaxCap {
		cap *= 2
	}
	seg := &entrySeg{buf: make([]entry, max(cap, len(entries)))}
	copy(seg.buf, entries)
	seg.n.Store(int64(len(entries)))
	c.log.Store(seg)
	c.tail = seg
	c.dead = 0
}

// LenAt returns the number of documents visible at height h.
func (c *MemCollection) LenAt(h int64) int {
	if h == HeightLatest {
		return int(c.live.Load())
	}
	n := 0
	c.ScanAt(h, func(string, map[string]any) bool {
		n++
		return true
	})
	return n
}

// Len returns the number of documents in the writer view.
func (c *MemCollection) Len() int { return c.LenAt(HeightLatest) }

// ScanAt visits the documents visible at height h in insertion order
// until fn returns false, without taking any lock.
func (c *MemCollection) ScanAt(h int64, fn func(key string, doc map[string]any) bool) {
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		n := seg.n.Load()
		for _, e := range seg.buf[:n] {
			ver := c.table.Load().find(e.key).at(h)
			if ver == nil || ver.doc == nil || ver.ord != e.ord {
				continue
			}
			if !fn(e.key, ver.doc) {
				return
			}
		}
	}
}

// Scan visits the writer view in insertion order until fn returns
// false.
func (c *MemCollection) Scan(fn func(key string, doc map[string]any) bool) {
	c.ScanAt(HeightLatest, fn)
}

// KeysAt returns the keys visible at height h in insertion order.
func (c *MemCollection) KeysAt(h int64) []string {
	var out []string
	c.ScanAt(h, func(key string, _ map[string]any) bool {
		out = append(out, key)
		return true
	})
	return out
}

// Keys returns the live keys in insertion order (writer view).
func (c *MemCollection) Keys() []string { return c.KeysAt(HeightLatest) }

// OrdsAt returns the insertion counters of the given keys as visible
// at height h (missing keys absent), lock-free.
func (c *MemCollection) OrdsAt(keys []string, h int64) map[string]uint64 {
	out := make(map[string]uint64, len(keys))
	t := c.table.Load()
	for _, key := range keys {
		if ver := t.find(key).at(h); ver != nil && ver.doc != nil {
			out[key] = ver.ord
		}
	}
	return out
}

// collHeads is one collection as a checkpoint captures it: the head
// version of every live document. A published version is immutable —
// its key, doc, ord and height are never written again — so the fold
// reads what it points at with no lock while commits install newer
// heads.
type collHeads struct {
	name  string
	heads []*docVersion
}

// captureHeads returns every collection's capture, collections in name
// order: the state a checkpoint folds, taken as an O(keys) pointer copy
// off the tables. Caller must exclude writers.
func (m *Memory) captureHeads() []collHeads {
	names := m.CollectionNames()
	out := make([]collHeads, 0, len(names))
	for _, name := range names {
		c := m.peek(name)
		heads := make([]*docVersion, 0, c.live.Load())
		t := c.table.Load()
		for i := range t.slots {
			if v := t.slots[i].Load(); v != nil && v != vacated && v.doc != nil {
				heads = append(heads, v)
			}
		}
		out = append(out, collHeads{name: name, heads: heads})
	}
	return out
}

// gc truncates version history that fell below horizon: every worklist
// height at or below horizon is processed — each chain keeps the
// version serving horizon and cuts everything older; a key whose
// newest surviving version is a tombstone leaves the table. Readers
// racing the cut are safe: only links no height >= horizon can reach
// are rewritten, and a reader already past the cut holds direct
// version pointers. A collection with work left is filed again under
// its lowest remaining height.
func (c *MemCollection) gc(horizon int64) {
	ob := memObsOf(c.ob)
	c.wmu.Lock()
	n := 0
	for ; n < len(c.dirty) && c.dirty[n].h <= horizon; n++ {
		for _, key := range c.dirty[n].keys {
			c.collect(key, horizon, ob)
		}
	}
	clear(c.dirty[:n])
	c.dirty = c.dirty[n:]
	if len(c.dirty) > 0 {
		c.gcq.add(c.dirty[0].h, c)
	} else {
		c.dirty, c.queued = nil, false
	}
	c.maybeCompactLog()
	c.wmu.Unlock()
}

// collect cuts key's chain below horizon. Caller holds wmu.
func (c *MemCollection) collect(key string, horizon int64, ob memObs) {
	s, head := c.table.Load().slot(key)
	if head == nil {
		return
	}
	v := head
	depth := int64(0)
	for v != nil && v.height > horizon {
		depth++
		v = v.prev.Load()
	}
	if v == nil {
		ob.chainLen.Observe(depth)
		return
	}
	ob.chainLen.Observe(depth + 1)
	if v == head && v.doc == nil {
		// The newest version is a tombstone at or below the horizon:
		// no supported snapshot sees this key.
		c.remove(s)
		c.dead++
		ob.prunedChains.Inc()
		ob.prunedVersions.Inc()
		return
	}
	if old := v.prev.Load(); old != nil {
		if old.doc != nil || old.ord != v.ord {
			// History being cut held other insertion counters; their
			// log entries are now unresolvable.
			c.dead++
		}
		v.prev.Store(nil)
		for ; old != nil; old = old.prev.Load() {
			ob.prunedVersions.Inc()
		}
	}
}

// memObsOf dereferences a collection's handle pointer; nil (backend
// never attached) reads as the all-no-op zero handles.
func memObsOf(p *atomic.Pointer[memObs]) memObs {
	if p != nil {
		if ob := p.Load(); ob != nil {
			return *ob
		}
	}
	return memObs{}
}

// maybeCompactLog rebuilds the iteration log once dead entries
// outnumber live ones, keeping every entry some supported snapshot
// can still resolve. Caller holds wmu.
func (c *MemCollection) maybeCompactLog() {
	if c.dead <= entrySegMinCap || int64(c.dead) <= c.live.Load() {
		return
	}
	var kept []entry
	t := c.table.Load()
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		n := seg.n.Load()
		for _, e := range seg.buf[:n] {
			for v := t.find(e.key); v != nil; v = v.prev.Load() {
				if v.ord == e.ord && v.doc != nil {
					kept = append(kept, e)
					break
				}
			}
		}
	}
	c.resetLog(kept)
}

// Memory is the volatile backend: the MVCC memtable with no
// durability. It is the default a plain docstore.NewStore runs over.
type Memory struct {
	mu      sync.RWMutex
	groupMu sync.Mutex
	colls   map[string]*MemCollection
	clock   verClock
	ob      atomic.Pointer[memObs]
	gcq     gcQueue
}

// NewMemory creates an empty memory backend.
func NewMemory() *Memory {
	m := &Memory{colls: make(map[string]*MemCollection)}
	m.clock.retain.Store(DefaultRetainHeights)
	return m
}

func (m *Memory) coll(name string) *MemCollection {
	m.mu.RLock()
	c := m.colls[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.colls[name]; c != nil {
		return c
	}
	c = newMemCollection(name, &m.clock, &m.ob, &m.gcq)
	m.colls[name] = c
	return c
}

// SetObs attaches (or, with nil, detaches) an observability registry.
// Every collection — existing and future — records through it.
func (m *Memory) SetObs(reg *obs.Registry) {
	if reg == nil {
		m.ob.Store(nil)
		return
	}
	ob := newMemObs(reg)
	ob.visible.Set(m.clock.visible.Load())
	ob.floor.Set(m.clock.floor.Load())
	m.ob.Store(ob)
}

// peek returns the named collection without creating it.
func (m *Memory) peek(name string) *MemCollection {
	m.mu.RLock()
	c := m.colls[name]
	m.mu.RUnlock()
	return c
}

// Collection returns the named collection, creating it on first use.
func (m *Memory) Collection(name string) Collection { return m.coll(name) }

// CollectionNames lists existing collections, sorted.
func (m *Memory) CollectionNames() []string {
	m.mu.RLock()
	names := make([]string, 0, len(m.colls))
	for n := range m.colls {
		names = append(names, n)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Group runs fn. Memory has no durability to batch, but Groups still
// serialize against each other so callers written against the Backend
// contract behave the same over both backends.
func (m *Memory) Group(fn func() error) error {
	m.groupMu.Lock()
	defer m.groupMu.Unlock()
	return fn()
}

// BeginBlock opens block h: writes until SealBlock are stamped h and
// stay invisible to snapshot readers at the current visible height.
// Heights at or below visible (catch-up replays) degrade to
// immediately-visible writes.
func (m *Memory) BeginBlock(h int64) {
	if h > m.clock.visible.Load() {
		m.clock.write.Store(h)
	}
}

// SealBlock publishes block h — visible advances, so snapshot readers
// at the new height observe the block's writes — and garbage-collects
// versions that fell out of the retention window.
func (m *Memory) SealBlock(h int64) {
	for {
		cur := m.clock.visible.Load()
		if h <= cur || m.clock.visible.CompareAndSwap(cur, h) {
			break
		}
	}
	m.clock.write.Store(0)
	ob := memObsOf(&m.ob)
	ob.visible.Set(m.clock.visible.Load())
	horizon := m.clock.visible.Load() - m.clock.retain.Load() + 1
	if horizon <= m.clock.floor.Load() {
		return
	}
	ob.floor.Set(horizon)
	// Publish the new floor before cutting: a reader that validated
	// its height against the old floor and lost the race reads a
	// truncated chain only if it was already below the new floor —
	// the documented "snapshot too old" horizon.
	m.clock.floor.Store(horizon)
	colls := m.gcq.take(horizon)
	ob.gcCollections.Add(uint64(len(colls)))
	for _, c := range colls {
		c.gc(horizon)
	}
}

// Visible returns the highest sealed height — the height a consistent
// snapshot read of committed state uses.
func (m *Memory) Visible() int64 { return m.clock.visible.Load() }

// Floor returns the lowest height snapshot reads are exact for.
func (m *Memory) Floor() int64 { return m.clock.floor.Load() }

// StampHeight returns the height the next write would be stamped with.
func (m *Memory) StampHeight() int64 { return m.clock.stamp() }

// SetRetain sets K, the number of sealed heights retained for
// snapshot reads. Takes effect at the next SealBlock.
func (m *Memory) SetRetain(k int64) {
	if k < 1 {
		k = 1
	}
	m.clock.retain.Store(k)
}

// recoverClock pins the clock after recovery: visibility starts at
// the highest recovered height with no history below it — snapshot
// reads reach back only to blocks sealed after this open.
func (m *Memory) recoverClock(h int64) {
	if h > m.clock.visible.Load() {
		m.clock.visible.Store(h)
	}
	m.clock.floor.Store(m.clock.visible.Load())
	m.clock.write.Store(0)
}

// Compact is a no-op for the memory backend.
func (m *Memory) Compact() error { return nil }

// Close is a no-op; the memory backend's state dies with the process.
func (m *Memory) Close() error {
	tripClosed(&m.clock)
	return nil
}
