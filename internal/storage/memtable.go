package storage

import (
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

// docVersion is one immutable version of a document. A nil doc is a
// tombstone. prev points at the next-older version; it is only ever
// rewritten by GC, which cuts links no supported snapshot can follow.
type docVersion struct {
	doc    map[string]any
	height int64
	ord    uint64
	prev   atomic.Pointer[docVersion]
}

// verChain is one key's version chain, newest first. The head pointer
// is the publication point: a version (and its prev link) is fully
// built before the head store, so lock-free readers walking from head
// always see complete versions.
type verChain struct {
	head atomic.Pointer[docVersion]
}

// versionAt resolves the chain at height h: the newest version whose
// height is <= h, or nil if the key did not exist at h.
func (ch *verChain) versionAt(h int64) *docVersion {
	for v := ch.head.Load(); v != nil; v = v.prev.Load() {
		if v.height <= h {
			return v
		}
	}
	return nil
}

// entry is one slot of a collection's append-only iteration log: the
// key and the insertion counter it was (re)inserted with. An entry is
// emitted by a scan at height h iff the key's chain resolves at h to a
// live version carrying the same ord — which both dedups re-inserts
// (only the current ord matches) and hides deleted keys.
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

const (
	entrySegMinCap = 64
	entrySegMaxCap = 1 << 15
)

// MemCollection is the in-memory MVCC collection both backends share:
// the memory backend stores documents here directly, and the disk
// engine keeps it as the always-resident working set in front of the
// WAL and segments. Every key holds an immutable version chain stamped
// with block heights; reads resolve a height against the chains and
// the iteration log with atomics only — no collection, shard, or order
// lock exists on the read path. Writers serialize on one mutex.
type MemCollection struct {
	name  string
	clock *verClock
	// ob points at the owning backend's attached metric handles; a
	// stored nil (never attached) reads as all-no-op handles.
	ob *atomic.Pointer[memObs]

	chains sync.Map // key -> *verChain
	log    atomic.Pointer[entrySeg]
	live   atomic.Int64 // keys live in the writer view

	// wmu serializes writers (and GC). Readers never take it.
	wmu     sync.Mutex
	tail    *entrySeg
	nextOrd uint64
	dead    int                           // log entries no snapshot can resolve
	dirty   map[int64]map[string]struct{} // height -> keys written (GC worklist)
}

func newMemCollection(name string, clock *verClock, ob *atomic.Pointer[memObs]) *MemCollection {
	c := &MemCollection{name: name, clock: clock, ob: ob, dirty: make(map[int64]map[string]struct{})}
	seg := &entrySeg{buf: make([]entry, entrySegMinCap)}
	c.log.Store(seg)
	c.tail = seg
	return c
}

func (c *MemCollection) chain(key string) *verChain {
	if v, ok := c.chains.Load(key); ok {
		return v.(*verChain)
	}
	v, _ := c.chains.LoadOrStore(key, &verChain{})
	return v.(*verChain)
}

// appendEntry publishes one log entry. Caller holds wmu.
func (c *MemCollection) appendEntry(e entry) {
	t := c.tail
	n := t.n.Load()
	if int(n) == len(t.buf) {
		cap := len(t.buf) * 2
		if cap > entrySegMaxCap {
			cap = entrySegMaxCap
		}
		ns := &entrySeg{buf: make([]entry, cap)}
		t.next.Store(ns)
		c.tail = ns
		t, n = ns, 0
	}
	t.buf[n] = e
	t.n.Store(n + 1)
}

// markDirty records key as written at height h so seal-time GC can
// find its chain once h falls past the retention horizon. Caller
// holds wmu.
func (c *MemCollection) markDirty(key string, h int64) {
	set := c.dirty[h]
	if set == nil {
		set = make(map[string]struct{})
		c.dirty[h] = set
	}
	set[key] = struct{}{}
}

// GetAt returns the document visible at height h.
func (c *MemCollection) GetAt(key string, h int64) (map[string]any, bool) {
	v, ok := c.chains.Load(key)
	if !ok {
		return nil, false
	}
	ver := v.(*verChain).versionAt(h)
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
	ch := c.chain(key)
	head := ch.head.Load()
	if head != nil && h < head.height {
		// Heights only move forward; treat a stale stamp as a
		// same-height rewrite of the newest version.
		h = head.height
	}
	v := &docVersion{doc: doc, height: h}
	switch {
	case head == nil || head.doc == nil:
		// Fresh insert (no chain, or over a tombstone): new insertion
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
	ch.head.Store(v)
	c.markDirty(key, h)
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
	v, ok := c.chains.Load(key)
	if !ok {
		return
	}
	ch := v.(*verChain)
	head := ch.head.Load()
	if head == nil || head.doc == nil {
		return
	}
	if h < head.height {
		h = head.height
	}
	c.live.Add(-1)
	if h <= c.clock.floor.Load() {
		// No snapshot can observe the key anymore: drop the chain
		// outright (this is the entire delete path for stores that
		// never seal blocks).
		c.chains.Delete(key)
		c.dead++
		c.markDirty(key, h)
		return
	}
	t := &docVersion{doc: nil, height: h, ord: head.ord}
	if head.height == h {
		t.prev.Store(head.prev.Load())
	} else {
		t.prev.Store(head)
	}
	if t.prev.Load() == nil {
		// Inserted and deleted above the floor with no history: the
		// chain can't serve any height.
		c.chains.Delete(key)
		c.dead++
		c.markDirty(key, h)
		return
	}
	ch.head.Store(t)
	c.dead++
	c.markDirty(key, h)
}

// putLoaded stores a document recovered from a segment with its
// original insertion counter and birth height. The caller finishes
// with finishLoad.
func (c *MemCollection) putLoaded(key string, doc map[string]any, ord uint64, h int64) {
	tripStored(c.clock, c.name, key, doc)
	c.wmu.Lock()
	ch := c.chain(key)
	if ch.head.Load() == nil {
		c.appendEntry(entry{key: key, ord: ord})
		c.live.Add(1)
	}
	v := &docVersion{doc: doc, height: h, ord: ord}
	ch.head.Store(v)
	if ord >= c.nextOrd {
		c.nextOrd = ord + 1
	}
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
	seg := &entrySeg{buf: make([]entry, maxInt(cap, len(entries)))}
	copy(seg.buf, entries)
	seg.n.Store(int64(len(entries)))
	c.log.Store(seg)
	c.tail = seg
	c.dead = 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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
		for i := int64(0); i < n; i++ {
			e := seg.buf[i]
			v, ok := c.chains.Load(e.key)
			if !ok {
				continue
			}
			ver := v.(*verChain).versionAt(h)
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
	for _, key := range keys {
		v, ok := c.chains.Load(key)
		if !ok {
			continue
		}
		if ver := v.(*verChain).versionAt(h); ver != nil && ver.doc != nil {
			out[key] = ver.ord
		}
	}
	return out
}

// Ords returns the insertion counters for keys in the writer view.
func (c *MemCollection) Ords(keys []string) map[string]uint64 {
	return c.OrdsAt(keys, HeightLatest)
}

// scanHead visits live writer-view versions in insertion order,
// exposing ord and birth height. Caller must exclude writers (a
// checkpoint's cut holds the compaction lock).
func (c *MemCollection) scanHead(fn func(key string, v *docVersion) bool) {
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		n := seg.n.Load()
		for i := int64(0); i < n; i++ {
			e := seg.buf[i]
			cv, ok := c.chains.Load(e.key)
			if !ok {
				continue
			}
			head := cv.(*verChain).head.Load()
			if head == nil || head.doc == nil || head.ord != e.ord {
				continue
			}
			if !fn(e.key, head) {
				return
			}
		}
	}
}

// headRef is one live document as a checkpoint captures it: the key
// and its head version. A published version is immutable — its doc,
// ord and height are never written again — so the fold reads what it
// points at with no lock while commits install newer heads.
type headRef struct {
	key string
	v   *docVersion
}

// collHeads is one collection's capture.
type collHeads struct {
	name  string
	heads []headRef
}

// captureHeads returns the head version of every live document of
// every collection, collections in name order: the state a checkpoint
// folds, taken as an O(keys) pointer copy. Caller must exclude writers.
func (m *Memory) captureHeads() []collHeads {
	names := m.CollectionNames()
	out := make([]collHeads, 0, len(names))
	for _, name := range names {
		c := m.peek(name)
		if c == nil {
			continue
		}
		heads := make([]headRef, 0, c.live.Load())
		c.scanHead(func(key string, v *docVersion) bool {
			heads = append(heads, headRef{key: key, v: v})
			return true
		})
		out = append(out, collHeads{name: name, heads: heads})
	}
	return out
}

// gc truncates version history that fell below horizon: every dirty
// set at or below horizon is processed — each chain keeps the version
// serving horizon and cuts everything older; chains whose newest
// surviving version is a tombstone are removed entirely. Readers
// racing the cut are safe: only links no height >= horizon can reach
// are rewritten, and a reader already past the cut holds direct
// version pointers.
func (c *MemCollection) gc(horizon int64) {
	ob := memObsOf(c.ob)
	c.wmu.Lock()
	for h, keys := range c.dirty {
		if h > horizon {
			continue
		}
		delete(c.dirty, h)
		for key := range keys {
			cv, ok := c.chains.Load(key)
			if !ok {
				continue
			}
			ch := cv.(*verChain)
			head := ch.head.Load()
			v := head
			depth := int64(0)
			for v != nil && v.height > horizon {
				depth++
				v = v.prev.Load()
			}
			if v == nil {
				ob.chainLen.Observe(depth)
				continue
			}
			ob.chainLen.Observe(depth + 1)
			if v == head && v.doc == nil {
				// The newest version is a tombstone at or below the
				// horizon: no supported snapshot sees this key.
				c.chains.Delete(key)
				c.dead++
				ob.prunedChains.Inc()
				ob.prunedVersions.Inc()
				continue
			}
			if old := v.prev.Load(); old != nil {
				if old.doc != nil || old.ord != v.ord {
					// History being cut held other insertion counters;
					// their log entries are now unresolvable.
					c.dead++
				}
				v.prev.Store(nil)
				for ; old != nil; old = old.prev.Load() {
					ob.prunedVersions.Inc()
				}
			}
		}
	}
	c.maybeCompactLog()
	c.wmu.Unlock()
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
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		n := seg.n.Load()
		for i := int64(0); i < n; i++ {
			e := seg.buf[i]
			cv, ok := c.chains.Load(e.key)
			if !ok {
				continue
			}
			for v := cv.(*verChain).head.Load(); v != nil; v = v.prev.Load() {
				if v.ord == e.ord && v.doc != nil {
					kept = append(kept, e)
					break
				}
			}
		}
	}
	c.resetLog(kept)
}

// clear empties the collection in place so stale handles held across a
// Drop read nothing instead of resurrecting dropped documents.
func (c *MemCollection) clear() {
	c.wmu.Lock()
	c.chains.Range(func(k, _ any) bool {
		c.chains.Delete(k)
		return true
	})
	c.live.Store(0)
	c.dirty = make(map[int64]map[string]struct{})
	c.resetLog(nil)
	c.wmu.Unlock()
}

// Memory is the volatile backend: the MVCC memtable with no
// durability. It is the default a plain docstore.NewStore runs over.
type Memory struct {
	mu      sync.RWMutex
	groupMu sync.Mutex
	colls   map[string]*MemCollection
	clock   verClock
	ob      atomic.Pointer[memObs]
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
	c = newMemCollection(name, &m.clock, &m.ob)
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

// Drop removes a collection, emptying it in place for stale handles.
func (m *Memory) Drop(name string) error {
	m.mu.Lock()
	c := m.colls[name]
	delete(m.colls, name)
	m.mu.Unlock()
	if c != nil {
		c.clear()
	}
	return nil
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
	m.mu.RLock()
	colls := make([]*MemCollection, 0, len(m.colls))
	for _, c := range m.colls {
		colls = append(colls, c)
	}
	m.mu.RUnlock()
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
