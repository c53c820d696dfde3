package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// The encoders the append-encoder and the background fold replaced,
// kept as the references they are byte-compared to: every document
// through encoding/json.Marshal, a group assembled from per-mutation
// byte slices, a segment written synchronously from the live memtable.

// refMutation is a mutation as the old engine staged it.
type refMutation struct {
	op        byte
	coll, key string
	doc       map[string]any
}

// refFrame is the WAL frame the old engine wrote for a group.
func refFrame(t testing.TB, height int64, muts []refMutation) []byte {
	t.Helper()
	payload := []byte{walPayloadVersion}
	payload = appendUvarint(payload, uint64(height))
	payload = appendUvarint(payload, uint64(len(muts)))
	for _, m := range muts {
		payload = append(payload, m.op)
		payload = appendString(payload, m.coll)
		payload = appendString(payload, m.key)
		if opHasDoc(m.op) {
			data, err := json.Marshal(m.doc)
			if err != nil {
				t.Fatal(err)
			}
			payload = appendUvarint(payload, uint64(len(data)))
			payload = append(payload, data...)
		}
	}
	frame := make([]byte, walFrameOverhead, walFrameOverhead+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// refWriteSegment writes c's live writer view to path the way the old
// synchronous Compact did: read off the memtable at the moment of the
// call, sorted by key, json.Marshal per document.
func refWriteSegment(t testing.TB, path string, c *MemCollection) {
	t.Helper()
	type rec struct {
		key string
		v   *docVersion
	}
	var recs []rec
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		for _, e := range seg.buf[:seg.n.Load()] {
			if v := c.table.Load().find(e.key); v != nil && v.doc != nil && v.ord == e.ord {
				recs = append(recs, rec{e.key, v})
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	bw.Write(segMagic[:])
	body := []byte{segVersion}
	body = appendString(body, c.name)
	body = appendUvarint(body, uint64(len(recs)))
	for _, rc := range recs {
		data, err := json.Marshal(rc.v.doc)
		if err != nil {
			t.Fatal(err)
		}
		body = appendString(body, rc.key)
		body = appendUvarint(body, rc.v.ord)
		body = appendUvarint(body, uint64(rc.v.height))
		body = appendUvarint(body, uint64(len(data)))
		body = append(body, data...)
	}
	bw.Write(body)
	var footer [4]byte
	binary.BigEndian.PutUint32(footer[:], crc32.Checksum(body, castagnoli))
	bw.Write(footer[:])
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// refCompact writes, into dir, the segment files the old Compact would
// have written for generation gen from e's memtable as it stands. The
// caller excludes writers, as Compact's exclusive lock did.
func refCompact(t testing.TB, dir string, e *Engine, gen uint64) {
	t.Helper()
	for i, name := range e.mem.CollectionNames() {
		refWriteSegment(t, filepath.Join(dir, segName(gen, i)), e.mem.coll(name))
	}
}

// The memtable layout the per-key table replaced, kept as the
// differential reference FuzzMemCollection holds the table to and as
// the heap reference TestStoredKeyBytes weighs beside it: per
// collection a sync.Map from the key (boxed into an any) to a separate
// verChain box whose atomic head points at the newest refVersion, the
// same (key, ord) iteration log, and a GC worklist of one key set per
// height; a seal collects every collection.

// refVersion is a docVersion without its key.
type refVersion struct {
	doc    map[string]any
	height int64
	ord    uint64
	prev   atomic.Pointer[refVersion]
}

type refChain struct {
	head atomic.Pointer[refVersion]
}

func (ch *refChain) versionAt(h int64) *refVersion {
	for v := ch.head.Load(); v != nil; v = v.prev.Load() {
		if v.height <= h {
			return v
		}
	}
	return nil
}

type refCollection struct {
	clock  *verClock
	chains sync.Map // key -> *refChain
	log    atomic.Pointer[entrySeg]
	live   atomic.Int64

	wmu     sync.Mutex
	tail    *entrySeg
	nextOrd uint64
	dead    int
	dirty   map[int64]map[string]struct{}
}

func newRefCollection(clock *verClock) *refCollection {
	c := &refCollection{clock: clock, dirty: make(map[int64]map[string]struct{})}
	seg := &entrySeg{buf: make([]entry, entrySegMinCap)}
	c.log.Store(seg)
	c.tail = seg
	return c
}

func (c *refCollection) chain(key string) *refChain {
	if v, ok := c.chains.Load(key); ok {
		return v.(*refChain)
	}
	v, _ := c.chains.LoadOrStore(key, &refChain{})
	return v.(*refChain)
}

func (c *refCollection) appendEntry(e entry) {
	t := c.tail
	n := t.n.Load()
	if int(n) == len(t.buf) {
		ns := &entrySeg{buf: make([]entry, min(len(t.buf)*2, 1<<15))}
		t.next.Store(ns)
		c.tail = ns
		t, n = ns, 0
	}
	t.buf[n] = e
	t.n.Store(n + 1)
}

func (c *refCollection) markDirty(key string, h int64) {
	set := c.dirty[h]
	if set == nil {
		set = make(map[string]struct{})
		c.dirty[h] = set
	}
	set[key] = struct{}{}
}

func (c *refCollection) GetAt(key string, h int64) (map[string]any, bool) {
	v, ok := c.chains.Load(key)
	if !ok {
		return nil, false
	}
	ver := v.(*refChain).versionAt(h)
	if ver == nil || ver.doc == nil {
		return nil, false
	}
	return ver.doc, true
}

func (c *refCollection) Put(key string, doc map[string]any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	h := c.clock.stamp()
	ch := c.chain(key)
	head := ch.head.Load()
	if head != nil && h < head.height {
		h = head.height
	}
	v := &refVersion{doc: doc, height: h}
	switch {
	case head == nil || head.doc == nil:
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
			c.dead++
		}
	case head.height == h:
		v.ord = head.ord
		v.prev.Store(head.prev.Load())
	default:
		v.ord = head.ord
		v.prev.Store(head)
	}
	if h <= c.clock.floor.Load() {
		v.prev.Store(nil)
	}
	ch.head.Store(v)
	c.markDirty(key, h)
	return nil
}

func (c *refCollection) Delete(key string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	h := c.clock.stamp()
	v, ok := c.chains.Load(key)
	if !ok {
		return nil
	}
	ch := v.(*refChain)
	head := ch.head.Load()
	if head == nil || head.doc == nil {
		return nil
	}
	if h < head.height {
		h = head.height
	}
	c.live.Add(-1)
	c.dead++
	c.markDirty(key, h)
	if h <= c.clock.floor.Load() {
		c.chains.Delete(key)
		return nil
	}
	t := &refVersion{height: h, ord: head.ord}
	if head.height == h {
		t.prev.Store(head.prev.Load())
	} else {
		t.prev.Store(head)
	}
	if t.prev.Load() == nil {
		c.chains.Delete(key)
		return nil
	}
	ch.head.Store(t)
	return nil
}

func (c *refCollection) LenAt(h int64) int {
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

func (c *refCollection) ScanAt(h int64, fn func(key string, doc map[string]any) bool) {
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		for _, e := range seg.buf[:seg.n.Load()] {
			v, ok := c.chains.Load(e.key)
			if !ok {
				continue
			}
			ver := v.(*refChain).versionAt(h)
			if ver == nil || ver.doc == nil || ver.ord != e.ord {
				continue
			}
			if !fn(e.key, ver.doc) {
				return
			}
		}
	}
}

func (c *refCollection) KeysAt(h int64) []string {
	var out []string
	c.ScanAt(h, func(key string, _ map[string]any) bool {
		out = append(out, key)
		return true
	})
	return out
}

func (c *refCollection) OrdsAt(keys []string, h int64) map[string]uint64 {
	out := make(map[string]uint64, len(keys))
	for _, key := range keys {
		v, ok := c.chains.Load(key)
		if !ok {
			continue
		}
		if ver := v.(*refChain).versionAt(h); ver != nil && ver.doc != nil {
			out[key] = ver.ord
		}
	}
	return out
}

func (c *refCollection) gc(horizon int64) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
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
			ch := cv.(*refChain)
			head := ch.head.Load()
			v := head
			for v != nil && v.height > horizon {
				v = v.prev.Load()
			}
			if v == nil {
				continue
			}
			if v == head && v.doc == nil {
				c.chains.Delete(key)
				c.dead++
				continue
			}
			if old := v.prev.Load(); old != nil {
				if old.doc != nil || old.ord != v.ord {
					c.dead++
				}
				v.prev.Store(nil)
			}
		}
	}
	if c.dead <= entrySegMinCap || int64(c.dead) <= c.live.Load() {
		return
	}
	var kept []entry
	for seg := c.log.Load(); seg != nil; seg = seg.next.Load() {
		for _, e := range seg.buf[:seg.n.Load()] {
			cv, ok := c.chains.Load(e.key)
			if !ok {
				continue
			}
			for v := cv.(*refChain).head.Load(); v != nil; v = v.prev.Load() {
				if v.ord == e.ord && v.doc != nil {
					kept = append(kept, e)
					break
				}
			}
		}
	}
	seg := &entrySeg{buf: make([]entry, max(entrySegMinCap, len(kept)))}
	copy(seg.buf, kept)
	seg.n.Store(int64(len(kept)))
	c.log.Store(seg)
	c.tail = seg
	c.dead = 0
}

// refMemory is the reference backend: the same height clock, and a
// seal that collects every collection it has.
type refMemory struct {
	mu    sync.Mutex
	colls map[string]*refCollection
	clock verClock
}

func newRefMemory() *refMemory {
	m := &refMemory{colls: make(map[string]*refCollection)}
	m.clock.retain.Store(DefaultRetainHeights)
	return m
}

func (m *refMemory) layoutColl(name string) layoutColl {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.colls[name]
	if c == nil {
		c = newRefCollection(&m.clock)
		m.colls[name] = c
	}
	return c
}

func (m *refMemory) BeginBlock(h int64) {
	if h > m.clock.visible.Load() {
		m.clock.write.Store(h)
	}
}

func (m *refMemory) SealBlock(h int64) {
	if h > m.clock.visible.Load() {
		m.clock.visible.Store(h)
	}
	m.clock.write.Store(0)
	horizon := m.clock.visible.Load() - m.clock.retain.Load() + 1
	if horizon <= m.clock.floor.Load() {
		return
	}
	m.clock.floor.Store(horizon)
	m.mu.Lock()
	colls := make([]*refCollection, 0, len(m.colls))
	for _, c := range m.colls {
		colls = append(colls, c)
	}
	m.mu.Unlock()
	for _, c := range colls {
		c.gc(horizon)
	}
}

func (m *refMemory) SetRetain(k int64) { m.clock.retain.Store(max(k, 1)) }
func (m *refMemory) Visible() int64    { return m.clock.visible.Load() }
func (m *refMemory) Floor() int64      { return m.clock.floor.Load() }

// layoutColl is the read and write surface the table and the reference
// share.
type layoutColl interface {
	Put(key string, doc map[string]any) error
	Delete(key string) error
	GetAt(key string, h int64) (map[string]any, bool)
	ScanAt(h int64, fn func(key string, doc map[string]any) bool)
	KeysAt(h int64) []string
	LenAt(h int64) int
	OrdsAt(keys []string, h int64) map[string]uint64
}

// memLayout is a backend of either layout.
type memLayout interface {
	layoutColl(name string) layoutColl
	BeginBlock(h int64)
	SealBlock(h int64)
	SetRetain(k int64)
	Visible() int64
	Floor() int64
}

func (m *Memory) layoutColl(name string) layoutColl { return m.coll(name) }

// layouts names a constructor of each layout: the table, then the
// reference.
var layouts = []struct {
	name string
	open func() memLayout
}{
	{"table", func() memLayout { return NewMemory() }},
	{"reference", func() memLayout { return newRefMemory() }},
}
