package storage

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"smartchaindb/internal/obs"
)

// keyNames returns n distinct keys shaped like transaction ids.
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%064x", i)
	}
	return names
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fillBlocks puts every key, perBlock keys to a block starting at
// height first, each block sealed, and returns the next height.
func fillBlocks(m memLayout, c layoutColl, names []string, doc map[string]any, perBlock int, first int64) int64 {
	h := first
	for i := 0; i < len(names); i += perBlock {
		m.BeginBlock(h)
		for _, key := range names[i:min(i+perBlock, len(names))] {
			c.Put(key, doc)
		}
		m.SealBlock(h)
		h++
	}
	return h
}

// TestStoredKeyBytes pins what a collection retains per stored key
// beyond the document and the key string, counted off the heap: 64 k
// keys sharing one document, stored 256 to a block with 4 heights
// retained, measured once they are all in and again after every key
// has been rewritten and its old version collected. A key is one
// 48-byte version that is also its table entry, a share of a table
// kept at most half full, and a (key, ord) log entry. The sync.Map
// layout it replaced (reference_test.go) is weighed beside it and must
// not fit the ceiling: if it did, the ceiling would no longer tell the
// two apart.
func TestStoredKeyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not the program's own under the race detector")
	}
	const (
		keys     = 64 << 10
		perBlock = 256
		ceiling  = 96.0
	)
	names := keyNames(keys)
	doc := map[string]any{"v": 1.0}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			before := liveHeap()
			m := l.open()
			m.SetRetain(4)
			c := m.layoutColl("c")
			h := fillBlocks(m, c, names, doc, perBlock, 1)
			inserted := float64(liveHeap()-before) / keys

			h = fillBlocks(m, c, names, doc, perBlock, h)
			for range 4 { // the last rewrites fall past the horizon
				m.BeginBlock(h)
				m.SealBlock(h)
				h++
			}
			rewritten := float64(liveHeap()-before) / keys
			runtime.KeepAlive(m)
			if got, _ := c.GetAt(names[0], m.Visible()); got == nil || c.LenAt(HeightLatest) != keys {
				t.Fatal("the collection lost its keys")
			}

			fits := l.name == "table"
			t.Logf("%s: %.1f B per key after the inserts, %.1f B after the rewrite and its GC", l.name, inserted, rewritten)
			for _, r := range []struct {
				when string
				got  float64
			}{{"after the inserts", inserted}, {"after the rewrite and its GC", rewritten}} {
				if (r.got <= ceiling) != fits {
					t.Errorf("%s: %.1f B per key %s, ceiling %.0f (want within it: %v)", l.name, r.got, r.when, ceiling, fits)
				}
			}
		})
	}
}

// TestSealVisitsOnlyDueCollections pins a seal's GC to the collections
// it has work for: with 1 or 64 idle collections beside one being
// written, the seals of the same blocks visit the same number of
// collections (storage.mvcc.gc_collections), one per seal whose
// horizon passed a written height.
func TestSealVisitsOnlyDueCollections(t *testing.T) {
	const blocks = 32
	visits := func(idle int) uint64 {
		m := NewMemory()
		reg := obs.New()
		m.SetObs(reg)
		m.SetRetain(4)
		h := int64(1)
		for i := range idle {
			m.BeginBlock(h)
			m.coll(fmt.Sprintf("idle%02d", i)).Put("k", map[string]any{"v": 1.0})
			m.SealBlock(h)
			h++
		}
		for range 4 { // the idle collections' worklists drain
			m.BeginBlock(h)
			m.SealBlock(h)
			h++
		}
		counter := reg.Counter("storage.mvcc.gc_collections")
		start := counter.Value()
		active := m.coll("active")
		for i := range blocks {
			m.BeginBlock(h)
			active.Put(fmt.Sprintf("k%d", i), map[string]any{"v": 1.0})
			m.SealBlock(h)
			h++
		}
		return counter.Value() - start
	}
	one, many := visits(1), visits(64)
	if one != many {
		t.Errorf("%d seals visited %d collections beside 1 idle one and %d beside 64", blocks, one, many)
	}
	if want := uint64(blocks - 3); one != want {
		t.Errorf("%d seals visited %d collections, want %d: one per seal whose horizon passed a write", blocks, one, want)
	}
}

// TestTableGrowRacesSnapshotReaders is the race-gate pin for the lock-
// free table: a writer inserts 64 k keys, 256 to a sealed block, through
// every grow from the smallest table up, each block also inserting and
// deleting a key of its own so vacated slots ride along; readers
// pinned at sealed heights meanwhile find every key of the newest
// sealed block and a sample of the older ones, and none of the block
// being written.
func TestTableGrowRacesSnapshotReaders(t *testing.T) {
	const (
		keys     = 64 << 10
		perBlock = 256
		readers  = 4
	)
	names := keyNames(keys)
	m := NewMemory()
	c := m.coll("c")
	doc := map[string]any{"v": 1.0}

	var failed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 1))
			check := func(i int, h int64, want bool) {
				if _, ok := c.GetAt(names[i], h); ok != want && !failed.Swap(true) {
					t.Errorf("key %d at height %d: found %v, want %v", i, h, ok, want)
				}
			}
			for !failed.Load() {
				select {
				case <-stop:
					return
				default:
				}
				h := m.Visible()
				n := int(h) * perBlock
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for i := n - perBlock; i < n; i++ {
					check(i, h, true)
				}
				for range perBlock {
					check(rng.IntN(n), h, true)
				}
				if n < keys {
					check(n, h, false)
				}
			}
		}()
	}
	for h := int64(1); int(h)*perBlock <= keys && !failed.Load(); h++ {
		m.BeginBlock(h)
		for _, key := range names[(h-1)*perBlock : h*perBlock] {
			c.Put(key, doc)
		}
		brief := fmt.Sprintf("brief-%d", h)
		c.Put(brief, doc)
		c.Delete(brief)
		m.SealBlock(h)
	}
	close(stop)
	wg.Wait()
	if got := c.Len(); got != keys && !failed.Load() {
		t.Errorf("Len = %d, want %d", got, keys)
	}
}

// FuzzMemCollection holds the table to the sync.Map reference
// (reference_test.go): both run the same program of puts, deletes,
// block begins and seals and retention changes over 256 keys — enough
// for several grows, with vacated slots from deletes and GC — and
// after every operation answer alike at every height in
// [Floor, Visible] and at HeightLatest: GetAt, ScanAt in order, KeysAt,
// LenAt and OrdsAt.
func FuzzMemCollection(f *testing.F) {
	f.Add([]byte{2, 0, 95, 5, 0, 2, 48, 95, 4, 0, 1, 0, 3, 10, 40, 5, 0})
	f.Add([]byte{6, 0, 4, 0, 2, 0, 95, 0, 3, 0, 3, 0, 5, 0, 4, 1, 2, 50, 95, 7, 3, 5, 0, 4, 0, 3, 0, 95, 5, 0, 4, 0, 5, 0})
	f.Add([]byte{4, 0, 7, 1, 7, 1, 1, 1, 0, 1, 5, 0, 4, 2, 1, 1, 0, 1, 5, 0, 4, 0, 5, 0, 4, 0, 5, 0})
	f.Add([]byte{6, 1, 2, 0, 95, 2, 96, 95, 2, 192, 63, 3, 0, 95, 3, 96, 95, 2, 0, 95, 4, 3, 3, 192, 63, 5, 0, 4, 0, 5, 0, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runMemProgram(t, prog)
	})
}

const fuzzKeys = 256

// runMemProgram runs prog, two bytes to an operation, over both layouts
// and compares them after each.
func runMemProgram(t *testing.T, prog []byte) {
	names := make([]string, fuzzKeys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%03d", i)
	}
	table, ref := NewMemory(), newRefMemory()
	sides := []memLayout{table, ref}
	colls := []layoutColl{table.layoutColl("c"), ref.layoutColl("c")}
	seq := 0.0
	put := func(i int) {
		seq++
		doc := map[string]any{"v": seq}
		for _, c := range colls {
			c.Put(names[i%fuzzKeys], doc)
		}
	}
	del := func(i int) {
		for _, c := range colls {
			c.Delete(names[i%fuzzKeys])
		}
	}
	open := int64(0)
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%8, int(prog[pc+1])
		switch op {
		case 0:
			put(arg)
		case 1:
			del(arg)
		case 2, 3: // a run of keys from arg, its length in the next byte
			n := 1
			if pc+2 < len(prog) {
				n = int(prog[pc+2])%96 + 1
				pc++
			}
			for i := arg; i < arg+n; i++ {
				if op == 2 {
					put(i)
				} else {
					del(i)
				}
			}
		case 4: // open a block; one at or below Visible stamps writes visible
			open = table.Visible() + int64(arg%4) - 1
			for _, m := range sides {
				m.BeginBlock(open)
			}
		case 5:
			h := open
			if h <= table.Visible() {
				h = table.Visible() + 1 + int64(arg%2)
			}
			for _, m := range sides {
				m.SealBlock(h)
			}
			open = 0
		case 6:
			for _, m := range sides {
				m.SetRetain(int64(arg%6) + 1)
			}
		case 7: // churn one key within one height
			put(arg)
			del(arg)
			put(arg)
		}
		compareLayouts(t, pc, sides, colls, names)
	}
}

// compareLayouts fails t unless the two sides answer alike.
func compareLayouts(t *testing.T, pc int, sides []memLayout, colls []layoutColl, names []string) {
	t.Helper()
	a, b := sides[0], sides[1]
	if a.Visible() != b.Visible() || a.Floor() != b.Floor() {
		t.Fatalf("op at %d: visible/floor %d/%d, reference %d/%d", pc, a.Visible(), a.Floor(), b.Visible(), b.Floor())
	}
	heights := []int64{HeightLatest}
	for h := a.Floor(); h <= a.Visible(); h++ {
		heights = append(heights, h)
	}
	type visit struct {
		key string
		v   any
	}
	for _, h := range heights {
		var scans [2][]visit
		for i, c := range colls {
			c.ScanAt(h, func(key string, doc map[string]any) bool {
				scans[i] = append(scans[i], visit{key, doc["v"]})
				return true
			})
		}
		if !slices.Equal(scans[0], scans[1]) {
			i := 0
			for i < min(len(scans[0]), len(scans[1])) && scans[0][i] == scans[1][i] {
				i++
			}
			t.Fatalf("op at %d, height %d: ScanAt visits %d documents, reference %d; they part at index %d:\n  table     %v\n  reference %v",
				pc, h, len(scans[0]), len(scans[1]), i, scans[0][i:min(i+4, len(scans[0]))], scans[1][i:min(i+4, len(scans[1]))])
		}
		if ka, kb := colls[0].KeysAt(h), colls[1].KeysAt(h); !slices.Equal(ka, kb) {
			t.Fatalf("op at %d, height %d: KeysAt %v, reference %v", pc, h, ka, kb)
		}
		if la, lb := colls[0].LenAt(h), colls[1].LenAt(h); la != lb || la != len(scans[0]) {
			t.Fatalf("op at %d, height %d: LenAt %d, reference %d, scanned %d", pc, h, la, lb, len(scans[0]))
		}
		oa, ob := colls[0].OrdsAt(names, h), colls[1].OrdsAt(names, h)
		if len(oa) != len(ob) {
			t.Fatalf("op at %d, height %d: OrdsAt %v, reference %v", pc, h, oa, ob)
		}
		for key, ord := range oa {
			if o, ok := ob[key]; !ok || o != ord {
				t.Fatalf("op at %d, height %d: OrdsAt[%s] = %d, reference %d (%v)", pc, h, key, ord, o, ok)
			}
		}
		for _, key := range names {
			da, oka := colls[0].GetAt(key, h)
			db, okb := colls[1].GetAt(key, h)
			if oka != okb || (oka && da["v"] != db["v"]) {
				t.Fatalf("op at %d, height %d: GetAt(%s) = %v %v, reference %v %v", pc, h, key, da, oka, db, okb)
			}
		}
	}
}

// BenchmarkMemPut: one Put of a new key into a collection that grows
// to 64 k keys, 256 to a sealed block with 4 heights retained; a fresh
// collection every 64 k puts, made off the clock.
func BenchmarkMemPut(b *testing.B) {
	names := keyNames(64 << 10)
	doc := map[string]any{"v": 1.0}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			var m memLayout
			var c layoutColl
			h := int64(0)
			for i := 0; i < b.N; i++ {
				k := i % len(names)
				if k == 0 {
					b.StopTimer()
					m = l.open()
					m.SetRetain(4)
					c = m.layoutColl("c")
					b.StartTimer()
				}
				if k%256 == 0 {
					h++
					m.BeginBlock(h)
				}
				c.Put(names[k], doc)
				if k%256 == 255 {
					m.SealBlock(h)
				}
			}
		})
	}
}

// loadedLayout returns a collection of each layout holding 64 k keys,
// stored 256 to a block with 4 heights retained, and its backend.
func loadedLayout(open func() memLayout, names []string) (memLayout, layoutColl) {
	m := open()
	m.SetRetain(4)
	c := m.layoutColl("c")
	fillBlocks(m, c, names, map[string]any{"v": 1.0}, 256, 1)
	return m, c
}

// BenchmarkMemGetAt: one snapshot point read at the visible height of
// a stored key, in a random order, out of 64 k — the probe every query
// and validation read makes.
func BenchmarkMemGetAt(b *testing.B) {
	names := keyNames(64 << 10)
	order := rand.New(rand.NewPCG(1, 2)).Perm(len(names))
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			m, c := loadedLayout(l.open, names)
			h := m.Visible()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.GetAt(names[order[i%len(order)]], h); !ok {
					b.Fatal("missing key")
				}
			}
		})
	}
}

// BenchmarkMemScanAt: one full scan at the visible height of a
// collection of 64 k keys.
func BenchmarkMemScanAt(b *testing.B) {
	names := keyNames(64 << 10)
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			m, c := loadedLayout(l.open, names)
			h := m.Visible()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				c.ScanAt(h, func(string, map[string]any) bool {
					n++
					return true
				})
				if n != len(names) {
					b.Fatalf("scanned %d keys", n)
				}
			}
		})
	}
}
