package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func doc(vals ...any) map[string]any {
	d := make(map[string]any)
	for i := 0; i+1 < len(vals); i += 2 {
		d[vals[i].(string)] = vals[i+1]
	}
	return d
}

// dump renders a backend's full contents for equality checks. Empty
// collections are skipped: creation without a document is not durable
// until compaction, so they legitimately differ across a reopen.
func dump(b Backend) map[string]map[string]map[string]any {
	out := make(map[string]map[string]map[string]any)
	for _, name := range b.CollectionNames() {
		c := b.Collection(name)
		docs := make(map[string]map[string]any)
		c.Scan(func(key string, d map[string]any) bool {
			docs[key] = d
			return true
		})
		if len(docs) > 0 {
			out[name] = docs
		}
	}
	return out
}

func TestEngineReopenRecoversDocuments(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Collection("txs")
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%02d", i), doc("i", float64(i), "s", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("k03"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k05", doc("i", 5.0, "s", "replaced")); err != nil {
		t.Fatal(err)
	}
	want := dump(e)
	wantKeys := c.Keys()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := dump(e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state differs:\ngot  %v\nwant %v", got, want)
	}
	if got := e2.Collection("txs").Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("iteration order differs: got %v want %v", got, wantKeys)
	}
}

func TestEngineReopenWithoutCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Collection("a")
	for i := 0; i < 5; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), doc("i", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(e)
	// Simulate SIGKILL: release the directory lock the way the kernel
	// would for a dead process, flushing nothing. The WAL bytes are
	// already in the file, so a fresh Open must recover everything.
	e.unlock()
	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := dump(e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("kill-reopen state differs:\ngot  %v\nwant %v", got, want)
	}
}

func TestEngineCompactionPreservesStateAndOrder(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Collection("txs")
	u := e.Collection("utxos")
	for i := 0; i < 20; i++ {
		// Reverse-ish key order so segment sorting differs from
		// insertion order.
		if err := c.Put(fmt.Sprintf("k%02d", 19-i), doc("i", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Put("u1", doc("spent", false)); err != nil {
		t.Fatal(err)
	}
	wantKeys := c.Keys()
	want := dump(e)

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.stats()
	if st.Gen != 1 || st.Segments != 2 {
		t.Fatalf("stats after compact = %+v, want gen 1 with 2 segments", st)
	}
	if got := dump(e); !reflect.DeepEqual(got, want) {
		t.Fatal("compaction changed live state")
	}
	// Post-compaction mutations land in the new WAL generation.
	if err := u.Put("u2", doc("spent", true)); err != nil {
		t.Fatal(err)
	}
	want = dump(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := dump(e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction reopen differs:\ngot  %v\nwant %v", got, want)
	}
	if got := e2.Collection("txs").Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("iteration order lost through segments: got %v want %v", got, wantKeys)
	}
}

func TestEngineGroupIsAtomicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Collection("txs")
	if err := e.Group(func() error {
		c.Put("a", doc("v", 1.0))
		c.Put("b", doc("v", 2.0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Second group: corrupt it by truncating mid-record afterwards.
	if err := e.Group(func() error {
		c.Put("c", doc("v", 3.0))
		c.Put("d", doc("v", 4.0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.unlock() // "kill" the writer before corrupting its log
	walPath := filepath.Join(dir, walName(0))
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last few bytes: the final record is torn, so the whole
	// second group must vanish while the first survives intact.
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c2 := e2.Collection("txs")
	if !c2.Has("a") || !c2.Has("b") {
		t.Error("first (intact) group lost")
	}
	if c2.Has("c") || c2.Has("d") {
		t.Error("torn group partially applied; groups must be all-or-nothing")
	}
}

// TestRetiredDropOpIsRefused: op 3 once dropped a whole collection.
// No code logs it any more, and a WAL record carrying it is refused as
// an unknown op, like any other byte the format does not define.
func TestRetiredDropOpIsRefused(t *testing.T) {
	payload := []byte{walPayloadVersion, 0, 1, 3, 1, 'c', 0}
	err := decodeGroup(payload, func(int64, mutation) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "unknown wal op 3") {
		t.Fatalf("a record of op 3 decoded: %v", err)
	}
}

func TestEngineGroupRecoversFromPanickingFn(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Collection("txs")
	func() {
		defer func() { recover() }()
		e.Group(func() error {
			c.Put("staged", doc("v", 1.0))
			panic("mid-group failure")
		})
	}()
	// The group must have closed: later writes go to the WAL, not an
	// abandoned stage buffer.
	if err := c.Put("after", doc("v", 2.0)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c2 := e2.Collection("txs")
	if !c2.Has("after") {
		t.Fatal("write after a panicked group was not durable")
	}
	if !c2.Has("staged") {
		t.Fatal("mutation staged before the panic was lost despite reaching the memtable")
	}
}

func TestEngineAutoCompactsPastThreshold(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{CompactWALBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	c := e.Collection("txs")
	for i := 0; i < 64; i++ {
		if err := e.Group(func() error {
			return c.Put(fmt.Sprintf("k%03d", i), doc("pad", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint a group cuts folds beside later groups: wait for
	// the one in flight before looking for what it installs.
	if err := e.joinFold(); err != nil {
		t.Fatal(err)
	}
	if st := e.stats(); st.Gen == 0 || st.Segments != 1 || st.WALs != 1 || st.Folding {
		t.Fatalf("engine never auto-compacted: %+v", st)
	}
	if c.Len() != 64 {
		t.Fatalf("len = %d after auto-compaction", c.Len())
	}
}

func TestMemCollectionConcurrentPointReads(t *testing.T) {
	c := newMemCollection("x", &verClock{}, nil, &gcQueue{})
	for i := 0; i < 256; i++ {
		c.Put(fmt.Sprintf("k%d", i), doc("i", float64(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (i*7+g)%512)
				c.Get(k)
				if i%5 == 0 {
					c.Put(fmt.Sprintf("k%d", 256+(i+g)%256), doc("i", float64(i)))
				}
				if i%11 == 0 {
					c.Delete(fmt.Sprintf("k%d", 256+(i+g)%256))
				}
				if i%97 == 0 {
					c.Scan(func(string, map[string]any) bool { return true })
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != len(c.Keys()) {
		t.Fatalf("len %d != keys %d", c.Len(), len(c.Keys()))
	}
}

func TestEngineDirectoryLockRejectsSecondOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("second engine on the same directory must be rejected")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	e2.Close()
}

func TestMemoryBackendInterfaceBasics(t *testing.T) {
	var b Backend = NewMemory()
	c := b.Collection("a")
	if err := c.Put("k", doc("v", 1.0)); err != nil {
		t.Fatal(err)
	}
	if !c.Has("k") || c.Len() != 1 {
		t.Fatal("put not visible")
	}
	if err := b.Group(func() error { return c.Put("k2", doc("v", 2.0)) }); err != nil {
		t.Fatal(err)
	}
	if !c.Has("k2") || c.Len() != 2 {
		t.Fatal("a put inside a group not visible")
	}
	if names := b.CollectionNames(); !reflect.DeepEqual(names, []string{"a"}) {
		t.Fatalf("collections = %v, want [a]", names)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// engineStats is the engine's on-disk shape.
type engineStats struct {
	Gen      uint64 // generation of the live WAL; the segments reach it when the fold installs
	WALBytes int64  // size of the live WAL
	WALs     int    // WALs MANIFEST names: more than one while a checkpoint is folding
	Segments int
	Folding  bool // a checkpoint's fold is in flight
}

// stats returns current generation, WAL size and count, segment count,
// and whether a fold is running.
func (e *Engine) stats() engineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return engineStats{Gen: e.man.Gen, WALBytes: e.wal.bytes(), WALs: len(e.man.wals()), Segments: len(e.man.Segments), Folding: e.fold != nil}
}
