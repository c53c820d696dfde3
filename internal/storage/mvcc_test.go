package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// forEachMVCCBackend runs fn over both backends so the height-stamped
// read contract is pinned to the Backend interface, not one
// implementation.
func forEachMVCCBackend(t *testing.T, fn func(t *testing.T, b Backend)) {
	t.Run("memory", func(t *testing.T) { fn(t, NewMemory()) })
	t.Run("disk", func(t *testing.T) {
		eng, err := Open(t.TempDir(), Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		fn(t, eng)
	})
}

func mustPut(t *testing.T, c Collection, key string, doc map[string]any) {
	t.Helper()
	if err := c.Put(key, doc); err != nil {
		t.Fatal(err)
	}
}

func docAt(t *testing.T, c Collection, key string, h int64) map[string]any {
	t.Helper()
	doc, ok := c.GetAt(key, h)
	if !ok {
		t.Fatalf("GetAt(%q, %d): missing", key, h)
	}
	return doc
}

func TestMVCCBlockVisibility(t *testing.T) {
	forEachMVCCBackend(t, func(t *testing.T, b Backend) {
		c := b.Collection("c")
		// Standalone writes (no open block) are immediately visible.
		mustPut(t, c, "k1", map[string]any{"v": 0.0})
		if got := docAt(t, c, "k1", b.Visible())["v"]; got != 0.0 {
			t.Fatalf("standalone write invisible at Visible(): v=%v", got)
		}

		b.BeginBlock(1)
		mustPut(t, c, "k1", map[string]any{"v": 1.0})
		mustPut(t, c, "k2", map[string]any{"v": 1.0})
		// Mid-block: the writer view sees the block's writes...
		if doc, ok := c.Get("k2"); !ok || doc["v"] != 1.0 {
			t.Fatalf("writer view misses in-flight write: %v %v", doc, ok)
		}
		if got := docAt(t, c, "k1", HeightLatest)["v"]; got != 1.0 {
			t.Fatalf("GetAt(HeightLatest) = %v, want writer view", got)
		}
		// ...but the snapshot at the previous height does not.
		if _, ok := c.GetAt("k2", 0); ok {
			t.Fatal("unsealed write visible at height 0")
		}
		if got := docAt(t, c, "k1", 0)["v"]; got != 0.0 {
			t.Fatalf("snapshot at 0 sees in-flight overwrite: v=%v", got)
		}
		b.SealBlock(1)

		if got := b.Visible(); got != 1 {
			t.Fatalf("Visible after seal = %d, want 1", got)
		}
		// The sealed block is visible at its height, and height 0 still
		// reads the pre-block state.
		if got := docAt(t, c, "k2", 1)["v"]; got != 1.0 {
			t.Fatalf("sealed write invisible at 1: v=%v", got)
		}
		if got := docAt(t, c, "k1", 0)["v"]; got != 0.0 {
			t.Fatalf("height 0 no longer stable after seal: v=%v", got)
		}
		if got, want := keysAt(c, 0), []string{"k1"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("KeysAt(0) = %v, want %v", got, want)
		}
		if got, want := keysAt(c, 1), []string{"k1", "k2"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("KeysAt(1) = %v, want %v", got, want)
		}
		if got := c.LenAt(0); got != 1 {
			t.Fatalf("LenAt(0) = %d, want 1", got)
		}
	})
}

func TestMVCCDeleteAndReinsert(t *testing.T) {
	forEachMVCCBackend(t, func(t *testing.T, b Backend) {
		c := b.Collection("c")
		b.SetRetain(64)
		b.BeginBlock(1)
		mustPut(t, c, "a", map[string]any{"v": 1.0})
		mustPut(t, c, "b", map[string]any{"v": 1.0})
		b.SealBlock(1)
		b.BeginBlock(2)
		if err := c.Delete("a"); err != nil {
			t.Fatal(err)
		}
		b.SealBlock(2)
		b.BeginBlock(3)
		mustPut(t, c, "a", map[string]any{"v": 3.0})
		b.SealBlock(3)

		if got := docAt(t, c, "a", 1)["v"]; got != 1.0 {
			t.Fatalf("a@1 = %v, want 1", got)
		}
		if _, ok := c.GetAt("a", 2); ok {
			t.Fatal("deleted key visible at its delete height")
		}
		if got := docAt(t, c, "a", 3)["v"]; got != 3.0 {
			t.Fatalf("a@3 = %v, want 3", got)
		}
		// Reinsertion re-enters iteration order at the back, and each
		// height scans exactly its own live set — no duplicates from
		// the delete/reinsert churn.
		if got, want := keysAt(c, 1), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("KeysAt(1) = %v, want %v", got, want)
		}
		if got, want := keysAt(c, 2), []string{"b"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("KeysAt(2) = %v, want %v", got, want)
		}
		if got, want := keysAt(c, 3), []string{"b", "a"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("KeysAt(3) = %v, want %v", got, want)
		}
		seen := map[string]int{}
		c.ScanAt(3, func(key string, doc map[string]any) bool {
			seen[key]++
			return true
		})
		if seen["a"] != 1 || seen["b"] != 1 || len(seen) != 2 {
			t.Fatalf("ScanAt(3) visit counts = %v", seen)
		}
	})
}

func TestMVCCRetentionFloor(t *testing.T) {
	forEachMVCCBackend(t, func(t *testing.T, b Backend) {
		c := b.Collection("c")
		b.SetRetain(2)
		for h := int64(1); h <= 6; h++ {
			b.BeginBlock(h)
			mustPut(t, c, "k", map[string]any{"v": float64(h)})
			mustPut(t, c, fmt.Sprintf("k%d", h), map[string]any{"v": float64(h)})
			b.SealBlock(h)
		}
		if got := b.Visible(); got != 6 {
			t.Fatalf("Visible = %d, want 6", got)
		}
		// retain=2 keeps heights {5, 6}: the floor is visible-retain+1.
		if got := b.Floor(); got != 5 {
			t.Fatalf("Floor = %d, want 5", got)
		}
		for h := int64(5); h <= 6; h++ {
			if got := docAt(t, c, "k", h)["v"]; got != float64(h) {
				t.Fatalf("k@%d = %v, want %v", h, got, float64(h))
			}
			if got := c.LenAt(h); got != int(h)+1 {
				t.Fatalf("LenAt(%d) = %d, want %d", h, got, h+1)
			}
		}
		// The writer view never expires.
		if got := docAt(t, c, "k", HeightLatest)["v"]; got != 6.0 {
			t.Fatalf("k@latest = %v, want 6", got)
		}
	})
}

func TestMVCCDiskReopenRecoversHeights(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := eng.Collection("c")
	for h := int64(1); h <= 3; h++ {
		eng.BeginBlock(h)
		if err := eng.Group(func() error {
			return c.Put(fmt.Sprintf("k%d", h), map[string]any{"v": float64(h)})
		}); err != nil {
			t.Fatal(err)
		}
		eng.SealBlock(h)
	}
	wantKeys := c.Keys()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(stage string) {
		eng2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		defer eng2.Close()
		c2 := eng2.Collection("c")
		// The height clock recovers from the persisted records; version
		// history does not survive a restart, so the floor pins to the
		// recovered visible height.
		if got := eng2.Visible(); got != 3 {
			t.Fatalf("%s: Visible after reopen = %d, want 3", stage, got)
		}
		if got := eng2.Floor(); got != 3 {
			t.Fatalf("%s: Floor after reopen = %d, want 3", stage, got)
		}
		if got := keysAt(c2, 3); !reflect.DeepEqual(got, wantKeys) {
			t.Fatalf("%s: KeysAt(3) = %v, want %v", stage, got, wantKeys)
		}
		for h := int64(1); h <= 3; h++ {
			if got := docAt(t, c2, fmt.Sprintf("k%d", h), 3)["v"]; got != float64(h) {
				t.Fatalf("%s: k%d@3 = %v", stage, h, got)
			}
		}
	}
	reopen("wal-replay")

	// Compact folds the WAL into v2 segments (which persist per-record
	// birth heights); the clock must recover identically from them.
	eng3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng3.Close(); err != nil {
		t.Fatal(err)
	}
	reopen("segments")
}

// TestUnknownFormatVersionsAreRefused: a WAL payload or a segment of a
// version this engine does not write — v1 included, which no file ever
// held — fails with the version in the message instead of decoding as
// something else.
func TestUnknownFormatVersionsAreRefused(t *testing.T) {
	for _, ver := range []byte{0, 1, 3} {
		payload := []byte{ver, 0, 0}
		err := decodeGroup(payload, func(int64, mutation) error { return nil })
		if want := fmt.Sprintf("unknown wal payload version %d", ver); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("wal payload version %d: %v, want %q", ver, err, want)
		}
		body := appendUvarint(appendString([]byte{ver}, "c"), 0)
		seg := append(segMagic[:len(segMagic):len(segMagic)], body...)
		seg = binary.BigEndian.AppendUint32(seg, crc32.Checksum(body, castagnoli))
		_, err = decodeSegment(seg, NewMemory())
		if want := fmt.Sprintf("unknown segment version %d", ver); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("segment version %d: %v, want %q", ver, err, want)
		}
	}
}

// TestMVCCSnapshotReadersRaceAppliers is the race-gate pin for the
// lock-free read path: readers resolve full snapshots at pinned
// heights while a writer seals blocks underneath them, and every
// snapshot must be block-atomic — exactly the keys of blocks <= h,
// with the per-block counter matching the pinned height.
func TestMVCCSnapshotReadersRaceAppliers(t *testing.T) {
	forEachMVCCBackend(t, func(t *testing.T, b Backend) {
		const blocks = 40
		const perBlock = 4
		b.SetRetain(blocks + 2) // no height expires mid-read
		c := b.Collection("c")
		mustPut(t, c, "counter", map[string]any{"h": 0.0})

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					h := b.Visible()
					doc, ok := c.GetAt("counter", h)
					if !ok {
						panic("counter missing from snapshot")
					}
					if got := int64(doc["h"].(float64)); got != h {
						panic(fmt.Sprintf("snapshot at %d reads counter %d", h, got))
					}
					if got, want := c.LenAt(h), 1+int(h)*perBlock; got != want {
						panic(fmt.Sprintf("LenAt(%d) = %d, want %d", h, got, want))
					}
					n := 0
					c.ScanAt(h, func(key string, doc map[string]any) bool {
						// The seed counter (height 0) carries no "b": guard
						// on the key before asserting the field's type.
						if key != "counter" {
							if bh := int64(doc["b"].(float64)); bh > h {
								panic(fmt.Sprintf("snapshot at %d leaked a write from block %d", h, bh))
							}
						}
						n++
						return true
					})
					if want := 1 + int(h)*perBlock; n != want {
						panic(fmt.Sprintf("ScanAt(%d) visited %d docs, want %d", h, n, want))
					}
				}
			}()
		}

		for h := int64(1); h <= blocks; h++ {
			b.BeginBlock(h)
			for j := 0; j < perBlock; j++ {
				mustPut(t, c, fmt.Sprintf("b%03d-%d", h, j), map[string]any{"b": float64(h)})
			}
			mustPut(t, c, "counter", map[string]any{"h": float64(h), "b": float64(h)})
			b.SealBlock(h)
		}
		close(stop)
		wg.Wait()
	})
}

// keysAt lists the keys a collection holds at height h, in insertion
// order, as ScanAt walks them.
func keysAt(c Collection, h int64) []string {
	var keys []string
	c.ScanAt(h, func(key string, _ map[string]any) bool {
		keys = append(keys, key)
		return true
	})
	return keys
}
