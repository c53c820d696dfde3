package docstore

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"smartchaindb/internal/storage"
)

// The write path this package had before a stored document became a
// value that is handed over: Insert and Upsert deep-copied the document
// they were given and Update handed its closure a deep copy of the
// stored one. It is kept here, test-only, as the reference the owning
// Insert/Upsert and the copy-on-write Update are pinned to
// (TestOwningWritesMatchCopyingReference): the same stream of writes
// through either path must leave the same documents, the same index
// answers at every retained height and, on disk, the same WAL bytes.

func (c *Collection) insertCopying(key string, doc map[string]any) error {
	return c.Insert(key, deepCopyMap(doc))
}

func (c *Collection) upsertCopying(key string, doc map[string]any) error {
	return c.Upsert(key, deepCopyMap(doc))
}

func (c *Collection) updateCopying(key string, fn func(doc map[string]any) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.be.Get(key)
	if !ok {
		return &ErrNotFound{Collection: c.name, Key: key}
	}
	next := deepCopyMap(old)
	if err := fn(next); err != nil {
		return err
	}
	if err := c.be.Put(key, next); err != nil {
		return err
	}
	c.reindex(key, old, next)
	return nil
}

// indexKeyFmt is the string the indexes filed a value under before they
// keyed postings by the value itself (ordValueOf), as it was first
// written, with fmt. It is the reference the typed keys are held to
// (TestIndexKeyMatchesFmtReference, and refIndex, which files values
// under it): index contents must not change.
func indexKeyFmt(v any) (string, bool) {
	switch x := normalize(v).(type) {
	case nil:
		return "n:", true
	case bool:
		return fmt.Sprintf("b:%t", x), true
	case float64:
		return fmt.Sprintf("f:%g", x), true
	case string:
		return "s:" + x, true
	}
	return "", false
}

// TestIndexKeyMatchesFmtReference: over a corpus of scalars and
// non-scalars, two values get the same typed key exactly when they got
// the same rendered key, and a value is indexable under one exactly
// when it was under the other.
func TestIndexKeyMatchesFmtReference(t *testing.T) {
	vals := []any{
		nil, true, false, "", "s", "f:1", "s:", "n:", "b:true", "true", "1", "NaN",
		0, -1, 1, int32(7), int64(1) << 62, uint64(math.MaxUint64), float32(0.1),
		float32(math.Copysign(0, -1)), float32(1), int64(1)<<53 + 1, int64(1)<<53 + 2, uint64(1)<<63 + 1,
		-(int64(1)<<53 + 1), int64(math.MaxInt64), int64(math.MinInt64), math.Float64frombits(0x7ff0_0000_0000_0001),
		math.Float64frombits(0x7ff8_0000_0000_0002), math.Float64frombits(0xfff8_0000_0000_0000),
		0.0, math.Copysign(0, -1), 1.0, -1.0, 0.1, 1e20, 1e21, 1e-7, 123456789.0, 1 << 53, 1<<53 + 2,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, math.Inf(1), math.Inf(-1), math.NaN(),
		map[string]any{}, []any{1.0}, struct{}{},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0: // any bit pattern: subnormals, huge exponents, NaN payloads
			vals = append(vals, math.Float64frombits(r.Uint64()))
		case 1: // integral
			vals = append(vals, float64(r.Int63n(1<<54)-1<<53))
		case 2: // the magnitudes documents hold
			vals = append(vals, r.NormFloat64()*1e6)
		default: // subnormal
			vals = append(vals, math.Float64frombits(r.Uint64()&(1<<52-1)))
		}
	}
	typed := map[string]ordValue{} // rendered key -> the typed key of the first value that had it
	rendered := map[ordValue]string{}
	for _, v := range vals {
		got, gok := ordValueOf(v)
		want, wok := indexKeyFmt(v)
		if gok != wok {
			t.Fatalf("ordValueOf(%#v) indexable %v; the fmt reference says %v", v, gok, wok)
		}
		if !gok {
			continue
		}
		if k, seen := typed[want]; seen && k != got {
			t.Fatalf("%#v renders %q like an earlier value but keys as %#v, not %#v", v, want, got, k)
		}
		if r, seen := rendered[got]; seen && r != want {
			t.Fatalf("%#v keys as %#v like an earlier value but renders %q, not %q", v, got, want, r)
		}
		typed[want], rendered[got] = got, want
	}
	if n := testing.AllocsPerRun(100, func() {
		ordValueOf(true)
		ordValueOf(nil)
		ordValueOf(1.5)
		ordValueOf("s")
	}); n != 0 {
		t.Errorf("ordValueOf of a scalar allocates %v times", n)
	}
}

// writePath is one of the two write paths under comparison.
type writePath struct {
	insert, upsert func(c *Collection, key string, doc map[string]any) error
	update         func(c *Collection, key string, fn func(map[string]any) error) error
}

var (
	owningWrites  = writePath{(*Collection).Insert, (*Collection).Upsert, update}
	copyingWrites = writePath{(*Collection).insertCopying, (*Collection).upsertCopying, (*Collection).updateCopying}
)

// driveWrites runs a seeded stream of inserts, upserts, updates (of an
// indexed scalar, of an unindexed one, of a list and of a nested
// element — each replacing what it changes) and vacates (an empty
// document, in no index) through w,
// inside sealed blocks and between them, calling check after each seal.
func driveWrites(t *testing.T, s *Store, w writePath, blocks int64, check func(h int64)) {
	bk := s.Backend()
	bk.SetRetain(3)
	c := s.Collection("docs")
	paths := diffPaths()
	for _, p := range paths {
		if p.ordered {
			c.CreateOrderedIndex(p.path)
		} else {
			c.CreateIndex(p.path)
		}
	}
	r := rand.New(rand.NewSource(24))
	vacant := func(key string) bool { doc, _ := c.Borrow(key); return len(doc) == 0 }
	mutate := func() {
		key := fmt.Sprintf("k%02d", r.Intn(12))
		var err error
		switch op := r.Intn(6); {
		case !c.Has(key):
			err = w.insert(c, key, diffDoc(r))
		case vacant(key):
			err = w.upsert(c, key, diffDoc(r))
		case op == 0:
			err = w.upsert(c, key, diffDoc(r))
		case op == 1:
			err = w.update(c, key, func(doc map[string]any) error {
				doc["a"] = paths[0].domain[r.Intn(4)]
				doc["u"] = doc["u"].(float64) + 1
				return nil
			})
		case op == 2:
			err = w.update(c, key, func(doc map[string]any) error {
				doc["nums"] = append(slices.Clone(doc["nums"].([]any)), paths[3].domain[r.Intn(6)])
				delete(doc, "a")
				return nil
			})
		case op == 3:
			err = w.update(c, key, func(doc map[string]any) error {
				subs := slices.Clone(doc["sub"].([]any))
				sub := maps.Clone(subs[0].(map[string]any))
				sub["x"] = paths[4].domain[r.Intn(6)]
				subs[0] = sub
				doc["sub"] = subs
				return nil
			})
		case op == 4:
			err = w.update(c, key, func(map[string]any) error { return fmt.Errorf("aborted") })
			if err == nil {
				t.Fatal("an aborted update reported success")
			}
			err = nil
		default:
			err = w.upsert(c, key, map[string]any{})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for h := int64(1); h <= blocks; h++ {
		for i := r.Intn(3); i > 0; i-- {
			mutate()
		}
		bk.BeginBlock(h)
		if err := s.Group(func() error {
			for i := 2 + r.Intn(8); i > 0; i-- {
				mutate()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		bk.SealBlock(h)
		s.SweepIndexes()
		check(h)
	}
}

// TestOwningWritesMatchCopyingReference is the write-side differential
// at this layer: the owning Insert/Upsert and the copy-on-write Update
// against the deep-copying reference above, on both backends.
func TestOwningWritesMatchCopyingReference(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			dirs := [2]string{t.TempDir(), t.TempDir()}
			var stores [2]*Store
			for i := range stores {
				if backend == "memory" {
					stores[i] = NewStore()
					continue
				}
				eng, err := storage.Open(dirs[i], storage.Options{NoSync: true, CompactWALBytes: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				stores[i] = NewStoreWith(eng)
			}
			own, ref := stores[0], stores[1]
			const blocks = 30
			// The reference runs to the end first, recording what every
			// sealed block looked like; the owning path is compared as
			// it goes.
			type picture struct {
				docs    map[int64][]map[string]any // height → documents in key order
				answers []string
			}
			look := func(s *Store) picture {
				c := s.Collection("docs")
				bk := s.Backend()
				p := picture{docs: map[int64][]map[string]any{}}
				for h := bk.Floor(); h <= bk.Visible(); h++ {
					snap := c.SnapshotAt(h)
					p.docs[h] = snap.Find(nil)
					for _, dp := range diffPaths() {
						for _, v := range dp.domain {
							p.answers = append(p.answers, fmt.Sprint(h, dp.path, v, snap.c.keysAt(snap.h, Eq(dp.path, v))))
						}
					}
					p.answers = append(p.answers, fmt.Sprint(h, snap.BorrowFindOrdered(nil, "n", true, 0)))
				}
				p.docs[-1] = c.Find(nil)
				return p
			}
			var want []picture
			driveWrites(t, ref, copyingWrites, blocks, func(int64) { want = append(want, look(ref)) })
			driveWrites(t, own, owningWrites, blocks, func(h int64) {
				if got := look(own); !reflect.DeepEqual(got, want[h-1]) {
					t.Fatalf("after block %d the owning path differs from the copying reference:\n got %v\nwant %v", h, got, want[h-1])
				}
			})
			for _, s := range stores {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if backend == "disk" {
				var wal [2][]byte
				for i, dir := range dirs {
					files, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
					if len(files) != 1 {
						t.Fatalf("WAL files in %s: %v", dir, files)
					}
					b, err := os.ReadFile(files[0])
					if err != nil {
						t.Fatal(err)
					}
					wal[i] = b
				}
				if len(wal[0]) == 0 || !bytes.Equal(wal[0], wal[1]) {
					t.Fatalf("WAL byte streams differ: owning %d bytes, reference %d bytes", len(wal[0]), len(wal[1]))
				}
			}
		})
	}
}
