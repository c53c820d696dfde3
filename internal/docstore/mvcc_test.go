package docstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
)

func mustInsert(t *testing.T, c *Collection, key string, doc map[string]any) {
	t.Helper()
	if err := c.Insert(key, doc); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIsolationAcrossSeal pins the core snapshot contract: a
// snapshot taken before a block opens keeps reading the pre-block
// state — mid-block and after the seal — while a fresh snapshot picks
// up the sealed writes.
func TestSnapshotIsolationAcrossSeal(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		bk := s.Backend()
		c := s.Collection("docs")
		c.CreateIndex("kind")
		c.CreateOrderedIndex("rank")
		mustInsert(t, c, "a", map[string]any{"kind": "x", "rank": 1.0})
		mustInsert(t, c, "b", map[string]any{"kind": "y", "rank": 2.0})

		pre := c.snapshot()
		if pre.h != bk.Visible() {
			t.Fatalf("Snapshot height %d, want %d", pre.h, bk.Visible())
		}

		h := bk.Visible() + 1
		bk.BeginBlock(h)
		mustInsert(t, c, "cc", map[string]any{"kind": "x", "rank": 3.0})
		if err := c.Upsert("b", map[string]any{"kind": "z", "rank": 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := update(c, "a", func(doc map[string]any) error {
			doc["rank"] = 9.0
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		check := func(stage string) {
			t.Helper()
			if got := pre.Len(); got != 2 {
				t.Fatalf("%s: pre.Len = %d, want 2", stage, got)
			}
			if doc, ok := pre.Borrow("a"); !ok || doc["rank"] != 1.0 {
				t.Fatalf("%s: pre a = %v, want rank 1", stage, doc)
			}
			if doc, ok := pre.Borrow("b"); !ok || doc["kind"] != "y" {
				t.Fatalf("%s: pre b = %v, want the version before the replace", stage, doc)
			}
			if _, ok := pre.Borrow("cc"); ok {
				t.Fatalf("%s: pre sees doc cc from the newer block", stage)
			}
			// Index-planned reads honor the same visibility: the hash
			// index must not leak cc, and the ordered index must surface
			// a's old rank.
			if got := len(pre.Find(Eq("kind", "x"))); got != 1 {
				t.Fatalf("%s: pre Find(kind=x) = %d docs, want 1", stage, got)
			}
			ordered := pre.BorrowFindOrdered(nil, "rank", true, 1)
			if len(ordered) != 1 || ordered[0]["rank"] != 2.0 {
				t.Fatalf("%s: pre FindOrdered top = %v, want rank 2", stage, ordered)
			}
		}
		check("mid-block")
		bk.SealBlock(h)
		check("post-seal")

		post := c.snapshot()
		if post.h != h {
			t.Fatalf("post snapshot height %d, want %d", post.h, h)
		}
		if got, want := post.Keys(), []string{"a", "b", "cc"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("post.Keys = %v, want %v", got, want)
		}
		if doc, ok := post.Borrow("a"); !ok || doc["rank"] != 9.0 {
			t.Fatalf("post a = %v, want rank 9", doc)
		}
		ordered := post.BorrowFindOrdered(Eq("kind", "x"), "rank", false, 0)
		if len(ordered) != 2 || ordered[0]["rank"] != 3.0 || ordered[1]["rank"] != 9.0 {
			t.Fatalf("post FindOrdered(kind=x) = %v", ordered)
		}
		// The old snapshot handle is still pinned to its height.
		check("after-new-snapshot")
	})
}

// TestSnapshotReadsTakeNoCollectionLock is the structural pin for the
// acceptance criterion "zero locks on the read path": snapshot reads
// must complete while the collection mutex is held exclusively. If any
// snapshot read path reacquires c.mu, this test deadlocks and fails
// by timeout.
func TestSnapshotReadsTakeNoCollectionLock(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("docs")
		c.CreateIndex("kind")
		c.CreateOrderedIndex("rank")
		for i := 0; i < 16; i++ {
			mustInsert(t, c, fmt.Sprintf("k%02d", i), map[string]any{
				"kind": fmt.Sprintf("t%d", i%3), "rank": float64(i),
			})
		}
		snap := c.snapshot()

		c.mu.Lock()
		defer c.mu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			snap.Borrow("k03")
			snap.Len()
			snap.Keys()
			snap.Find(Eq("kind", "t1"))
			snap.c.keysAt(snap.h, And(Eq("kind", "t0"), Gte("rank", 3.0)))
			snap.Count(Lte("rank", 8.0))
			snap.BorrowFindOrdered(nil, "rank", true, 5)
			snap.BorrowFindOrdered(Eq("kind", "t2"), "rank", false, 0)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("snapshot read blocked on the collection lock")
		}
	})
}

// TestBorrowedDocumentsNeverChange pins what Borrow rests on: a stored
// document is never written to again. Borrowed through every accessor,
// each must still equal its pre-image after its key was updated,
// replaced and vacated and the versions it belonged to fell out of the
// retention window. The writers keep their side of the contract — an
// Update closure assigns top-level keys and replaces, never edits,
// what lies below — and the store keeps its own: Update must not hand
// the closure the borrowed version's top level.
func TestBorrowedDocumentsNeverChange(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		bk := s.Backend()
		bk.SetRetain(2)
		c := s.Collection("docs")
		c.CreateIndex("kind")
		c.CreateOrderedIndex("rank")
		keys := []string{"updated", "upserted", "vacated"}
		for i, k := range keys {
			mustInsert(t, c, k, map[string]any{
				"kind": "d", "rank": float64(i),
				"nested": map[string]any{"x": 1.0, "deep": map[string]any{"y": "z"}},
				"list":   []any{"a", map[string]any{"b": 2.0}},
			})
		}

		type held struct {
			via      string
			doc, pre map[string]any
		}
		var all []held
		snap := c.snapshot()
		for _, k := range keys {
			for via, borrow := range map[string]func(string) (map[string]any, bool){
				"Collection.Borrow":   c.Borrow,
				"Snapshot.Borrow":     snap.Borrow,
				"Collection.BorrowAt": func(k string) (map[string]any, bool) { return c.BorrowAt(k, snap.h) },
			} {
				doc, ok := borrow(k)
				if !ok {
					t.Fatalf("%s(%s) missed", via, k)
				}
				all = append(all, held{via: via + "(" + k + ")", doc: doc, pre: deepCopyMap(doc)})
			}
		}
		if _, ok := c.Borrow("absent"); ok {
			t.Error("Borrow found a key that was never stored")
		}
		for via, docs := range map[string][]map[string]any{
			"Collection.borrowLimitAt":   c.borrowLimitAt(storage.HeightLatest, Eq("kind", "d"), 0),
			"Snapshot.BorrowFind":        snap.BorrowFind(Eq("kind", "d")),
			"Snapshot.BorrowFindLimit":   snap.BorrowFindLimit(nil, len(keys)),
			"Snapshot.BorrowFindOrdered": snap.BorrowFindOrdered(nil, "rank", true, 0),
		} {
			if len(docs) != len(keys) {
				t.Fatalf("%s found %d of %d documents", via, len(docs), len(keys))
			}
			for i, doc := range docs {
				all = append(all, held{via: fmt.Sprintf("%s[%d]", via, i), doc: doc, pre: deepCopyMap(doc)})
			}
		}

		rewrite := func(h int64) {
			bk.BeginBlock(h)
			// Below the top level the closure shares the version it
			// replaces (which the test has borrowed): every nested change
			// is a fresh value assigned to a top-level key.
			if err := update(c, "updated", func(doc map[string]any) error {
				doc["rank"] = float64(h)
				doc["nested"] = map[string]any{"x": float64(h), "deep": map[string]any{"y": "changed"}}
				list := append([]any{"changed"}, doc["list"].([]any)[1:]...)
				doc["list"] = append(list, float64(h))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.Upsert("upserted", map[string]any{"kind": "e", "rank": float64(h)}); err != nil {
				t.Fatal(err)
			}
			if err := c.Upsert("vacated", map[string]any{}); err != nil {
				t.Fatal(err)
			}
			bk.SealBlock(h)
			s.SweepIndexes()
		}
		start := bk.Visible()
		for h := start + 1; h <= start+5; h++ {
			rewrite(h)
			for _, b := range all {
				if !reflect.DeepEqual(b.doc, b.pre) {
					t.Fatalf("after block %d: %s changed:\n got %v\nwant %v", h, b.via, b.doc, b.pre)
				}
			}
		}
		if bk.Floor() <= snap.h {
			t.Fatalf("floor %d has not passed the borrowed height %d", bk.Floor(), snap.h)
		}
		// The writes did land — beside the borrowed versions, not in them.
		if got, _ := c.Get("updated"); got["nested"].(map[string]any)["x"] != float64(start+5) {
			t.Errorf("update did not land: %v", got)
		}
		if got, _ := c.Borrow("vacated"); len(got) != 0 {
			t.Errorf("vacate did not land: %v", got)
		}
		// A borrowed document and a Get of the same key are equal and
		// distinct: Get's copy is the caller's to change.
		borrowed, _ := c.Borrow("upserted")
		got, _ := c.Get("upserted")
		if !reflect.DeepEqual(borrowed, got) {
			t.Errorf("Borrow %v differs from Get %v", borrowed, got)
		}
		got["kind"] = "mine"
		if borrowed["kind"] != "e" {
			t.Error("Get handed out the stored document")
		}
	})
}

// TestSnapshotReadersRaceBlockAppliers is the race-gate pin at the
// docstore layer: each block rewrites every document with a uniform
// version stamp, and concurrent snapshot readers must always observe
// one coherent stamp across the whole collection — never a torn mix
// of two blocks.
func TestSnapshotReadersRaceBlockAppliers(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		const blocks = 30
		const docs = 8
		bk := s.Backend()
		bk.SetRetain(blocks + 2)
		c := s.Collection("docs")
		c.CreateIndex("kind")
		for i := 0; i < docs; i++ {
			mustInsert(t, c, fmt.Sprintf("k%d", i), map[string]any{"v": 0.0, "kind": "d"})
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Stop and join the readers however the test ends: a reader
		// left running after a failure would go on reading into the
		// next test.
		t.Cleanup(func() { close(stop); wg.Wait() })
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
					snap := c.snapshot()
					want := -1.0
					for i := 0; i < docs; i++ {
						doc, ok := snap.Borrow(fmt.Sprintf("k%d", i))
						if !ok {
							panic(fmt.Sprintf("k%d missing at height %d", i, snap.h))
						}
						v := doc["v"].(float64)
						if want < 0 {
							want = v
						} else if v != want {
							panic(fmt.Sprintf("torn snapshot at height %d: saw versions %v and %v",
								snap.h, want, v))
						}
					}
					// The indexed path resolves against the same height.
					if got := len(snap.Find(Eq("kind", "d"))); got != docs {
						panic(fmt.Sprintf("indexed read at height %d returned %d docs, want %d",
							snap.h, got, docs))
					}
				}
			}()
		}

		// A borrowing reader: it holds the stored documents themselves
		// (writer view and snapshot) across the writer's Upserts and
		// Updates of the same keys and keeps re-reading them. A write
		// into a stored document, rather than a new version beside it,
		// is a data race here and a changed pre-image.
		wg.Add(1)
		go func() {
			defer wg.Done()
			type held struct{ doc, pre map[string]any }
			var ring [2 * docs]held
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", n%docs)
				doc, ok := c.Borrow(key)
				if n%2 == 1 {
					doc, ok = c.snapshot().Borrow(key)
				}
				if !ok {
					panic("borrow missed " + key)
				}
				ring[n%len(ring)] = held{doc: doc, pre: deepCopyMap(doc)}
				for _, h := range ring {
					if !reflect.DeepEqual(h.doc, h.pre) {
						panic(fmt.Sprintf("borrowed document changed: %v, was %v", h.doc, h.pre))
					}
				}
			}
		}()

		start := bk.Visible()
		for h := start + 1; h <= start+blocks; h++ {
			bk.BeginBlock(h)
			for i := 0; i < docs; i++ {
				key := fmt.Sprintf("k%d", i)
				if err := c.Upsert(key, map[string]any{
					"v": float64(h), "kind": "d", "seen": []any{},
				}); err != nil {
					t.Fatal(err)
				}
				if err := update(c, key, func(doc map[string]any) error {
					doc["seen"] = append(doc["seen"].([]any), float64(h))
					doc["updated"] = true
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			bk.SealBlock(h)
		}
	})
}

// TestSnapshotIndexReadsRaceSealAndSweep is the race-gate pin for the
// index lifespan queue: every block moves every document's indexed
// value, so each seal queues one closed span per document and index,
// and with a short retention window the sweep that follows the seal
// collects them while snapshot readers run index-backed Find and
// FindOrdered at a height the floor is about to pass. A reader whose
// height is still at or above the floor after the read must have seen
// exactly that block's state.
func TestSnapshotIndexReadsRaceSealAndSweep(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		const blocks = 200
		const docs = 8
		s.SetObs(obs.New())
		bk := s.Backend()
		bk.SetRetain(3)
		c := s.Collection("docs")
		c.CreateIndex("v")
		c.CreateOrderedIndex("w")
		c.CreateIndex("kind")
		bk.BeginBlock(1)
		for i := 0; i < docs; i++ {
			mustInsert(t, c, fmt.Sprintf("k%d", i), map[string]any{"v": 1.0, "w": 1.0, "kind": "d"})
		}
		bk.SealBlock(1)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Stop and join the readers however the test ends: a reader
		// left running after a failure would go on reading into the
		// next test.
		t.Cleanup(func() { close(stop); wg.Wait() })
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
					snap := c.snapshot()
					h := float64(snap.h)
					point := snap.Find(And(Eq("v", h), Eq("kind", "d")))
					ordered := snap.BorrowFindOrdered(nil, "w", r%2 == 0, 0)
					if bk.Floor() > snap.h {
						continue // the window moved past the read: too old to judge
					}
					if len(point) != docs || len(ordered) != docs {
						t.Errorf("height %v: point read %d, ordered read %d documents, want %d", h, len(point), len(ordered), docs)
						return
					}
					for _, doc := range ordered {
						if doc["w"] != h {
							t.Errorf("height %v: ordered read returned w=%v", h, doc["w"])
							return
						}
					}
				}
			}()
		}

		for h := int64(2); h <= blocks; h++ {
			bk.BeginBlock(h)
			for i := 0; i < docs; i++ {
				if err := update(c, fmt.Sprintf("k%d", i), func(doc map[string]any) error {
					doc["v"], doc["w"] = float64(h), float64(h)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			bk.SealBlock(h)
			if n := sweepExamined(s); h > 3 && n != 2*docs {
				t.Fatalf("sweep after block %d examined %d span lists, want %d", h, n, 2*docs)
			}
		}
	})
}
