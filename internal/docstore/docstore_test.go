package docstore

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"smartchaindb/internal/storage"
)

func doc(kv ...any) map[string]any {
	m := make(map[string]any, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1]
	}
	return m
}

// Borrow is Collection.Borrow as of the view height.
func (s *Snapshot) Borrow(key string) (map[string]any, bool) { return s.c.BorrowAt(key, s.h) }

// Keys returns the keys at the view height in insertion order.
func (s *Snapshot) Keys() []string {
	var keys []string
	s.c.be.ScanAt(s.h, func(key string, _ map[string]any) bool {
		keys = append(keys, key)
		return true
	})
	return keys
}

// len counts the records the queue holds.
func (q *closedSpans) len() int { return len(q.recs) - q.head }

// update is the tests' read-modify-write: fn edits a copy of the top
// level of the document under key, and the copy replaces it through
// Upsert. Below the top level the copy shares the stored values, which
// fn replaces instead of editing. A single writer per key is assumed.
func update(c *Collection, key string, fn func(doc map[string]any) error) error {
	old, ok := c.Borrow(key)
	if !ok {
		return &ErrNotFound{Collection: c.name, Key: key}
	}
	next := maps.Clone(old)
	if err := fn(next); err != nil {
		return err
	}
	return c.Upsert(key, next)
}

func TestInsertGet(t *testing.T) {
	s := NewStore()
	c := s.Collection("transactions")
	if err := c.Insert("a", doc("op", "CREATE", "n", 1.0)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got["op"] != "CREATE" {
		t.Errorf("got %v", got)
	}
	if err := c.Insert("a", doc()); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	var dup *ErrDuplicateKey
	if !errors.As(c.Insert("a", doc()), &dup) {
		t.Error("want ErrDuplicateKey")
	}
	var nf *ErrNotFound
	if _, err := c.Get("missing"); !errors.As(err, &nf) {
		t.Errorf("Get of a missing key: %v, want ErrNotFound", err)
	}
	if err := c.Insert("", doc()); err == nil {
		t.Error("empty key should fail")
	}
}

// TestUpsertRefusesTheEmptyKey: an index posting marks "no document"
// with the empty key, so no document may be stored under it — Upsert
// refuses it with Insert's error, where it used to report success and
// store nothing.
func TestUpsertRefusesTheEmptyKey(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("blocks")
		c.CreateIndex("h")
		insertErr := c.Insert("", doc("h", 1.0))
		upsertErr := c.Upsert("", doc("h", 1.0))
		if upsertErr == nil || insertErr == nil || upsertErr.Error() != insertErr.Error() {
			t.Fatalf("Upsert of the empty key: %v; Insert: %v", upsertErr, insertErr)
		}
		if n := len(c.Keys()); n != 0 || c.Has("") || len(c.Find(Eq("h", 1.0))) != 0 {
			t.Fatalf("the refused write left %d documents behind", n)
		}
		if err := c.Upsert("1", doc("h", 1.0)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDocumentsAreIsolated pins who owns a document on each side of the
// store. On the way in, isolation is by hand-over: Insert and Upsert
// keep the very map they are given (no copy), and Update's closure
// owns its top level and nothing below it. On the way out, Get and
// Find (of the collection and of a snapshot) still copy: what they
// return is the caller's to change, at any depth, and the store never
// sees it.
func TestDocumentsAreIsolated(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s *Store) {
		c := s.Collection("c")
		c.CreateOrderedIndex("rank")
		same := func(a, b map[string]any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
		pristine := func() map[string]any {
			return doc("rank", 1.0, "nested", map[string]any{"x": 1.0}, "list", []any{"a"})
		}

		// Hand-over: the stored document is the one that was handed in.
		inserted, upserted := pristine(), pristine()
		mustInsert(t, c, "k", inserted)
		if err := c.Upsert("u", upserted); err != nil {
			t.Fatal(err)
		}
		for key, handed := range map[string]map[string]any{"k": inserted, "u": upserted} {
			if stored, _ := c.Borrow(key); !same(stored, handed) {
				t.Errorf("%s: the store copied the document it was handed", key)
			}
		}

		// Copy-out: every copying read hands out a document of the
		// caller's own, equal to the stored one; editing it at any depth
		// leaves the stored one as it was.
		reads := map[string]func() map[string]any{
			"Get":           func() map[string]any { d, _ := c.Get("k"); return d },
			"Find":          func() map[string]any { return c.Find(Eq("rank", 1.0))[0] },
			"Snapshot.Find": func() map[string]any { return c.snapshot().Find(Eq("rank", 1.0))[0] },
		}
		for name, read := range reads {
			got := read()
			if same(got, inserted) || !reflect.DeepEqual(got, pristine()) {
				t.Fatalf("%s: want an equal copy of the stored document, got %v", name, got)
			}
			got["rank"] = 9.0
			got["nested"].(map[string]any)["x"] = 99.0
			got["list"].([]any)[0] = "mutated"
			if stored, _ := c.Borrow("k"); !reflect.DeepEqual(stored, pristine()) {
				t.Fatalf("%s: editing the returned document changed the stored one: %v", name, stored)
			}
		}
		// A borrowing find hands out the stored documents themselves.
		if got := c.borrowLimitAt(storage.HeightLatest, Eq("rank", 1.0), 0); len(got) != 2 || !same(got[0], inserted) || !same(got[1], upserted) {
			t.Errorf("BorrowFind did not return the stored documents: %v", got)
		}
		// So does a borrowing ordered walk, off the index and off the scan.
		for _, orderPath := range []string{"rank", "nested.x"} {
			got := c.snapshot().BorrowFindOrdered(nil, orderPath, false, 0)
			k, _ := c.Borrow("k")
			u, _ := c.Borrow("u")
			if len(got) != 2 || !same(got[0], k) || !same(got[1], u) {
				t.Errorf("BorrowFindOrdered by %s did not return the stored documents: %v", orderPath, got)
			}
		}

		// Replacement: a top-level copy of the stored document, edited
		// and upserted, becomes the stored one, and the version it
		// replaces keeps its keys.
		next := maps.Clone(inserted)
		next["rank"] = 2.0
		next["nested"] = map[string]any{"x": 2.0}
		delete(next, "list")
		if err := c.Upsert("k", next); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inserted, pristine()) {
			t.Errorf("the replacement edited the version it replaced: %v", inserted)
		}
		if stored, _ := c.Borrow("k"); !same(stored, next) {
			t.Error("the store copied the replacement it was handed")
		}
		want := doc("rank", 2.0, "nested", map[string]any{"x": 2.0})
		if got, _ := c.Get("k"); !reflect.DeepEqual(got, want) {
			t.Errorf("after the replacement: got %v, want %v", got, want)
		}
	})
}

func TestUpsertReplaces(t *testing.T) {
	c := NewStore().Collection("c")
	c.Upsert("k", doc("v", 1.0))
	c.Upsert("k", doc("v", 2.0))
	got, _ := c.Get("k")
	if got["v"] != 2.0 {
		t.Errorf("v = %v", got["v"])
	}
	old, _ := c.Borrow("k")
	next := maps.Clone(old)
	next["v"] = old["v"].(float64) + 1
	if err := c.Upsert("k", next); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get("k")
	if got["v"] != 3.0 || old["v"] != 2.0 {
		t.Errorf("v = %v, the replaced version's %v", got["v"], old["v"])
	}
}

func TestFindFilters(t *testing.T) {
	c := NewStore().Collection("c")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Insert("1", doc("op", "CREATE", "amount", 5.0, "caps", []any{"cnc", "3d"})))
	must(c.Insert("2", doc("op", "BID", "amount", 10.0, "caps", []any{"cnc"})))
	must(c.Insert("3", doc("op", "BID", "amount", 7.0, "nested", map[string]any{"deep": "x"})))
	must(c.Insert("4", doc("op", "REQUEST", "amount", 10.0)))

	cases := []struct {
		name   string
		filter Filter
		want   []string
	}{
		{"eq", Eq("op", "BID"), []string{"2", "3"}},
		{"eq number", Eq("amount", 10), []string{"2", "4"}},
		{"gte", Gte("amount", 7), []string{"2", "3", "4"}},
		{"lt", Lt("amount", 7), []string{"1"}},
		{"lte", Lte("amount", 7), []string{"1", "3"}},
		{"in", In("op", "CREATE", "REQUEST"), []string{"1", "4"}},
		{"contains", Contains("caps", "cnc"), []string{"1", "2"}},
		{"contains both", And(Contains("caps", "cnc"), Contains("caps", "3d")), []string{"1"}},
		{"eq into array", Eq("caps", "3d"), []string{"1"}},
		{"dotted", Eq("nested.deep", "x"), []string{"3"}},
		{"and", And(Eq("op", "BID"), Gte("amount", 8)), []string{"2"}},
		{"not", Not(Eq("op", "BID")), []string{"1", "4"}},
		{"nil", nil, []string{"1", "2", "3", "4"}},
		{"string gte", Gte("op", "C"), []string{"1", "4"}},
		{"string lt", Lt("op", "C"), []string{"2", "3"}},
		{"uncomparable", Gte("caps", 1), nil},
		// Objects and arrays as arguments compare structurally.
		{"eq object", Eq("nested", map[string]any{"deep": "x"}), []string{"3"}},
		{"not eq object", Not(Eq("nested", map[string]any{"deep": "y"})), []string{"1", "2", "3", "4"}},
		{"in object", In("nested", map[string]any{"deep": "x"}, "z"), []string{"3"}},
		{"eq array", Eq("caps", []any{"cnc"}), []string{"2"}},
	}
	for _, tc := range cases {
		got := c.findKeys(tc.filter)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if n := c.count(tc.filter); n != len(tc.want) {
			t.Errorf("%s: Count = %d, want %d", tc.name, n, len(tc.want))
		}
	}
}

// TestFindLimitAndFindOne: a limited find (BorrowFindLimit) returns
// the first matches in insertion order, over a scan and over a planned
// read alike, and a limit of one finds one document or none.
func TestFindLimitAndFindOne(t *testing.T) {
	c := NewStore().Collection("c")
	c.CreateOrderedIndex("i")
	for i := 0; i < 10; i++ {
		if err := c.Insert(fmt.Sprint(i), doc("i", float64(i), "odd", i%2 == 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.snapshot()
	if got := snap.BorrowFindLimit(nil, 3); len(got) != 3 || got[2]["i"] != 2.0 {
		t.Errorf("scan, limit 3 = %v", got)
	}
	if got := snap.BorrowFindLimit(And(Gte("i", 4), Eq("odd", true)), 2); len(got) != 2 || got[0]["i"] != 5.0 || got[1]["i"] != 7.0 {
		t.Errorf("range, limit 2 = %v", got)
	}
	if got := snap.BorrowFindLimit(Eq("i", 7), 1); len(got) != 1 || got[0]["i"] != 7.0 {
		t.Errorf("point, limit 1 = %v", got)
	}
	if got := snap.BorrowFindLimit(Eq("i", 99), 1); len(got) != 0 {
		t.Errorf("a miss, limit 1 = %v", got)
	}
}

func TestArrayFanOutPath(t *testing.T) {
	c := NewStore().Collection("c")
	if err := c.Insert("tx", doc(
		"outputs", []any{
			map[string]any{"public_keys": []any{"alice"}, "amount": 1.0},
			map[string]any{"public_keys": []any{"escrow"}, "amount": 2.0},
		},
	)); err != nil {
		t.Fatal(err)
	}
	if got := c.findKeys(Eq("outputs.public_keys", "escrow")); len(got) != 1 {
		t.Errorf("array fan-out lookup failed: %v", got)
	}
	if got := c.findKeys(Eq("outputs.amount", 2)); len(got) != 1 {
		t.Errorf("array fan-out number lookup failed: %v", got)
	}
	if got := c.findKeys(Eq("outputs.public_keys", "nobody")); len(got) != 0 {
		t.Errorf("unexpected match: %v", got)
	}
}

func TestIndexedLookupMatchesScan(t *testing.T) {
	c := NewStore().Collection("c")
	for i := 0; i < 50; i++ {
		op := "CREATE"
		if i%3 == 0 {
			op = "BID"
		}
		if err := c.Insert(fmt.Sprint(i), doc("op", op, "i", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	scan := c.findKeys(Eq("op", "BID"))
	c.CreateIndex("op")
	indexed := c.findKeys(Eq("op", "BID"))
	if !reflect.DeepEqual(scan, indexed) {
		t.Errorf("indexed result %v differs from scan %v", indexed, scan)
	}
	// Index stays consistent across insert, update and upsert.
	if err := c.Insert("new", doc("op", "BID")); err != nil {
		t.Fatal(err)
	}
	if err := update(c, "new", func(d map[string]any) error { d["op"] = "CREATE"; return nil }); err != nil {
		t.Fatal(err)
	}
	if keys := c.findKeys(Eq("op", "BID")); len(keys) != len(scan) {
		t.Errorf("after update: %d BIDs, want %d", len(keys), len(scan))
	}
	if err := c.Upsert("0", doc("op", "RETURN", "i", 0.0)); err != nil {
		t.Fatal(err)
	}
	if keys := c.findKeys(Eq("op", "BID")); len(keys) != len(scan)-1 {
		t.Errorf("after upsert: %d BIDs, want %d", len(keys), len(scan)-1)
	}
	// In and And filters also use the index.
	inKeys := c.findKeys(In("op", "BID", "CREATE"))
	if n := len(c.Keys()) - 1; len(inKeys) != n {
		t.Errorf("In matched %d of %d", len(inKeys), n)
	}
	andKeys := c.findKeys(And(Eq("op", "BID"), Gte("i", 11)))
	for _, k := range andKeys {
		d, _ := c.Get(k)
		if d["op"] != "BID" || d["i"].(float64) <= 10 {
			t.Errorf("And via index returned wrong doc %v", d)
		}
	}
}

func TestIndexOverArrayValues(t *testing.T) {
	c := NewStore().Collection("c")
	if err := c.Insert("a", doc("caps", []any{"cnc", "3d"})); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("b", doc("caps", []any{"paint"})); err != nil {
		t.Fatal(err)
	}
	c.CreateIndex("caps")
	if got := c.findKeys(Contains("caps", "cnc")); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("Contains via index = %v", got)
	}
}

func TestIndexPropertyEquivalence(t *testing.T) {
	// Property: for random docs, indexed Eq returns the same set as a scan.
	f := func(vals []uint8) bool {
		c := NewStore().Collection("p")
		for i, v := range vals {
			if err := c.Insert(fmt.Sprint(i), doc("v", float64(v%4))); err != nil {
				return false
			}
		}
		scan := c.findKeys(Eq("v", 2))
		c.CreateIndex("v")
		indexed := c.findKeys(Eq("v", 2))
		return reflect.DeepEqual(scan, indexed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStoreCollections(t *testing.T) {
	s := NewStore()
	s.Collection("b")
	s.Collection("a")
	s.Collection("a") // idempotent
	if got := s.Backend().CollectionNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("CollectionNames = %v", got)
	}
	if err := s.Collection("a").Insert("k", doc()); err != nil {
		t.Fatal(err)
	}
	if !s.Collection("a").Has("k") || s.Collection("b").Has("k") {
		t.Error("a document is not in the one collection it was inserted into")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewStore().Collection("c")
	c.CreateIndex("op")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("%d-%d", g, i)
				if err := c.Insert(key, doc("op", "BID", "g", float64(g))); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
				c.Find(Eq("op", "BID"))
				if i%3 == 0 {
					if err := update(c, key, func(d map[string]any) error { d["op"] = "RETURN"; return nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Keys()); got != 8*100 {
		t.Errorf("%d documents, want %d", got, 8*100)
	}
	if got, want := len(c.Find(Eq("op", "BID"))), 8*(100-34); got != want {
		t.Errorf("%d BIDs left, want %d", got, want)
	}
}

func TestKeysInsertionOrder(t *testing.T) {
	c := NewStore().Collection("c")
	for _, k := range []string{"z", "a", "m"} {
		if err := c.Insert(k, doc()); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"z", "a", "m"}) {
		t.Errorf("Keys = %v", got)
	}
}
