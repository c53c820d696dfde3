package docstore

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// The posting layout this package had before an index value held its
// first document inline: every indexed value a map from document key
// to a heap-allocated list of spans, newest last, even for a value one
// document holds. It is kept here, test-only, as the reference the
// compact postings are pinned to (TestIncrementalSweepMatchesFullWalk),
// kept the way indexes were kept before the closed-span queue too:
// every replacement is a remove plus an add, and garbage is collected by
// a full walk over every entry.

// spanList holds one document's lifespans under one value, newest
// last.
type spanList []span

func (s spanList) aliveAt(h int64) bool {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].aliveAt(h) {
			return true
		}
	}
	return false
}

func (s spanList) open() bool { return len(s) > 0 && s[len(s)-1].open() }

// sweep drops spans that closed at or below floor and returns the
// survivors.
func (s spanList) sweep(floor int64) spanList {
	kept := s[:0]
	for _, sp := range s {
		if sp.died > floor {
			kept = append(kept, sp)
		}
	}
	return kept
}

// refEntry is one value's postings in the reference layout.
type refEntry struct {
	val  ordValue
	docs map[string]spanList
}

func (e *refEntry) keysAt(h int64) []string {
	var keys []string
	for dk, sl := range e.docs {
		if sl.aliveAt(h) {
			keys = append(keys, dk)
		}
	}
	return keys
}

// refIndex answers everything either index kind answers — point
// probes, range scans and value-ordered groups — over
// reference postings, by brute force.
type refIndex struct {
	path    indexPath
	entries map[string]*refEntry
}

func newRefIndex(path string) *refIndex {
	return &refIndex{path: splitPath(path), entries: map[string]*refEntry{}}
}

func (ix *refIndex) add(docKey string, doc map[string]any, h int64) {
	ix.path.scalars(doc, func(v any) {
		k, ok := indexKey(v)
		if !ok {
			return
		}
		e := ix.entries[k]
		if e == nil {
			ov, _ := ordValueOf(v)
			e = &refEntry{val: ov, docs: map[string]spanList{}}
			ix.entries[k] = e
		}
		if sl := e.docs[docKey]; !sl.open() {
			e.docs[docKey] = append(sl, span{born: h, died: spanOpen})
		}
	})
}

func (ix *refIndex) remove(docKey string, doc map[string]any, h int64) {
	ix.path.scalars(doc, func(v any) {
		k, ok := indexKey(v)
		if !ok {
			return
		}
		if e := ix.entries[k]; e != nil {
			if sl := e.docs[docKey]; sl.open() {
				sl[len(sl)-1].died = h
			}
		}
	})
}

// sweepFullWalk visits every span list of every entry and drops what
// the floor has passed: a cost of the size of the index per call.
func (ix *refIndex) sweepFullWalk(floor int64) {
	for k, e := range ix.entries {
		for dk, sl := range e.docs {
			if kept := sl.sweep(floor); len(kept) == 0 {
				delete(e.docs, dk)
			} else {
				e.docs[dk] = kept
			}
		}
		if len(e.docs) == 0 {
			delete(ix.entries, k)
		}
	}
}

func (ix *refIndex) lookupEq(key string, h int64) []string {
	if e := ix.entries[key]; e != nil {
		return e.keysAt(h)
	}
	return nil
}

// sorted lists the entries in the ordered index's value order.
func (ix *refIndex) sorted() []*refEntry {
	out := make([]*refEntry, 0, len(ix.entries))
	for _, e := range ix.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val.compare(out[j].val) < 0 })
	return out
}

func inRange(r ordRange, v ordValue) bool {
	if v.class != r.class {
		return false
	}
	if r.hasLo {
		if v.compare(r.lo) < 0 {
			return false
		}
	}
	if r.hasHi {
		if c := v.compare(r.hi); c > 0 || (c == 0 && r.hiStrict) {
			return false
		}
	}
	return true
}

func (ix *refIndex) lookupRange(r ordRange, h int64) []string {
	var out []string
	for _, e := range ix.sorted() {
		if inRange(r, e.val) {
			out = append(out, e.keysAt(h)...)
		}
	}
	return out
}

// groups is every value's visible keys at h in value order, reversed
// when desc — what a groupCursor streams.
func (ix *refIndex) groups(h int64, desc bool) [][]string {
	entries := ix.sorted()
	out := make([][]string, len(entries))
	for i, e := range entries {
		out[i] = e.keysAt(h)
	}
	if desc {
		slices.Reverse(out)
	}
	return out
}

// spanLists flattens the reference's postings for comparison.
func (ix *refIndex) spanLists() map[spanKey]spanList {
	out := map[spanKey]spanList{}
	for k, e := range ix.entries {
		for dk, sl := range e.docs {
			out[spanKey{k, dk}] = sl
		}
	}
	return out
}

// entries opens up either index kind's postings by index key.
func entries(ix secondaryIndex) map[string]*idxEntry {
	out := map[string]*idxEntry{}
	switch x := ix.(type) {
	case *hashIndex:
		for k, e := range x.entries {
			out[k] = e
		}
	case *orderedIndex:
		for k, n := range x.byKey {
			out[k] = &n.idxEntry
		}
	}
	return out
}

type spanKey struct{ indexKey, docKey string }

// spanLists rebuilds an index's postings as the reference holds them:
// older spans, then the newest.
func spanLists(ix secondaryIndex) map[spanKey]spanList {
	out := map[spanKey]spanList{}
	for k, e := range entries(ix) {
		add := func(dk string, newest span) {
			out[spanKey{k, dk}] = append(append(spanList{}, e.older[dk]...), newest)
		}
		if e.docs == nil {
			if e.doc != "" {
				add(e.doc, e.span)
			}
			continue
		}
		for dk, sp := range e.docs {
			add(dk, sp)
		}
	}
	return out
}

// layouts records which posting layouts, and which moves between them,
// a differential run reached, so the stream is held to covering them.
type layouts struct {
	inline    bool // a value with its one document inline
	mapped    bool // a value with a map of two or more postings
	collapsed bool // a mapped value back down to one posting, inline
	older     bool // a posting with an older span: left and came back
	wasMapped map[*idxEntry]bool
}

func (l *layouts) observe(ix secondaryIndex) {
	if l.wasMapped == nil {
		l.wasMapped = map[*idxEntry]bool{}
	}
	for _, e := range entries(ix) {
		switch {
		case e.docs != nil:
			l.mapped = true
			l.wasMapped[e] = true
		case e.doc != "":
			l.inline = true
			l.collapsed = l.collapsed || l.wasMapped[e]
		}
		l.older = l.older || len(e.older) > 0
	}
}

// TestIndexPostingBytes pins what an index retains per (value,
// document) posting, counted off the heap rather than timed: CreateIndex
// over 64 k documents, live heap after a GC before and after. A
// unique-valued index — the transaction ids, timestamps and asset ids
// most chain indexes hold — must cost a few words per posting, not a
// hash table; a two-valued one (the spent flag) a map slot.
func TestIndexPostingBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not the program's own under the race detector")
	}
	const docs = 64 << 10
	for _, tc := range []struct {
		name    string
		ordered bool
		value   func(i int) any
		ceiling float64
	}{
		{"unique hash", false, func(i int) any { return fmt.Sprintf("%064x", i) }, 240},
		{"unique ordered", true, func(i int) any { return float64(1_700_000_000_000 + i) }, 240},
		{"two-valued", true, func(i int) any { return i%2 == 0 }, 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewStore().Collection("docs")
			for i := 0; i < docs; i++ {
				mustInsert(t, c, fmt.Sprintf("k%06d", i), map[string]any{"v": tc.value(i)})
			}
			before := liveHeap()
			if tc.ordered {
				c.CreateOrderedIndex("v")
			} else {
				c.CreateIndex("v")
			}
			perPosting := float64(liveHeap()-before) / docs
			runtime.KeepAlive(c)
			t.Logf("%s: %.0f retained bytes per posting", tc.name, perPosting)
			if perPosting > tc.ceiling {
				t.Errorf("%s index: %.0f retained bytes per posting, ceiling %.0f", tc.name, perPosting, tc.ceiling)
			}
		})
	}
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
