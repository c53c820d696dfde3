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
// reference postings, by brute force. It files a value under the
// string the indexes rendered for it before they keyed postings by
// value (indexKeyFmt), so every differential against it also holds
// the typed keys to the rendered ones.
type refIndex struct {
	path    indexPath
	entries map[string]*refEntry
}

func newRefIndex(path string) *refIndex {
	return &refIndex{path: splitPath(path), entries: map[string]*refEntry{}}
}

func (ix *refIndex) add(docKey string, doc map[string]any, h int64) {
	ix.path.scalars(doc, func(v any) {
		k, ok := indexKeyFmt(v)
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
		k, ok := indexKeyFmt(v)
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
	if v.class() != r.class {
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

// scalarOf is the document scalar an ordValue files.
func scalarOf(v ordValue) any {
	switch v.class() {
	case ordClassNil:
		return nil
	case ordClassBool:
		return v.bits == trueBits
	case ordClassString:
		return v.str
	}
	return v.num()
}

// entries opens up either index kind's entries, by the string the
// reference files each value under.
func entries(ix secondaryIndex) map[string]*idxEntry {
	out := map[string]*idxEntry{}
	add := func(e *idxEntry) {
		k, _ := indexKeyFmt(scalarOf(e.val))
		out[k] = e
	}
	switch x := ix.(type) {
	case *hashIndex:
		for _, e := range x.entries {
			add(e)
		}
	case *orderedIndex:
		for n := x.head.next[0]; n != nil; n = n.next[0] {
			add(&n.idxEntry)
		}
	}
	return out
}

type spanKey struct{ indexKey, docKey string }

// postings lists an entry's postings, inline or in its run.
func (e *idxEntry) postings() []posting {
	if e.run == nil {
		var out []posting
		for _, q := range e.inline {
			if q.doc != "" {
				out = append(out, q)
			}
		}
		return out
	}
	out := make([]posting, e.run.n)
	for i := range out {
		out[i] = e.run.posting(i)
	}
	return out
}

// spanLists rebuilds an index's postings as the reference holds them:
// one list per (value, document), oldest span first. A run posting
// the floor has passed is garbage a compaction has not reached yet,
// invisible at every supported height, and is left out; an inline
// one is reclaimed on the spot, so one left there is listed.
func spanLists(ix secondaryIndex) map[spanKey]spanList {
	floor := core(ix).floor
	out := map[spanKey]spanList{}
	for k, e := range entries(ix) {
		for _, p := range e.postings() {
			if e.run != nil && !p.open() && p.died <= floor {
				continue
			}
			sk := spanKey{k, p.doc}
			out[sk] = append(out[sk], p.span)
		}
	}
	for _, sl := range out {
		sort.Slice(sl, func(i, j int) bool { return sl[i].born < sl[j].born })
	}
	return out
}

// layouts records which posting layouts, and which moves between them,
// a differential run reached, so the stream is held to covering them.
type layouts struct {
	inline    bool // a value with its documents inline
	run       bool // a value past postInline documents, in a run
	compacted bool // a run a compaction passed over: shorter, or back inline
	older     bool // a document with two spans under one value: left and came back
	refilled  bool // an inline slot a sweep vacated, filled again
	last      map[*idxEntry]entryShape
}

// entryShape is what layouts remembers of an entry between looks.
type entryShape struct {
	run     bool
	n       int
	slots   [postInline]bool
	vacated [postInline]bool
}

func (l *layouts) observe(ix secondaryIndex) {
	if l.last == nil {
		l.last = map[*idxEntry]entryShape{}
	}
	for _, e := range entries(ix) {
		prev, seen := l.last[e]
		cur := entryShape{run: e.run != nil}
		if cur.run {
			l.run = true
			cur.n = e.run.n
			l.compacted = l.compacted || (seen && prev.run && cur.n < prev.n)
		} else {
			l.inline = true
			l.compacted = l.compacted || (seen && prev.run)
			for i, q := range e.inline {
				cur.slots[i] = q.doc != ""
				cur.vacated[i] = seen && !prev.run && (prev.vacated[i] || prev.slots[i]) && !cur.slots[i]
				l.refilled = l.refilled || (seen && !prev.run && prev.vacated[i] && cur.slots[i])
			}
		}
		docs := map[string]bool{}
		for _, p := range e.postings() {
			l.older = l.older || docs[p.doc]
			docs[p.doc] = true
		}
		l.last[e] = cur
	}
}

// TestIndexPostingBytes pins what an index retains per (value,
// document) posting, counted off the heap rather than timed: CreateIndex
// over 64 k documents, live heap after a GC before and after. A
// unique-valued index — the transaction ids, timestamps and asset ids
// most chain indexes hold — must cost one entry with its postings
// inline; a two-valued one (the spent flag) a run slot, a document key
// and a death, births kept once per height. Each ceiling is the figure
// the layout reached plus 10 %.
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
		{"unique hash", false, func(i int) any { return fmt.Sprintf("%064x", i) }, 194},
		{"unique ordered", true, func(i int) any { return float64(1_700_000_000_000 + i) }, 158},
		{"two-valued", true, func(i int) any { return i%2 == 0 }, 32},
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
