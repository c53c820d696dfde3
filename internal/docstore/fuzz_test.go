package docstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"smartchaindb/internal/obs"
	"smartchaindb/internal/storage"
)

// fuzzWheres are the predicates of FuzzPlannedFind's partial indexes,
// over a bool field and a string field, as in ledger.ChainIndexes.
var fuzzWheres = []Where{{Path: "spent", Value: false}, {Path: "operation", Value: "REQUEST"}, {Path: "operation", Value: "BID"}}

// fuzzIndexes are FuzzPlannedFind's indexed paths: the differential's
// hash, ordered, multikey, nested and nearly unique paths, the
// transactions-collection shapes of ledger.ChainIndexes with their
// predicates, and partial indexes over the unspent UTXO shape — a hash
// one and an ordered one (single-valued until a fuzzed document puts
// an array there).
func fuzzIndexes() []diffPath {
	return append(diffPaths(),
		diffPath{path: "operation"},
		diffPath{path: "refs"},
		diffPath{path: "asset.id"},
		diffPath{path: "asset.data.capabilities", where: fuzzWheres[1]},
		diffPath{path: "metadata.timestamp", ordered: true, where: fuzzWheres[1]},
		diffPath{path: "outputs.amount", ordered: true, where: fuzzWheres[2]},
		diffPath{path: "owner", where: fuzzWheres[0]},
		diffPath{path: "amount", ordered: true, where: fuzzWheres[0]},
	)
}

// fuzzExtras are probe arguments of every class beside the values the
// documents hold, non-scalars included.
var fuzzExtras = []any{nil, true, false, 0.0, -1.0, 2.5, "", "a0", "zz", []any{"a0"}, map[string]any{}}

// fuzzKeys are the map keys fuzzed documents are built from: every
// component of the indexed paths, so nested maps reach them, and the
// unindexed "u" and "y".
var fuzzKeys = []string{"a", "n", "tags", "nums", "sub", "x", "y", "ts", "u",
	"operation", "refs", "asset", "id", "data", "capabilities", "metadata", "timestamp", "outputs", "amount",
	"owner", "spent"}

// fuzzWords are the strings a tagWord picks from: the predicates'
// values, so fuzzed documents enter and leave them, and two others.
var fuzzWords = []string{"REQUEST", "BID", "a0", "zz"}

// fuzzProg feeds a test's choices from fuzz bytes and, once they run
// out, from a generator seeded with them: a short input still makes
// whole filter trees, and a mutated one different trees. Every byte
// string decodes to something, so the fuzzer spends no input on a
// decoder's error paths.
type fuzzProg struct {
	b   []byte
	rng *rand.Rand
}

func newFuzzProg(b []byte) *fuzzProg {
	h := fnv.New64a()
	h.Write(b)
	return &fuzzProg{b: b, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

func (p *fuzzProg) next(n int) int {
	if len(p.b) == 0 {
		return p.rng.Intn(n)
	}
	c := p.b[0]
	p.b = p.b[1:]
	return int(c) % n
}

func (p *fuzzProg) take(n int) []byte {
	out := make([]byte, n)
	k := copy(out, p.b)
	p.b = p.b[k:]
	p.rng.Read(out[k:])
	return out
}

// The document codec: a tag byte, then the value. fuzzEncode writes
// what value reads.
const (
	tagNull   = iota
	tagBool   // then 0 or 1
	tagInt8   // then one byte, a two's-complement integer
	tagFloat  // then eight bytes, big-endian float64 bits (NaN and ±Inf read as 0)
	tagString // then a length below 16 and the bytes
	tagWord   // then a fuzzWords index
	tagArray  // then a length below 5 and the elements
	tagObject // then a length below 8 and (fuzzKeys index, value) pairs
)

// value decodes one document value nesting at most depth containers.
func (p *fuzzProg) value(depth int) any {
	tags := tagArray
	if depth > 0 {
		tags = tagObject + 1
	}
	switch p.next(tags) {
	case tagNull:
		return nil
	case tagBool:
		return p.next(2) == 1
	case tagInt8:
		return float64(int8(p.next(256)))
	case tagFloat:
		if f := math.Float64frombits(binary.BigEndian.Uint64(p.take(8))); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return 0.0
	case tagString:
		return string(p.take(p.next(16)))
	case tagWord:
		return fuzzWords[p.next(len(fuzzWords))]
	case tagArray:
		out := make([]any, p.next(5))
		for i := range out {
			out[i] = p.value(depth - 1)
		}
		return out
	}
	return p.object(depth - 1)
}

func (p *fuzzProg) object(depth int) map[string]any {
	out := map[string]any{}
	for n := p.next(8); n > 0; n-- {
		out[fuzzKeys[p.next(len(fuzzKeys))]] = p.value(depth)
	}
	return out
}

// fuzzEncode appends the encoding of v to dst.
func fuzzEncode(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNull)
	case bool:
		if x {
			return append(dst, tagBool, 1)
		}
		return append(dst, tagBool, 0)
	case float64:
		if x == float64(int8(x)) {
			return append(dst, tagInt8, byte(int8(x)))
		}
		return binary.BigEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(x))
	case string:
		if i := slices.Index(fuzzWords, x); i >= 0 {
			return append(dst, tagWord, byte(i))
		}
		return append(append(dst, tagString, byte(len(x))), x...)
	case []any:
		dst = append(dst, tagArray, byte(len(x)))
		for _, e := range x {
			dst = fuzzEncode(dst, e)
		}
		return dst
	case map[string]any:
		return fuzzEncodeObject(append(dst, tagObject), x)
	}
	panic(fmt.Sprintf("fuzzEncode: %T", v))
}

func fuzzEncodeObject(dst []byte, m map[string]any) []byte {
	dst = append(dst, byte(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		dst = append(dst, byte(slices.Index(fuzzKeys, k)))
		dst = fuzzEncode(dst, m[k])
	}
	return dst
}

// filter builds a filter tree over paths, with arguments from args:
// leaves (every operator: Eq, In, Contains, Gte, Lt, Lte), bands (a
// lower and an upper comparison on one path) and, in a tree, And and
// Not nodes and a subtree anded with a partial index's predicate.
func (p *fuzzProg) filter(paths []string, args map[string][]any, depth int) Filter {
	kinds := 7
	if depth > 0 {
		kinds = 10
	}
	kind := p.next(kinds)
	path := paths[p.next(len(paths))]
	arg := func() any { return args[path][p.next(len(args[path]))] }
	switch kind {
	case 6:
		upper := []func(string, any) Filter{Lt, Lte}
		return And(Gte(path, arg()), upper[p.next(2)](path, arg()))
	case 9:
		w := fuzzWheres[p.next(len(fuzzWheres))]
		return And(p.filter(paths, args, depth-1), Eq(w.Path, w.Value))
	}
	if kind >= 7 {
		subs := make([]Filter, 1+p.next(3))
		for i := range subs {
			subs[i] = p.filter(paths, args, depth-1)
		}
		if kind == 7 {
			return And(subs...)
		}
		return Not(subs[0])
	}
	switch kind {
	case 0:
		return Eq(path, arg())
	case 1:
		list := make([]any, p.next(4))
		for i := range list {
			list[i] = arg()
		}
		return In(path, list...)
	case 2:
		return Contains(path, arg())
	case 3:
		return Gte(path, arg())
	case 4:
		return Lt(path, arg())
	}
	return Lte(path, arg())
}

// FuzzPlannedFind holds the planner to the full scan: on documents
// decoded from the first input (objects over fuzzKeys, one after
// another) and filter trees built from the third, a planned Find
// returns the documents a forced scan does, in the same order, in the
// writer view and at every retained snapshot height, and so does
// the ordered read over an ordered index against its no-index fallback.
// Every planned Find touches one index (oneIndexPerRead).
// Half the documents are inserted in block 1; the rest replace, add or
// vacate (replace with an empty document) documents in block 2, as the
// second input picks, so index entries move between values and
// lifespans close; blocks 3 and 4 flip
// the predicate fields of some documents, so they leave and re-enter
// the partial indexes inside the retention window. Nothing may panic.
// The seeds are the sweep differential's documents (diffDoc) and
// transactions and UTXO records shaped like ledger.ChainIndexes'
// paths.
func FuzzPlannedFind(f *testing.F) {
	r := rand.New(rand.NewSource(25))
	diffDocs := make([]map[string]any, 12)
	for i := range diffDocs {
		diffDocs[i] = diffDoc(r)
	}
	chain := []map[string]any{
		{"operation": "REQUEST", "refs": []any{}, "asset": map[string]any{"id": "r1", "data": map[string]any{"capabilities": []any{"cnc", "paint"}}},
			"metadata": map[string]any{"timestamp": 1700000000001.0}, "outputs": []any{map[string]any{"amount": 1.0}}},
		{"operation": "BID", "refs": []any{"r1"}, "asset": map[string]any{"id": "b1"},
			"metadata": map[string]any{"timestamp": 1700000000002.0}, "outputs": []any{map[string]any{"amount": 5.0}, map[string]any{"amount": 7.0}}},
		{"operation": "BID", "refs": []any{"r1"}, "asset": map[string]any{"id": "b2"},
			"metadata": map[string]any{"timestamp": "late"}, "outputs": []any{map[string]any{"amount": 9.0}}},
		{"operation": "ACCEPT_BID", "refs": []any{"r1", "b1"}, "asset": map[string]any{"id": "r1"},
			"metadata": map[string]any{"timestamp": 1700000000004.0}, "outputs": []any{}},
		{"operation": "TRANSFER", "refs": []any{"b2", "b2"}, "asset": map[string]any{"id": "b2"}, "outputs": []any{map[string]any{"amount": nil}}},
		{"owner": []any{"a0"}, "amount": 3.0, "spent": false},
		{"owner": []any{"a0", "zz"}, "amount": 5.0, "spent": true},
		{"owner": []any{"zz"}, "amount": 4.0, "spent": false},
	}
	for _, docs := range [][]map[string]any{diffDocs, chain, append(chain, diffDocs...)} {
		var raw []byte
		for _, doc := range docs {
			enc := fuzzEncodeObject(nil, doc)
			if back := newFuzzProg(enc).object(3); !reflect.DeepEqual(back, doc) {
				f.Fatalf("the document codec does not round-trip %v", doc)
			}
			raw = append(raw, enc...)
		}
		f.Add(raw, []byte{}, []byte{})
		f.Add(raw, []byte{3, 1, 0, 2, 7, 0}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
		// The locked-bid find on the chain seeds: And(Contains(refs,
		// "r1"), Eq(operation, "BID")).
		f.Add(raw, []byte{1, 1, 1, 1}, []byte{11, 0, 1, 2, 10, 11, 0, 9, 12})
	}
	f.Fuzz(func(t *testing.T, docBytes, editBytes, progBytes []byte) {
		var docs []map[string]any
		for src := newFuzzProg(docBytes); len(src.b) > 0 && len(docs) < 48; {
			docs = append(docs, src.object(3))
		}
		edits, prog := newFuzzProg(editBytes), newFuzzProg(progBytes)

		s := NewStore()
		bk := s.Backend()
		c := s.Collection("docs")
		indexes := fuzzIndexes()
		paths := []string{"u", "missing", "spent"}
		var ordered []string
		for _, ix := range indexes {
			c.CreateIndexWhere(ix.path, ix.ordered, ix.where)
			if ix.ordered {
				ordered = append(ordered, ix.path)
			}
			paths = append(paths, ix.path)
		}
		args := map[string][]any{}
		for _, path := range paths {
			args[path] = slices.Clone(fuzzExtras)
			for _, doc := range docs {
				splitPath(path).scalars(doc, func(v any) { args[path] = append(args[path], v) })
			}
		}

		half := (len(docs) + 1) / 2
		bk.BeginBlock(1)
		for i, doc := range docs[:half] {
			mustInsert(t, c, fmt.Sprintf("d%02d", i), doc)
		}
		bk.SealBlock(1)
		s.SweepIndexes()
		bk.BeginBlock(2)
		for i, doc := range docs[half:] {
			key := fmt.Sprintf("d%02d", edits.next(half+i+1))
			var err error
			if edits.next(4) == 0 {
				err = c.Upsert(key, map[string]any{}) // vacated: in no index
			} else {
				err = c.Upsert(key, doc)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		bk.SealBlock(2)
		s.SweepIndexes()
		for h := int64(3); h <= 4; h++ {
			bk.BeginBlock(h)
			for n := edits.next(len(docs) + 1); n > 0; n-- {
				key := fmt.Sprintf("d%02d", edits.next(len(docs)))
				flip, word := edits.next(3), fuzzWords[edits.next(len(fuzzWords))]
				if err := update(c, key, func(doc map[string]any) error {
					if flip == 0 {
						spent, _ := doc["spent"].(bool)
						doc["spent"] = !spent
					} else {
						doc["operation"] = word
					}
					return nil
				}); err != nil && !errors.As(err, new(*ErrNotFound)) {
					t.Fatal(err)
				}
			}
			bk.SealBlock(h)
			s.SweepIndexes()
		}

		reg := obs.New()
		s.SetObs(reg)
		for i := 0; i < 8; i++ {
			flt := prog.filter(paths, args, 2)
			orderBy, desc, limit := ordered[prog.next(len(ordered))], prog.next(2) == 0, prog.next(4)
			for _, h := range []int64{storage.HeightLatest, 1, 2, 3} {
				var got []string
				if err := oneIndexPerRead(reg, c, flt, func() { got = c.keysAt(h, flt) }); err != nil {
					t.Fatalf("at height %d: %v", h, err)
				}
				if want := c.scanKeysAt(h, flt); !slices.Equal(got, want) {
					t.Fatalf("at height %d, plan %s found %q, the scan %q", h, c.Explain(flt), got, want)
				}
				if got, want := c.borrowOrderedAt(h, flt, orderBy, desc, limit), c.findOrderedScanAt(h, flt, orderBy, desc, limit); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("at height %d, the ordered read by %s (desc %v, limit %d) under %s: %v, the scan %v", h, orderBy, desc, limit, c.Explain(flt), got, want)
				}
			}
		}
	})
}
