package storage

import (
	"encoding/json"
	"math"
	"testing"

	"smartchaindb/internal/workload"
)

// shapeDocs returns the documents of the two transactions the repo
// benchmark streams (workload.BenchmarkShapes).
func shapeDocs() (transfer4, create1k map[string]any) {
	_, tr, create := workload.BenchmarkShapes()
	return tr.ToDoc(), create.ToDoc()
}

// TestEncodableDocMatchesMarshal: over the document shape (and the Go
// number types that encode as the same JSON numbers) the kind walk
// accepts exactly what the encoder accepts; any other Go type it
// refuses, including the ones the encoder would take and a reopen
// would hand back as something else.
func TestEncodableDocMatchesMarshal(t *testing.T) {
	transfer4, create1k := shapeDocs()
	nest := func(v any) map[string]any {
		return map[string]any{"a": []any{1.0, map[string]any{"b": v}}}
	}
	for _, doc := range []map[string]any{
		nil, {}, transfer4, create1k,
		nest(nil), nest("s"), nest(true), nest(2.5), nest(-0.0), nest(math.MaxFloat64),
		nest(7), nest(int8(-7)), nest(int64(7)), nest(uint(7)), nest(uint64(math.MaxUint64)), nest(float32(1.5)),
		nest(math.NaN()), nest(math.Inf(1)), nest(math.Inf(-1)), nest(float32(math.Inf(1))),
		nest(make(chan int)), nest(func() {}), nest(complex(1, 2)),
	} {
		_, merr := json.Marshal(doc)
		if err := EncodableDoc(doc); (err == nil) != (merr == nil) {
			t.Errorf("EncodableDoc(%v) = %v, json.Marshal: %v", doc, err, merr)
		}
	}
	for _, v := range []any{[]string{"a"}, map[string]string{"a": "b"}, struct{ A int }{1}, json.Number("1"), []byte("x"), new(int)} {
		if err := EncodableDoc(nest(v)); err == nil {
			t.Errorf("EncodableDoc accepted a %T, which is outside the document shape", v)
		}
	}
}

func TestEncodableDocAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	transfer4, create1k := shapeDocs()
	for name, doc := range map[string]map[string]any{"transfer4": transfer4, "create1k": create1k} {
		if got := testing.AllocsPerRun(200, func() {
			if err := EncodableDoc(doc); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("EncodableDoc(%s): %v allocations, want 0", name, got)
		}
	}
}

// TestEncodeGroupIsOneExactAllocation: the payload's capacity is what
// was appended, for every op kind and for lengths on both sides of a
// one-byte uvarint.
func TestEncodeGroupIsOneExactAllocation(t *testing.T) {
	long := make([]byte, 300)
	muts := []mutation{
		{op: opPut, coll: "transactions", key: "k", doc: []byte(`{"a":1}`)},
		{op: opPut, coll: "c", key: string(long[:200]), doc: long},
		{op: opDelete, coll: "utxos", key: "gone"},
		{op: opDrop, coll: "dropped"},
		{op: opPrepare, coll: TwoPCCollection, key: "p:x", doc: long[:127]},
		{op: opDecide, coll: TwoPCCollection, key: "d:x", doc: long[:128]},
	}
	for _, height := range []int64{0, 127, 128, 1 << 40} {
		for n := 0; n <= len(muts); n++ {
			b := encodeGroup(height, muts[:n])
			if cap(b) != len(b) {
				t.Errorf("height %d, %d mutations: payload of %d bytes in a buffer of %d", height, n, len(b), cap(b))
			}
			count := 0
			if err := decodeGroup(b, func(h int64, m mutation) error {
				if h != height || m.op != muts[count].op || m.key != muts[count].key || string(m.doc) != string(muts[count].doc) {
					t.Errorf("height %d: mutation %d decoded as %+v at height %d", height, count, m, h)
				}
				count++
				return nil
			}); err != nil || count != n {
				t.Errorf("height %d: decoded %d of %d mutations: %v", height, count, n, err)
			}
		}
	}
}

func BenchmarkEncodableDoc(b *testing.B) {
	transfer4, create1k := shapeDocs()
	for name, doc := range map[string]map[string]any{"transfer4": transfer4, "create1k": create1k} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := EncodableDoc(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sinkPayload []byte

// BenchmarkEncodeGroup encodes a create_durable block's WAL group: 32
// transactions, each a transaction document, a UTXO and an asset.
func BenchmarkEncodeGroup(b *testing.B) {
	_, create1k := shapeDocs()
	doc, err := marshalDoc(create1k)
	if err != nil {
		b.Fatal(err)
	}
	var muts []mutation
	for i := 0; i < 32; i++ {
		muts = append(muts,
			mutation{op: opPut, coll: "transactions", key: create1k["id"].(string), doc: doc},
			mutation{op: opPut, coll: "utxos", key: create1k["id"].(string) + ":0", doc: doc[:300]},
			mutation{op: opPut, coll: "assets", key: create1k["id"].(string), doc: doc[:200]})
	}
	b.ReportAllocs()
	for b.Loop() {
		sinkPayload = encodeGroup(7, muts)
	}
}
