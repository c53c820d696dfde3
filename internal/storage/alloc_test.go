package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
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

// padDoc returns a document whose encoding is exactly n bytes.
func padDoc(n int) map[string]any {
	return map[string]any{"p": strings.Repeat("x", n-len(`{"p":""}`))}
}

// TestGroupFrameMatchesReference: a frame built in place — header
// right-aligned into the headroom, each document encoded straight
// after its guessed length field — is byte for byte the frame the old
// engine assembled from json.Marshal output, for both op kinds, for
// heights and counts on both sides of a one-byte uvarint, and for
// document lengths on both sides of the length guess; and it decodes to
// what went in. One groupFrame builds them all, as the engine's does.
func TestGroupFrameMatchesReference(t *testing.T) {
	transfer4, create1k := shapeDocs()
	muts := []refMutation{
		{op: opPut, coll: "transactions", key: "k", doc: map[string]any{"a": 1.0}},
		{op: opPut, coll: "c", key: strings.Repeat("k", 200), doc: padDoc(300)},
		{op: opDelete, coll: "utxos", key: "gone"},
		{op: opPut, coll: TwoPCCollection, key: "p:x", doc: padDoc(127)},
		{op: opPut, coll: TwoPCCollection, key: "d:x", doc: padDoc(128)},
		{op: opPut, coll: "c", key: "two-byte length, just", doc: padDoc(16383)},
		{op: opPut, coll: "c", key: "three-byte length", doc: padDoc(16384)},
		{op: opPut, coll: "c", key: "escapes", doc: map[string]any{"<s>": "a&b\u2028", "n": []any{nil, -0.0, 1e21, 2e-7, int8(-3)}}},
		{op: opPut, coll: "transactions", key: "transfer4", doc: transfer4},
		{op: opPut, coll: "transactions", key: "create1k", doc: create1k},
		{op: opPut, coll: "c", key: "empty", doc: map[string]any{}},
	}
	for len(muts) < 130 { // a count past one uvarint byte
		muts = append(muts, refMutation{op: opDelete, coll: "c", key: "filler"})
	}
	var g groupFrame
	for _, height := range []int64{0, 127, 128, 1 << 40} {
		for _, n := range []int{0, 1, 2, 5, 6, 8, 12, 127, 128, len(muts)} {
			g.reset()
			for _, m := range muts[:n] {
				if err := g.add(m.op, m.coll, m.key, m.doc); err != nil {
					t.Fatal(err)
				}
				// A refused document leaves no trace in the frame.
				if err := g.add(opPut, "c", "nan", map[string]any{"x": math.NaN()}); err == nil {
					t.Fatal("a NaN document was staged")
				}
			}
			frame := g.finish(height)
			if want := refFrame(t, height, muts[:n]); !bytes.Equal(frame, want) {
				t.Fatalf("height %d, %d mutations: frame of %d bytes differs from the reference's %d", height, n, len(frame), len(want))
			}
			count := 0
			if err := decodeGroup(frame[walFrameOverhead:], func(h int64, m mutation) error {
				want := muts[count]
				var doc []byte
				if opHasDoc(want.op) {
					doc, _ = json.Marshal(want.doc)
				}
				if h != height || m.op != want.op || m.coll != want.coll || m.key != want.key || !bytes.Equal(m.doc, doc) {
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

// durableBlock is the write set of a create_durable block: 32 CREATEs
// with 1 KiB of metadata, each a transaction document, its output and
// its asset. Keys repeat across calls, so a warm run replaces.
type durableBlock struct {
	tx, utxo, asset map[string]any
	keys            []string
}

func newDurableBlock() *durableBlock {
	_, create1k := shapeDocs()
	b := &durableBlock{
		tx:    create1k,
		utxo:  map[string]any{"amount": 1.0, "owners": []any{"3yZe7dSBoFkkQJ8N7WoKCyaNnKXRnMT6hbBH2UgWm7WS"}, "spent": false, "transaction_id": create1k["id"], "output_index": 0.0},
		asset: map[string]any{"id": create1k["id"], "data": create1k["asset"]},
	}
	for i := 0; i < 32; i++ {
		b.keys = append(b.keys, fmt.Sprintf("%s%02d", create1k["id"], i))
	}
	return b
}

// commit writes the block as one group.
func (b *durableBlock) commit(be Backend) error {
	txs, utxos, assets := be.Collection("transactions"), be.Collection("utxos"), be.Collection("assets")
	return be.Group(func() error {
		for _, k := range b.keys {
			if err := txs.Put(k, b.tx); err != nil {
				return err
			}
			if err := utxos.Put(k+":0", b.utxo); err != nil {
				return err
			}
			if err := assets.Put(k, b.asset); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestGroupCommitAllocations pins what encoding and logging a block
// costs: the disk engine's allocations for a warm create_durable group
// minus the memory backend's for the same group — so the memtable's own
// version and chain allocations cancel — is a handful of objects and a
// fraction of the frame, where three copies of every document used to
// make it three frames' worth and json's own besides.
func TestGroupCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	eng, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	blk := newDurableBlock()
	measure := func(be Backend) (allocs, bytes float64) {
		run := func() {
			if err := blk.commit(be); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: buffers grown, keys inserted
		allocs = testing.AllocsPerRun(50, run)
		const runs = 50
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	memAllocs, memBytes := measure(NewMemory())
	before := eng.stats().WALBytes
	diskAllocs, diskBytes := measure(eng)
	frame := float64(eng.stats().WALBytes-before) / 101 // every run wrote the same frame
	t.Logf("frame %.0f B; disk %.0f allocs %.0f B, memory %.0f allocs %.0f B", frame, diskAllocs, diskBytes, memAllocs, memBytes)
	if got := diskAllocs - memAllocs; got > 4 {
		t.Errorf("encoding and logging a 32-transaction group: %v allocations, ceiling 4", got)
	}
	// Half a frame: one copy of the frame anywhere between Put and
	// write(2) is a whole one.
	if got := diskBytes - memBytes; got > 0.5*frame {
		t.Errorf("encoding and logging a %.0f-byte frame allocated %.0f bytes, ceiling half a frame", frame, got)
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

// BenchmarkGroupCommit commits a create_durable block's WAL group — 32
// transactions, each a transaction document, a UTXO and an asset —
// without fsync: encode, frame, write, memtable.
func BenchmarkGroupCommit(b *testing.B) {
	eng, err := Open(b.TempDir(), Options{NoSync: true, CompactWALBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	blk := newDurableBlock()
	b.ReportAllocs()
	for b.Loop() {
		if err := blk.commit(eng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFold folds a captured state of 128 such blocks — 12 288
// documents — into segment files: sort, encode, write, fsync, rename.
func BenchmarkFold(b *testing.B) {
	dir := b.TempDir()
	eng, err := Open(dir, Options{NoSync: true, CompactWALBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	blk := newDurableBlock()
	for i := 0; i < 128; i++ {
		for j := range blk.keys {
			blk.keys[j] = fmt.Sprintf("%04d-%02d", i, j)
		}
		if err := blk.commit(eng); err != nil {
			b.Fatal(err)
		}
	}
	heads := eng.mem.captureHeads()
	b.ReportAllocs()
	for b.Loop() {
		var written int64
		for i, ch := range heads {
			n, err := writeSegment(filepath.Join(dir, segName(99, i)), ch, func(string) {})
			if err != nil {
				b.Fatal(err)
			}
			written += n
		}
		b.SetBytes(written)
	}
}
