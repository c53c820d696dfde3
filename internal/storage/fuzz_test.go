package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The storage trust boundary: bytes read back from a data directory.
// None of its three decoders may panic on any input, size an allocation
// by a length field the input cannot back, or decode what the encoders
// wrote into anything else.

// seedBlock is a create_durable block cut down to two transactions: the
// same records, and seeds small enough to mutate quickly.
func seedBlock() *durableBlock {
	blk := newDurableBlock()
	blk.keys = blk.keys[:2]
	return blk
}

// durableFrame is a real create_durable-shaped WAL frame: a block's
// group as the engine wrote it.
func durableFrame(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	e.BeginBlock(3)
	if err := seedBlock().commit(e); err != nil {
		t.Fatal(err)
	}
	e.SealBlock(3)
	e.Close()
	data, err := os.ReadFile(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return data[walHeaderLen:]
}

// FuzzDecodeGroup throws bytes at the WAL reader twice over — as a
// group payload and as a log file of frames — and, whenever the
// document argument is a JSON object, builds a group of every op kind
// around it and requires the decode to give back exactly what went in,
// the document as encoding/json writes it.
func FuzzDecodeGroup(f *testing.F) {
	transfer4, create1k := shapeDocs()
	frame := durableFrame(f)
	for _, doc := range []map[string]any{transfer4, create1k, {}, {"a": []any{nil, 1.5, "<s>"}}} {
		raw, _ := json.Marshal(doc)
		f.Add(frame[walFrameOverhead:], "k", raw, uint64(7))
		f.Add(frame[:len(frame)/2], "", raw, uint64(1)<<63)
	}
	f.Add([]byte{walPayloadVersion, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, "count without records", []byte(`{}`), uint64(0))
	f.Add([]byte{walPayloadVersion, 0, 1, opPut, 0xff, 0xff, 0xff, 0xff, 0x0f, 'c'}, "string longer than the payload", []byte(`{}`), uint64(0))
	f.Fuzz(func(t *testing.T, payload []byte, key string, docJSON []byte, height uint64) {
		discard := func(int64, mutation) error { return nil }
		_ = decodeGroup(payload, discard)
		file := append(walMagic[:len(walMagic):len(walMagic)], payload...)
		if _, err := readFrames(bytes.NewReader(file), int64(len(file)), func(p []byte) error { return decodeGroup(p, discard) }); err != nil {
			return // a frame that checks out but does not decode: Open fails, it must not panic
		}

		var doc map[string]any
		if json.Unmarshal(docJSON, &doc) != nil {
			return
		}
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		ops := []byte{opPut, opDelete, opPrepare, opDecide, opPut}
		h := int64(height >> 1)
		var g groupFrame
		g.reset()
		for _, op := range ops {
			if err := g.add(op, "c"+key, key, doc); err != nil {
				t.Fatal(err)
			}
		}
		framed := append(walMagic[:len(walMagic):len(walMagic)], g.finish(h)...)
		var got []mutation
		n, err := readFrames(bytes.NewReader(framed), int64(len(framed)), func(p []byte) error {
			return decodeGroup(p, func(gh int64, m mutation) error {
				if gh != h {
					t.Errorf("height %d decoded as %d", h, gh)
				}
				m.doc = bytes.Clone(m.doc)
				got = append(got, m)
				return nil
			})
		})
		if err != nil || n != int64(len(framed)) || len(got) != len(ops) {
			t.Fatalf("read back %d of %d bytes, %d of %d mutations: %v", n, len(framed), len(got), len(ops), err)
		}
		for i, m := range got {
			wantDoc := want
			if !opHasDoc(ops[i]) {
				wantDoc = nil
			}
			if m.op != ops[i] || m.coll != "c"+key || m.key != key || !bytes.Equal(m.doc, wantDoc) {
				t.Fatalf("mutation %d decoded as %+v", i, m)
			}
		}
	})
}

// segmentOf wraps a segment body in the file's magic and checksum.
func segmentOf(body []byte) []byte {
	seg := append(segMagic[:len(segMagic):len(segMagic)], body...)
	return binary.BigEndian.AppendUint32(seg, crc32.Checksum(body, castagnoli))
}

// FuzzLoadSegment throws bytes at the segment loader as a file and as a
// body under a valid checksum (the only way past the first check). What
// it accepts, a fold of the loaded state must write back to a file that
// loads to the same state.
func FuzzLoadSegment(f *testing.F) {
	dir := f.TempDir()
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := seedBlock().commit(e); err != nil {
		f.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		f.Fatal(err)
	}
	e.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[len(segMagic) : len(data)-4])
	}
	f.Add([]byte{segVersion, 1, 'c', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(append([]byte{segVersion, 1, 'c', 2, 1, 'b', 0, 0, 2, '{', '}'}, 1, 'a', 1, 0, 2, '{', '}'))           // keys out of order
	f.Add(append([]byte{segVersion, 1, 'c', 2, 1, 'a', 0, 0, 2, '{', '}'}, 1, 'a', 1, 0, 2, '{', '}'))           // a key twice
	f.Add(append([]byte{segVersion, 1, 'c', 2, 1, 'a', 0, 0, 2, '{', '}'}, 1, 'b', 1, 0, 4, 'n', 'u', 'l', 'l')) // a tombstone
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeSegment(data, NewMemory())
		mem := NewMemory()
		if _, err := decodeSegment(segmentOf(data), mem); err != nil {
			return
		}
		for _, name := range mem.CollectionNames() {
			if c := mem.coll(name); c.Len() != len(c.Keys()) {
				t.Fatalf("accepted a segment that loads %d documents of which a scan finds %d", c.Len(), len(c.Keys()))
			}
		}
		dir := t.TempDir()
		for i, ch := range mem.captureHeads() {
			path := filepath.Join(dir, segName(1, i))
			if _, err := writeSegment(path, ch, func(string) {}); err != nil {
				t.Fatal(err)
			}
			again := NewMemory()
			if _, _, err := loadSegment(path, again); err != nil {
				t.Fatalf("the fold of an accepted segment does not load: %v", err)
			}
			if !reflect.DeepEqual(dump(again), dump(mem)) || !reflect.DeepEqual(again.coll(ch.name).Keys(), mem.coll(ch.name).Keys()) {
				t.Fatalf("segment → fold → segment changed the state")
			}
		}
	})
}

// FuzzReadManifest throws bytes at the MANIFEST parser. What it accepts
// names only plain files of the engine's own kinds — Open deletes and
// reads by these names — with the live WAL last, and survives the
// writer.
func FuzzReadManifest(f *testing.F) {
	for _, m := range []manifest{
		{Version: 1, Gen: 0, WAL: walName(0)},
		{Version: 1, Gen: 4, WAL: walName(4), Segments: []string{segName(4, 0), segName(4, 1)}},
		{Version: 1, Gen: 5, WAL: walName(5), WALs: []string{walName(3), walName(5)}, Segments: []string{segName(3, 0)}},
	} {
		data, _ := json.MarshalIndent(m, "", "  ")
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"gen":1,"wal":"../wal-000001.log","segments":[]}`))
	f.Add([]byte(`{"version":1,"gen":1,"wal":"wal-000001.log","segments":["seg-/../../etc/x.seg"]}`))
	f.Add([]byte(`{"version":1,"gen":1,"wal":"wal-000001.log","wals":["wal-000001.log","wal-000000.log"]}`))
	f.Add([]byte(`{"version":2,"gen":1,"wal":"wal-000001.log"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		wals := m.wals()
		if len(wals) == 0 || wals[len(wals)-1] != m.WAL {
			t.Fatalf("accepted a manifest whose live wal %q is not the last of %q", m.WAL, wals)
		}
		for _, name := range append(wals, m.Segments...) {
			if name != filepath.Base(name) || filepath.Join("d", name) != "d"+string(filepath.Separator)+name {
				t.Fatalf("accepted the file name %q", name)
			}
		}
		dir := t.TempDir()
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		back, err := readManifest(dir)
		if err != nil || !reflect.DeepEqual(back.wals(), wals) || !reflect.DeepEqual(back.Segments, m.Segments) || back.Gen != m.Gen {
			t.Fatalf("manifest %+v read back as %+v: %v", m, back, err)
		}
	})
}
