package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The encoders the append-encoder and the background fold replaced,
// kept as the references they are byte-compared to: every document
// through encoding/json.Marshal, a group assembled from per-mutation
// byte slices, a segment written synchronously from the live memtable.

// refMutation is a mutation as the old engine staged it.
type refMutation struct {
	op        byte
	coll, key string
	doc       map[string]any
}

// refFrame is the WAL frame the old engine wrote for a group.
func refFrame(t testing.TB, height int64, muts []refMutation) []byte {
	t.Helper()
	payload := []byte{walPayloadVersion}
	payload = appendUvarint(payload, uint64(height))
	payload = appendUvarint(payload, uint64(len(muts)))
	for _, m := range muts {
		payload = append(payload, m.op)
		payload = appendString(payload, m.coll)
		payload = appendString(payload, m.key)
		if opHasDoc(m.op) {
			data, err := json.Marshal(m.doc)
			if err != nil {
				t.Fatal(err)
			}
			payload = appendUvarint(payload, uint64(len(data)))
			payload = append(payload, data...)
		}
	}
	frame := make([]byte, walFrameOverhead, walFrameOverhead+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// refWriteSegment writes c's live writer view to path the way the old
// synchronous Compact did: read off the memtable at the moment of the
// call, sorted by key, json.Marshal per document.
func refWriteSegment(t testing.TB, path string, c *MemCollection) {
	t.Helper()
	type rec struct {
		key string
		v   *docVersion
	}
	var recs []rec
	c.scanHead(func(key string, v *docVersion) bool {
		recs = append(recs, rec{key, v})
		return true
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	bw.Write(segMagic[:])
	body := []byte{segVersion}
	body = appendString(body, c.name)
	body = appendUvarint(body, uint64(len(recs)))
	for _, rc := range recs {
		data, err := json.Marshal(rc.v.doc)
		if err != nil {
			t.Fatal(err)
		}
		body = appendString(body, rc.key)
		body = appendUvarint(body, rc.v.ord)
		body = appendUvarint(body, uint64(rc.v.height))
		body = appendUvarint(body, uint64(len(data)))
		body = append(body, data...)
	}
	bw.Write(body)
	var footer [4]byte
	binary.BigEndian.PutUint32(footer[:], crc32.Checksum(body, castagnoli))
	bw.Write(footer[:])
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// refCompact writes, into dir, the segment files the old Compact would
// have written for generation gen from e's memtable as it stands. The
// caller excludes writers, as Compact's exclusive lock did.
func refCompact(t testing.TB, dir string, e *Engine, gen uint64) {
	t.Helper()
	for i, name := range e.mem.CollectionNames() {
		refWriteSegment(t, filepath.Join(dir, segName(gen, i)), e.mem.coll(name))
	}
}
