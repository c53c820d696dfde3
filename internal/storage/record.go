package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"smartchaindb/internal/canon"
)

// Mutation ops inside a WAL payload. opPrepare and opDecide are the
// tags the two-phase-commit log's records were once framed with, before
// they were written as puts to TwoPCCollection like any other document.
// Nothing writes them any more; a reader takes each as a put, so a data
// directory that holds them still reopens.
const (
	opPut     = 1
	opDelete  = 2
	opPrepare = 4
	opDecide  = 5
)

// walPayloadVersion is the one WAL payload version ever written to a
// file: the mutation list prefixed with the block height the group's
// writes were stamped with.
const walPayloadVersion = 2

// opHasDoc reports whether op's record carries a document.
func opHasDoc(op byte) bool { return op == opPut || op == opPrepare || op == opDecide }

// mutation is one decoded WAL record.
type mutation struct {
	op   byte
	coll string
	key  string
	doc  []byte // canonical JSON, ops with a document only
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// uvarintLen is the number of bytes appendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendDoc appends doc as both file formats carry one — uvarint
// length, then canonical JSON — encoding straight into b. The length is
// only known once the document is written, so room for it is guessed
// up front and the document shifted by the difference in the uncommon
// case the guess was wrong; nothing is allocated beyond b's own growth.
// On an unencodable document b comes back at its original length.
func appendDoc(b []byte, doc map[string]any) ([]byte, error) {
	const guess = 2 // length bytes of a 128 B to 16 KiB document
	at := len(b)
	b = append(b, 0, 0)
	b, err := canon.AppendDoc(b, doc)
	if err != nil {
		return b[:at], fmt.Errorf("storage: document not JSON-representable: %w", err)
	}
	n := len(b) - at - guess
	if w := uvarintLen(uint64(n)); w != guess {
		if w > guess {
			var pad [binary.MaxVarintLen64]byte
			b = append(b, pad[:w-guess]...)
		}
		copy(b[at+w:], b[at+guess:at+guess+n])
		b = b[:at+w+n]
	}
	binary.PutUvarint(b[at:], uint64(n))
	return b, nil
}

// frameHeadroom is what a group's buffer reserves in front of its first
// mutation for the fields only known when the group closes: the frame
// header (payload length, CRC) and the payload's version, height and
// mutation count.
const frameHeadroom = walFrameOverhead + 1 + 2*binary.MaxVarintLen64

// groupFrame builds one WAL frame in place: every mutation of a group
// is encoded once, straight into the buffer the frame is written to the
// file from, and the buffer is reused by the next group.
type groupFrame struct {
	buf   []byte // frameHeadroom reserved bytes, then the mutations
	count uint64 // mutations
	docs  uint64 // of which carry a document
}

func (g *groupFrame) reset() {
	if cap(g.buf) < frameHeadroom {
		g.buf = make([]byte, frameHeadroom, 4096)
	}
	g.buf = g.buf[:frameHeadroom]
	g.count, g.docs = 0, 0
}

// add appends one mutation; doc is read only for the ops that carry
// one. A document that cannot be encoded leaves the group as it was.
func (g *groupFrame) add(op byte, coll, key string, doc map[string]any) error {
	mark := len(g.buf)
	b := append(g.buf, op)
	b = appendString(b, coll)
	b = appendString(b, key)
	if opHasDoc(op) {
		var err error
		if b, err = appendDoc(b, doc); err != nil {
			g.buf = b[:mark]
			return err
		}
		g.docs++
	}
	g.buf = b
	g.count++
	return nil
}

// finish closes the group at height: the payload header and the frame
// header go right-aligned into the headroom, directly in front of the
// first mutation. The returned frame aliases the buffer and is valid
// until the next reset.
func (g *groupFrame) finish(height int64) []byte {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = walPayloadVersion
	n := 1 + binary.PutUvarint(hdr[1:], uint64(height))
	n += binary.PutUvarint(hdr[n:], g.count)
	frame := g.buf[frameHeadroom-n-walFrameOverhead:]
	payload := frame[walFrameOverhead:]
	copy(payload, hdr[:n])
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame
}

// byteReader walks an encoded payload.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)-r.off) < n {
		return nil, fmt.Errorf("storage: short field at offset %d", r.off)
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p, nil
}

func (r *byteReader) readString() (string, error) {
	p, err := r.bytes()
	return string(p), err
}

func (r *byteReader) readByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("storage: short payload")
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

// decodeGroup parses one WAL payload, calling fn per mutation with
// the group's block height. The doc slice aliases the payload; fn must
// not retain it.
func decodeGroup(payload []byte, fn func(height int64, m mutation) error) error {
	r := &byteReader{b: payload}
	ver, err := r.readByte()
	if err != nil {
		return err
	}
	if ver != walPayloadVersion {
		return fmt.Errorf("storage: unknown wal payload version %d", ver)
	}
	h, err := r.uvarint()
	if err != nil {
		return err
	}
	if h > math.MaxInt64 {
		return fmt.Errorf("storage: wal group height %d out of range", h)
	}
	height := int64(h)
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		var m mutation
		if m.op, err = r.readByte(); err != nil {
			return err
		}
		if m.coll, err = r.readString(); err != nil {
			return err
		}
		if m.key, err = r.readString(); err != nil {
			return err
		}
		switch m.op {
		case opPut, opPrepare, opDecide:
			if m.doc, err = r.bytes(); err != nil {
				return err
			}
		case opDelete:
		default:
			return fmt.Errorf("storage: unknown wal op %d", m.op)
		}
		if err := fn(height, m); err != nil {
			return err
		}
	}
	return nil
}

// EncodableDoc reports whether doc survives the durability round-trip
// — the same canonical-JSON encoding a disk backend's Put performs.
// The pipelined block commit checks user-controlled documents in its
// parallel apply phase, so an unencodable transaction is skipped with
// no side effects before the seal ever touches the WAL.
func EncodableDoc(doc map[string]any) error {
	return encodableValue(doc)
}

// encodableValue walks a value by kind, allocating nothing, and
// refuses what the encoding refuses — NaN, ±Inf — along with every Go
// type outside the document shape Collection.Put names (plus the other
// Go number types, which encode as the same JSON numbers): a channel
// or func would fail the encode, and anything else would come back
// from a reopen as a different type than was stored.
func encodableValue(v any) error {
	switch x := v.(type) {
	case nil, bool, string,
		int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64:
		return nil
	case float64:
		return encodableFloat(x)
	case float32:
		return encodableFloat(float64(x))
	case map[string]any:
		for _, e := range x {
			if err := encodableValue(e); err != nil {
				return err
			}
		}
		return nil
	case []any:
		for _, e := range x {
			if err := encodableValue(e); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("storage: document not JSON-representable: unsupported type %T", v)
}

func encodableFloat(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("storage: document not JSON-representable: unsupported value: %v", f)
	}
	return nil
}

func unmarshalDoc(data []byte) (map[string]any, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("storage: corrupt document: %w", err)
	}
	return doc, nil
}
