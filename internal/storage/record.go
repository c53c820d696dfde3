package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// Mutation ops inside a WAL payload. opPrepare and opDecide are the
// cross-shard two-phase-commit record types: both carry a document
// like opPut (they target the reserved TwoPCCollection), but keep
// distinct frame tags so a WAL reader can classify 2PC traffic
// without parsing document payloads.
const (
	opPut     = 1
	opDelete  = 2
	opDrop    = 3 // drop a whole collection
	opPrepare = 4 // 2PC participant PREPARE record
	opDecide  = 5 // 2PC coordinator/participant decision record
)

// WAL payload versions. v1 had no height; v2 prefixes the mutation
// list with the block height the group's writes were stamped with.
// Decoding accepts both (v1 groups replay at height 0).
const (
	walPayloadV1      = 1
	walPayloadVersion = 2
)

// mutation is one durable document change staged into a WAL group.
type mutation struct {
	op   byte
	coll string
	key  string
	doc  []byte // canonical JSON, opPut only
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

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// uvarintLen is the number of bytes appendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// stringLen is the number of bytes appendString and appendBytes write
// for n bytes of content.
func stringLen(n int) int { return uvarintLen(uint64(n)) + n }

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

// encodeGroup renders a mutation group into one WAL payload, stamped
// with the block height the group's memtable writes carried.
func encodeGroup(height int64, muts []mutation) []byte {
	// Sized from what is about to be appended, so a block's payload is
	// one exact allocation, not a doubling series.
	size := 1 + uvarintLen(uint64(height)) + uvarintLen(uint64(len(muts)))
	for _, m := range muts {
		size += 1 + stringLen(len(m.coll)) + stringLen(len(m.key))
		if m.op == opPut || m.op == opPrepare || m.op == opDecide {
			size += stringLen(len(m.doc))
		}
	}
	b := make([]byte, 0, size)
	b = append(b, walPayloadVersion)
	b = appendUvarint(b, uint64(height))
	b = appendUvarint(b, uint64(len(muts)))
	for _, m := range muts {
		b = append(b, m.op)
		b = appendString(b, m.coll)
		b = appendString(b, m.key)
		if m.op == opPut || m.op == opPrepare || m.op == opDecide {
			b = appendBytes(b, m.doc)
		}
	}
	return b
}

// decodeGroup parses one WAL payload, calling fn per mutation with
// the group's block height (0 for v1 payloads). The doc slice aliases
// the payload; fn must not retain it.
func decodeGroup(payload []byte, fn func(height int64, m mutation) error) error {
	r := &byteReader{b: payload}
	ver, err := r.readByte()
	if err != nil {
		return err
	}
	if ver != walPayloadV1 && ver != walPayloadVersion {
		return fmt.Errorf("storage: unknown wal payload version %d", ver)
	}
	var height int64
	if ver >= walPayloadVersion {
		h, err := r.uvarint()
		if err != nil {
			return err
		}
		height = int64(h)
	}
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
		case opDelete, opDrop:
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

// marshalDoc renders a document into canonical JSON (object keys are
// sorted by encoding/json, so identical documents encode identically).
func marshalDoc(doc map[string]any) ([]byte, error) {
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("storage: document not JSON-representable: %w", err)
	}
	return data, nil
}

func unmarshalDoc(data []byte) (map[string]any, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("storage: corrupt document: %w", err)
	}
	return doc, nil
}
