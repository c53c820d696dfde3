package txn

import (
	"crypto/sha3"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"unicode/utf8"

	"smartchaindb/internal/canon"
)

// MarshalCanonical renders the transaction as canonical JSON: keys
// sorted lexicographically at every level, no insignificant whitespace.
// Two transactions with equal content always produce identical bytes,
// which is what makes SHA3-256 identifiers and signatures stable across
// nodes and languages. The result is memoized (see cache.go) — callers
// must treat it as read-only.
func (t *Transaction) MarshalCanonical() []byte {
	m := t.cell()
	if b, ok := m.canonical.load(); ok {
		tripServed(t, b, false)
		return b
	}
	return m.canonical.publish(encodeTx(t, false))
}

// SigningPayload returns the canonical bytes that identify and are
// signed for this transaction: the canonical JSON with the ID zeroed
// and every input fulfillment removed (a signature cannot cover
// itself). Children are also excluded because a nested parent's child
// IDs are assigned by the server after signing. The result is memoized
// (see cache.go) — callers must treat it as read-only.
func (t *Transaction) SigningPayload() []byte {
	m := t.cell()
	if b, ok := m.signing.load(); ok {
		tripServed(t, b, true)
		return b
	}
	return m.signing.publish(encodeTx(t, true))
}

// ComputeID returns the transaction identifier: lowercase hex SHA3-256
// of the signing payload.
func (t *Transaction) ComputeID() string {
	sum := sha3.Sum256(t.SigningPayload())
	return hex.EncodeToString(sum[:])
}

// SetID stamps the computed identifier onto the transaction and drops
// the derived values that cover the ID — the canonical encoding, the
// document, the footprint and the signature verdict; the signing
// payload, which leaves it out, stays. Like Sign, it
// runs before the transaction is shared.
func (t *Transaction) SetID() {
	t.ID = t.ComputeID()
	if m := t.memo.Load(); m != nil {
		m.canonical.reset()
		m.doc.reset()
		m.footprint.reset()
		m.verified.Store(false)
		m.early.Store(nil)
	}
}

// VerifyID reports whether the stored ID matches the recomputed one.
func (t *Transaction) VerifyID() bool {
	return t.ID != "" && t.ID == t.ComputeID()
}

// AppendCanonicalDoc appends doc's canonical encoding to dst and
// returns the extended slice. With a dst of sufficient capacity the
// steady state allocates nothing (encoder scratch is pooled), which is
// what lets fingerprint loops hash thousands of documents through one
// reused buffer. The encoder is internal/canon's, the one storage
// writes documents to disk with; a value JSON cannot represent panics
// here, where canon returns an error, because every document this
// package is handed was decoded from JSON or built from a Transaction.
func AppendCanonicalDoc(dst []byte, doc map[string]any) []byte {
	out, err := canon.AppendDoc(dst, doc)
	mustEncode(err)
	return out
}

func mustEncode(err error) {
	if err != nil {
		// invariant: every document reaching here was decoded from JSON or built from a Transaction, so it encodes.
		panic(fmt.Sprintf("txn: canonicalize: %v", err))
	}
}

// canonEncoder is canon's document encoder plus the buffer a
// transaction is encoded into before its exact-size copy is taken.
// Instances are pooled.
type canonEncoder struct {
	canon.Encoder
	buf []byte
}

var encPool = sync.Pool{New: func() any { return new(canonEncoder) }}

// encodeTx renders t's canonical JSON or, with signing set, its
// signing payload (ID zeroed, children and fulfillments left out),
// straight from the struct: the bytes AppendCanonicalDoc would produce
// for ToDoc's document, without building the document. The result is an
// exact-size copy out of the pooled buffer, so a cold encode costs one
// allocation.
func encodeTx(t *Transaction, signing bool) []byte {
	e := encPool.Get().(*canonEncoder)
	e.buf = e.appendTx(e.buf[:0], t, signing)
	err := e.Err()
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	encPool.Put(e)
	mustEncode(err)
	return out
}

// appendTx writes the transaction's fields in sorted key order — the
// order is static, which is what lets it skip the document. The
// omit-empty rules are ToDoc's.
func (e *canonEncoder) appendTx(buf []byte, t *Transaction, signing bool) []byte {
	buf = append(buf, `{"asset":`...)
	switch a := t.Asset; {
	case a == nil:
		buf = append(buf, "null"...)
	case a.ID != "":
		buf = append(buf, `{"id":`...)
		buf = appendTxString(buf, a.ID)
		buf = append(buf, '}')
	default:
		buf = append(buf, `{"data":`...)
		buf = e.appendFree(buf, a.Data, 0)
		if a.Shares != 0 {
			buf = append(buf, `,"shares":`...)
			buf = canon.AppendFloat(buf, float64(a.Shares))
		}
		buf = append(buf, '}')
	}
	if len(t.Children) > 0 && !signing {
		buf = append(buf, `,"children":`...)
		buf = appendTxStrings(buf, t.Children)
	}
	buf = append(buf, `,"id":`...)
	if signing {
		buf = append(buf, `""`...)
	} else {
		buf = appendTxString(buf, t.ID)
	}
	buf = append(buf, `,"inputs":`...)
	if t.Inputs == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, in := range t.Inputs {
			if i > 0 {
				buf = append(buf, ',')
			}
			if in == nil {
				buf = append(buf, "null"...)
				continue
			}
			buf = append(buf, '{')
			if in.Fulfillment != "" && !signing {
				buf = append(buf, `"fulfillment":`...)
				buf = appendTxString(buf, in.Fulfillment)
				buf = append(buf, ',')
			}
			if ref := in.Fulfills; ref != nil {
				buf = append(buf, `"fulfills":{"output_index":`...)
				buf = canon.AppendFloat(buf, float64(ref.Index))
				buf = append(buf, `,"transaction_id":`...)
				buf = appendTxString(buf, ref.TxID)
				buf = append(buf, "},"...)
			}
			buf = append(buf, `"owners_before":`...)
			buf = appendTxStrings(buf, in.OwnersBefore)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if len(t.Metadata) > 0 {
		buf = append(buf, `,"metadata":`...)
		buf = e.appendFree(buf, t.Metadata, 0)
	}
	buf = append(buf, `,"operation":`...)
	buf = appendTxString(buf, t.Operation)
	buf = append(buf, `,"outputs":`...)
	if t.Outputs == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, o := range t.Outputs {
			if i > 0 {
				buf = append(buf, ',')
			}
			if o == nil {
				buf = append(buf, "null"...)
				continue
			}
			buf = append(buf, `{"amount":`...)
			buf = canon.AppendFloat(buf, float64(o.Amount))
			if len(o.PrevOwners) > 0 {
				buf = append(buf, `,"prev_owners":`...)
				buf = appendTxStrings(buf, o.PrevOwners)
			}
			buf = append(buf, `,"public_keys":`...)
			buf = appendTxStrings(buf, o.PublicKeys)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if len(t.Refs) > 0 {
		buf = append(buf, `,"refs":`...)
		buf = appendTxStrings(buf, t.Refs)
	}
	buf = append(buf, `,"version":`...)
	buf = appendTxString(buf, t.Version)
	return append(buf, '}')
}

// appendTxString writes a struct string as its document form would be
// written: invalid UTF-8 is already U+FFFD there, not an escape.
func appendTxString(buf []byte, s string) []byte {
	return canon.AppendString(buf, validUTF8(s))
}

func appendTxStrings(buf []byte, ss []string) []byte {
	if ss == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendTxString(buf, s)
	}
	return append(buf, ']')
}

// appendFree writes a free-form value (Asset.Data, Metadata) as
// canon would write its normalizeValue copy, without making the
// copy when the value is already in document shape or off it only by
// integers. Anything else — a key or string that is not valid UTF-8, a
// Go type outside the shape — is normalised first.
func (e *canonEncoder) appendFree(buf []byte, v any, depth int) []byte {
	switch x := v.(type) {
	case nil, bool, float64:
		return e.Append(buf, v, depth)
	case string:
		if utf8.ValidString(x) {
			return canon.AppendString(buf, x)
		}
	case int:
		return canon.AppendFloat(buf, float64(x))
	case int64:
		return canon.AppendFloat(buf, float64(x))
	case uint64:
		return canon.AppendFloat(buf, float64(x))
	case map[string]any:
		if x == nil {
			return append(buf, "null"...)
		}
		ks := e.SortedKeys(x, depth)
		if !slices.ContainsFunc(ks, func(k string) bool { return !utf8.ValidString(k) }) {
			buf = append(buf, '{')
			for i, k := range ks {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = canon.AppendString(buf, k)
				buf = append(buf, ':')
				buf = e.appendFree(buf, x[k], depth+1)
			}
			return append(buf, '}')
		}
	case []any:
		if x == nil {
			return append(buf, "null"...)
		}
		buf = append(buf, '[')
		for i, el := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = e.appendFree(buf, el, depth)
		}
		return append(buf, ']')
	}
	return e.Append(buf, mustNormalize(v), depth)
}
