package txn

import (
	"crypto/sha3"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MarshalCanonical renders the transaction as canonical JSON: keys
// sorted lexicographically at every level, no insignificant whitespace.
// Two transactions with equal content always produce identical bytes,
// which is what makes SHA3-256 identifiers and signatures stable across
// nodes and languages. The result is memoized (see cache.go) — callers
// must treat it as read-only.
func (t *Transaction) MarshalCanonical() []byte { return t.marshalCanonical(nil) }

// marshalCanonical is MarshalCanonical under an explicit cache scope
// (nil = the package default, caching on).
func (t *Transaction) marshalCanonical(sc *CacheScope) []byte {
	if b := t.cachedCanonical(sc); b != nil {
		return b
	}
	b := encodeTx(t, false)
	t.storeCanonical(sc, b)
	return b
}

// SigningPayload returns the canonical bytes that identify and are
// signed for this transaction: the canonical JSON with the ID zeroed
// and every input fulfillment removed (a signature cannot cover
// itself). Children are also excluded because a nested parent's child
// IDs are assigned by the server after signing. The result is memoized
// (see cache.go) — callers must treat it as read-only.
func (t *Transaction) SigningPayload() []byte { return t.signingPayload(nil) }

// signingPayload is SigningPayload under an explicit cache scope (nil
// = the package default, caching on).
func (t *Transaction) signingPayload(sc *CacheScope) []byte {
	if b := t.cachedSigning(sc); b != nil {
		return b
	}
	b := encodeTx(t, true)
	t.storeSigning(sc, b)
	return b
}

// ComputeID returns the transaction identifier: lowercase hex SHA3-256
// of the signing payload.
func (t *Transaction) ComputeID() string { return t.computeID(nil) }

func (t *Transaction) computeID(sc *CacheScope) string {
	sum := sha3.Sum256(t.signingPayload(sc))
	return hex.EncodeToString(sum[:])
}

// SetID stamps the computed identifier onto the transaction. The
// memoized canonical encoding (which covers the ID) is dropped; the
// signing payload (which excludes it) survives.
func (t *Transaction) SetID() {
	t.ID = t.ComputeID()
	t.dropDerivedMemo()
}

// VerifyID reports whether the stored ID matches the recomputed one.
func (t *Transaction) VerifyID() bool { return t.verifyID(nil) }

func (t *Transaction) verifyID(sc *CacheScope) bool {
	return t.ID != "" && t.ID == t.computeID(sc)
}

// CanonicalizeDoc renders any JSON-safe document in the same canonical
// form as MarshalCanonical — sorted keys, no whitespace — so byte-wise
// comparisons and fingerprints over stored documents are stable.
func CanonicalizeDoc(doc map[string]any) []byte { return canonicalize(doc) }

// AppendCanonicalDoc appends doc's canonical encoding to dst and
// returns the extended slice. With a dst of sufficient capacity the
// steady state allocates nothing (encoder scratch is pooled), which is
// what lets fingerprint loops hash thousands of documents through one
// reused buffer.
func AppendCanonicalDoc(dst []byte, doc map[string]any) []byte {
	e := encPool.Get().(*canonEncoder)
	dst = e.append(dst, doc, 0)
	encPool.Put(e)
	return dst
}

// canonicalize writes any JSON-safe value with sorted keys and no
// whitespace. encoding/json already sorts map keys, but we write our
// own encoder so the canonical form is explicit, stable, and immune to
// struct-field ordering. The output is byte-identical to json.Marshal
// of the same document (pinned by a differential test), including HTML
// escaping and float formatting.
func canonicalize(v any) []byte {
	e := encPool.Get().(*canonEncoder)
	buf := e.append(nil, v, 0)
	encPool.Put(e)
	return buf
}

// canonEncoder holds the per-depth key-sorting scratch so repeated
// encodes allocate nothing once warm, plus the buffer a transaction is
// encoded into before its exact-size copy is taken. Instances are
// pooled; the recursion carries an explicit depth so nested maps never
// share a scratch slice.
type canonEncoder struct {
	keys [][]string
	buf  []byte
}

var encPool = sync.Pool{New: func() any { return new(canonEncoder) }}

// sortedKeys returns m's keys in order, held in depth's scratch slot.
func (e *canonEncoder) sortedKeys(m map[string]any, depth int) []string {
	for depth >= len(e.keys) {
		e.keys = append(e.keys, nil)
	}
	ks := e.keys[depth][:0]
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	e.keys[depth] = ks
	return ks
}

func (e *canonEncoder) append(buf []byte, v any, depth int) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case map[string]any:
		buf = append(buf, '{')
		for i, k := range e.sortedKeys(x, depth) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			buf = append(buf, ':')
			buf = e.append(buf, x[k], depth+1)
		}
		return append(buf, '}')
	case []any:
		buf = append(buf, '[')
		for i, el := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = e.append(buf, el, depth)
		}
		return append(buf, ']')
	case string:
		return appendJSONString(buf, x)
	case bool:
		if x {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case float64:
		return appendJSONFloat(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	default:
		b, err := json.Marshal(x)
		if err != nil {
			panic(fmt.Sprintf("txn: canonicalize %T: %v", v, err))
		}
		return append(buf, b...)
	}
}

// encodeTx renders t's canonical JSON or, with signing set, its
// signing payload (ID zeroed, children and fulfillments left out),
// straight from the struct: the bytes canonicalize would produce for
// ToDoc's document, without building the document. The result is an
// exact-size copy out of the pooled buffer, so a cold encode costs one
// allocation.
func encodeTx(t *Transaction, signing bool) []byte {
	e := encPool.Get().(*canonEncoder)
	e.buf = e.appendTx(e.buf[:0], t, signing)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	encPool.Put(e)
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
			buf = appendJSONFloat(buf, float64(a.Shares))
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
				buf = appendJSONFloat(buf, float64(ref.Index))
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
			buf = appendJSONFloat(buf, float64(o.Amount))
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
	return appendJSONString(buf, validUTF8(s))
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
// canonicalize would write its normalizeValue copy, without making the
// copy when the value is already in document shape or off it only by
// integers. Anything else — a key or string that is not valid UTF-8, a
// Go type outside the shape — is normalised first.
func (e *canonEncoder) appendFree(buf []byte, v any, depth int) []byte {
	switch x := v.(type) {
	case nil, bool, float64:
		return e.append(buf, v, depth)
	case string:
		if utf8.ValidString(x) {
			return appendJSONString(buf, x)
		}
	case int:
		return appendJSONFloat(buf, float64(x))
	case int64:
		return appendJSONFloat(buf, float64(x))
	case uint64:
		return appendJSONFloat(buf, float64(x))
	case map[string]any:
		if x == nil {
			return append(buf, "null"...)
		}
		ks := e.sortedKeys(x, depth)
		if !slices.ContainsFunc(ks, func(k string) bool { return !utf8.ValidString(k) }) {
			buf = append(buf, '{')
			for i, k := range ks {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = appendJSONString(buf, k)
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
	return e.append(buf, mustNormalize(v), depth)
}

// appendJSONFloat renders f exactly as encoding/json does: shortest
// representation, 'f' form inside [1e-6, 1e21), 'e' form outside with
// the leading zero of a two-digit negative exponent trimmed
// ("2e-07" → "2e-7").
func appendJSONFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("txn: canonicalize float64: unsupported value: %v", f))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

const hexDigits = "0123456789abcdef"

// appendJSONString escapes s exactly as encoding/json with HTML
// escaping on: control characters, quotes, backslashes, <, >, &,
// U+2028/U+2029, and invalid UTF-8 replaced by the replacement rune.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '\\', '"':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
