// Package canon is the repo's one JSON document encoder: it appends a
// document's canonical form — object keys sorted, no insignificant
// whitespace — into a caller's buffer. The output is byte-identical to
// encoding/json.Marshal of the same document (HTML escaping, invalid
// UTF-8 replacement, float forms, null for nil maps and slices), which
// is what lets transaction identifiers, state fingerprints, WAL records
// and segment files all come from this encoder without any of their
// bytes depending on which one wrote them. A differential test and
// FuzzDocEncoder hold it to json.Marshal.
//
// encoding/json sorts map keys too; the point of a hand-written encoder
// is that it appends in place and, once its key-sorting scratch is warm,
// allocates nothing.
package canon

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Encoder holds the per-depth key-sorting scratch, so repeated encodes
// allocate nothing once warm, and the first value it could not encode.
// The recursion carries an explicit depth so nested maps never share a
// scratch slice. The zero value is ready to use; an Encoder is not safe
// for concurrent use.
type Encoder struct {
	keys [][]string
	err  error
}

var pool = sync.Pool{New: func() any { return new(Encoder) }}

// AppendDoc appends doc's canonical encoding to dst and returns the
// extended slice. With a dst of sufficient capacity the steady state
// allocates nothing (encoders are pooled). A document holding a value
// JSON cannot represent — NaN, ±Inf, a channel — is an error, and dst
// comes back at its original length.
func AppendDoc(dst []byte, doc map[string]any) ([]byte, error) {
	e := pool.Get().(*Encoder)
	out := e.Append(dst, doc, 0)
	err := e.Err()
	pool.Put(e)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Err returns the first value Append refused since the last call, and
// clears it. What Append wrote for an encode that refused a value is
// not valid JSON; the caller discards it.
func (e *Encoder) Err() error {
	err := e.err
	e.err = nil
	return err
}

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// SortedKeys returns m's keys in order, held in depth's scratch slot
// until the next call at the same depth.
func (e *Encoder) SortedKeys(m map[string]any, depth int) []string {
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

// Append appends v's canonical encoding to buf. depth is the nesting
// depth of the map scratch to use: 0 at the top, and above whatever
// depth the caller's own SortedKeys result is still live at.
func (e *Encoder) Append(buf []byte, v any, depth int) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case map[string]any:
		if x == nil {
			return append(buf, "null"...)
		}
		buf = append(buf, '{')
		for i, k := range e.SortedKeys(x, depth) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = AppendString(buf, k)
			buf = append(buf, ':')
			buf = e.Append(buf, x[k], depth+1)
		}
		return append(buf, '}')
	case []any:
		if x == nil {
			return append(buf, "null"...)
		}
		buf = append(buf, '[')
		for i, el := range x {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = e.Append(buf, el, depth)
		}
		return append(buf, ']')
	case string:
		return AppendString(buf, x)
	case bool:
		if x {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			e.fail(fmt.Errorf("canon: unsupported value: %v", x))
			return buf
		}
		return AppendFloat(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	default:
		// Off the document shape (the narrow number types, typed
		// slices, structs): rare enough to take the reflective encoder,
		// whose bytes are the definition of correct here.
		b, err := json.Marshal(x)
		if err != nil {
			e.fail(fmt.Errorf("canon: %T: %w", v, err))
			return buf
		}
		return append(buf, b...)
	}
}

// AppendFloat renders a finite f exactly as encoding/json does:
// shortest representation, 'f' form inside [1e-6, 1e21), 'e' form
// outside with the leading zero of a two-digit negative exponent
// trimmed ("2e-07" → "2e-7").
func AppendFloat(buf []byte, f float64) []byte {
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

// AppendString escapes s exactly as encoding/json with HTML escaping
// on: control characters, quotes, backslashes, <, >, &, U+2028/U+2029,
// and invalid UTF-8 replaced by the replacement rune.
func AppendString(buf []byte, s string) []byte {
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
