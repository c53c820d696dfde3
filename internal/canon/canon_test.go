package canon_test

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"smartchaindb/internal/canon"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/workload"
)

// check holds the append-encoder to encoding/json on one document: the
// same verdict, the same bytes after an untouched prefix on accept, the
// prefix alone on refusal — and, by returning at all, no panic.
func check(t *testing.T, doc map[string]any) {
	t.Helper()
	want, werr := json.Marshal(doc)
	prefix := []byte("prefix:")
	got, gerr := canon.AppendDoc(prefix, doc)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("json.Marshal: %v, AppendDoc: %v on %#v", werr, gerr, doc)
	case werr != nil:
		if string(got) != "prefix:" {
			t.Fatalf("a refused document left %q in the buffer", got)
		}
	case !bytes.Equal(got, append(prefix, want...)):
		t.Fatalf("AppendDoc:    %s\njson.Marshal: %s", got[len(prefix):], want)
	}
}

// numberTypes is every Go number type storage.EncodableDoc admits, as
// converters from the float64 a JSON decode produces.
var numberTypes = []func(float64) any{
	func(f float64) any { return f },
	func(f float64) any { return int(f) },
	func(f float64) any { return int8(f) },
	func(f float64) any { return int16(f) },
	func(f float64) any { return int32(f) },
	func(f float64) any { return int64(f) },
	func(f float64) any { return uint(f) },
	func(f float64) any { return uint8(f) },
	func(f float64) any { return uint16(f) },
	func(f float64) any { return uint32(f) },
	func(f float64) any { return uint64(f) },
	func(f float64) any { return float32(f) },
	func(f float64) any { return -f },
	func(f float64) any { return f * 1e-9 },
	func(f float64) any { return f * 1e22 },
	func(float64) any { return math.NaN() },
	func(float64) any { return math.Inf(-1) },
	func(float64) any { return float32(math.Inf(1)) },
}

// twister rewrites a decoded JSON document into the other Go shapes a
// caller can hand the encoder, steered by a byte string: numbers into
// every admitted number type and the values JSON refuses, strings into
// invalid UTF-8 and the characters encoding/json escapes, empty
// containers into nil ones, and the odd value into a type off the
// document shape altogether.
type twister struct{ steer []byte }

func (tw *twister) next() byte {
	if len(tw.steer) == 0 {
		return 0
	}
	b := tw.steer[0]
	tw.steer = tw.steer[1:]
	return b
}

func (tw *twister) twist(v any) any {
	switch x := v.(type) {
	case float64:
		return numberTypes[int(tw.next())%len(numberTypes)](x)
	case string:
		switch tw.next() % 8 {
		case 1:
			return x + "\xff\xfe"
		case 2:
			return "<" + x + ">&\u2028\u2029"
		case 3:
			return x + "\x00\x1f\"\\\b\f\n\r\t"
		case 4:
			return []string{x, x} // off the shape; encoding/json's call
		case 5:
			return json.Number(x) // refused unless x is a number
		}
		return x
	case []any:
		if len(x) == 0 && tw.next()%2 == 1 {
			return []any(nil)
		}
		for i := range x {
			x[i] = tw.twist(x[i])
		}
		return x
	case map[string]any:
		if len(x) == 0 && tw.next()%2 == 1 {
			return map[string]any(nil)
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys) // the steering must not depend on map order
		for _, k := range keys {
			val := tw.twist(x[k])
			if tw.next()%16 == 1 {
				delete(x, k)
				k += "\xc3\x28<" // an invalid, escaped key: sorted raw, written replaced
			}
			x[k] = val
		}
		return x
	}
	return v
}

func seedDocs() [][]byte {
	funding, transfer4, create1k := workload.BenchmarkShapes()
	seeds := [][]byte{
		funding.MarshalCanonical(), transfer4.MarshalCanonical(), create1k.MarshalCanonical(),
		[]byte(`{}`),
		[]byte(`{"a":[],"b":{},"c":[{}],"n":[0,1,-1,127,128,255,256,65535,4294967296,1e-7,2.5e-7,1e21,123456789.125,9007199254740993]}`),
		[]byte(`{"s":["","plain","ünïcødé","🙂","\u2028","<script>&amp;"],"t":true,"f":false,"z":null}`),
		[]byte(`{"b":{"b":{"b":{"b":{"a":1,"b":2}}}},"a":{"b":1,"a":2}}`),
	}
	// One marketplace auction: REQUEST, CREATEs, BIDs, ACCEPT_BID.
	grp := workload.NewGenerator(7, keys.DeterministicKeyPair(7)).NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 2})
	seeds = append(seeds, grp.Request.MarshalCanonical(), grp.Accept.MarshalCanonical())
	for _, tx := range append(grp.Creates, grp.Bids...) {
		seeds = append(seeds, tx.MarshalCanonical())
	}
	return seeds
}

// TestAppendDocMatchesEncodingJSON runs the fuzz property over the seed
// documents under a few fixed steerings: plain, each number type in
// turn, and a mix.
func TestAppendDocMatchesEncodingJSON(t *testing.T) {
	steerings := [][]byte{nil, []byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11")}
	for i := range numberTypes {
		steerings = append(steerings, bytes.Repeat([]byte{byte(i)}, 64))
	}
	for _, raw := range seedDocs() {
		for _, steer := range steerings {
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			tw := twister{steer: steer}
			check(t, tw.twist(doc).(map[string]any))
		}
	}
	check(t, nil)
	check(t, map[string]any{"ch": make(chan int)})
	check(t, map[string]any{"deep": []any{map[string]any{"fn": func() {}}}})
}

// TestAppendDocRefusesWithoutPanicking: what JSON cannot represent is
// an error naming the value, the buffer is the caller's untouched, and
// the pooled encoder that refused it encodes the next document cleanly.
func TestAppendDocRefusesWithoutPanicking(t *testing.T) {
	for _, v := range []any{math.NaN(), math.Inf(1), float32(math.Inf(-1)), make(chan int), json.Number("1e")} {
		buf, err := canon.AppendDoc([]byte("keep"), map[string]any{"a": 1.0, "b": []any{map[string]any{"v": v}}})
		if err == nil || string(buf) != "keep" || !strings.HasPrefix(err.Error(), "canon: ") {
			t.Errorf("%T %v: buffer %q, error %v", v, v, buf, err)
		}
		if buf, err := canon.AppendDoc(nil, map[string]any{"ok": true}); err != nil || string(buf) != `{"ok":true}` {
			t.Errorf("after refusing a %T: %q, %v", v, buf, err)
		}
	}
}

func TestAppendDocAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, transfer4, create1k := workload.BenchmarkShapes()
	buf := make([]byte, 0, 1<<14)
	for name, doc := range map[string]map[string]any{"transfer4": transfer4.ToDoc(), "create1k": create1k.ToDoc()} {
		run := func() {
			if _, err := canon.AppendDoc(buf, doc); err != nil {
				t.Fatal(err)
			}
		}
		run()
		// The pool may be emptied by a collection mid-run; the average
		// over many runs still rounds to zero.
		if got := testing.AllocsPerRun(200, run); got != 0 {
			t.Errorf("AppendDoc(%s): %v allocations warm, want 0", name, got)
		}
	}
}

// FuzzDocEncoder: on any JSON object, retyped by the steering bytes
// into every Go shape a caller can store, the append-encoder and
// encoding/json.Marshal agree on accept or reject and on every byte.
func FuzzDocEncoder(f *testing.F) {
	for i, raw := range seedDocs() {
		f.Add(raw, []byte(nil))
		f.Add(raw, bytes.Repeat([]byte{byte(i), byte(3 * i), 1}, 40))
	}
	f.Fuzz(func(t *testing.T, raw, steer []byte) {
		var doc map[string]any
		if json.Unmarshal(raw, &doc) != nil {
			return
		}
		tw := twister{steer: steer}
		check(t, tw.twist(doc).(map[string]any))
	})
}
