package txn

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The transaction codec: struct ⇄ document, written out by hand.
//
// A document is what schema validation reads and what the docstore
// holds: map[string]any whose values are string, float64, bool, nil,
// []any or map[string]any — the shape encoding/json hands back. ToDoc
// and FromDoc used to get there by marshalling to JSON bytes and
// parsing them again; they now build one side from the other directly
// and are pinned to that round trip (kept in the tests as the
// reference) value for value: the same omit-empty rules, the two asset
// shapes, every number a float64, free-form Asset.Data and Metadata
// normalised the way the round trip normalises them.

// MaxAmount is the largest share count a transaction may carry in an
// output amount or an asset's shares: 2^53, the last point up to which
// every integer is a float64. Every document layer holds numbers as
// float64, so a larger count would be stored as a different number
// than the one that was signed.
const MaxAmount = 1 << 53

// ToDoc converts the transaction into a plain document
// (map[string]any) suitable for schema validation and storage. The
// document shares nothing mutable with the transaction. A transaction
// whose free-form Asset.Data or Metadata holds a value JSON cannot
// carry (NaN, ±Inf, a channel) is a programming error and panics.
func (t *Transaction) ToDoc() map[string]any {
	// Eight slots is one map group; only a transaction with children,
	// refs and metadata all set has a ninth key and grows it.
	doc := make(map[string]any, 8)
	doc["id"] = validUTF8(t.ID)
	doc["operation"] = validUTF8(t.Operation)
	doc["asset"] = assetDoc(t.Asset)
	doc["outputs"] = outputsDoc(t.Outputs)
	doc["inputs"] = inputsDoc(t.Inputs)
	if len(t.Children) > 0 {
		doc["children"] = stringsDoc(t.Children)
	}
	if len(t.Refs) > 0 {
		doc["refs"] = stringsDoc(t.Refs)
	}
	if len(t.Metadata) > 0 {
		doc["metadata"] = mustNormalize(t.Metadata)
	}
	doc["version"] = validUTF8(t.Version)
	return doc
}

// The helpers below return any, not a typed map or slice: a nil
// pointer or nil slice in the struct is JSON null, which a document
// holds as an untyped nil.

func assetDoc(a *Asset) any {
	if a == nil {
		return nil
	}
	if a.ID != "" {
		return map[string]any{"id": validUTF8(a.ID)}
	}
	m := map[string]any{"data": mustNormalize(a.Data)}
	if a.Shares != 0 {
		m["shares"] = float64(a.Shares)
	}
	return m
}

func outputsDoc(outs []*Output) any {
	if outs == nil {
		return nil
	}
	list := make([]any, len(outs))
	for i, o := range outs {
		if o == nil {
			continue
		}
		m := make(map[string]any, 3)
		m["public_keys"] = stringsDoc(o.PublicKeys)
		m["amount"] = float64(o.Amount)
		if len(o.PrevOwners) > 0 {
			m["prev_owners"] = stringsDoc(o.PrevOwners)
		}
		list[i] = m
	}
	return list
}

func inputsDoc(ins []*Input) any {
	if ins == nil {
		return nil
	}
	list := make([]any, len(ins))
	for i, in := range ins {
		if in == nil {
			continue
		}
		m := make(map[string]any, 3)
		if in.Fulfills != nil {
			m["fulfills"] = map[string]any{
				"transaction_id": validUTF8(in.Fulfills.TxID),
				"output_index":   float64(in.Fulfills.Index),
			}
		}
		m["owners_before"] = stringsDoc(in.OwnersBefore)
		if in.Fulfillment != "" {
			m["fulfillment"] = validUTF8(in.Fulfillment)
		}
		list[i] = m
	}
	return list
}

func stringsDoc(ss []string) any {
	if ss == nil {
		return nil
	}
	list := make([]any, len(ss))
	for i, s := range ss {
		list[i] = validUTF8(s)
	}
	return list
}

// validUTF8 returns s as a JSON round trip would: unchanged when it is
// valid UTF-8 (the only case that costs nothing), otherwise with each
// invalid byte replaced by U+FFFD.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			sb.WriteRune(utf8.RuneError)
		} else {
			sb.WriteString(s[i : i+size])
		}
		i += size
	}
	return sb.String()
}

func mustNormalize(v any) any {
	n, err := normalizeValue(v)
	if err != nil {
		// invariant: callers pass values of a Transaction's own fields, all of JSON-representable types.
		panic(fmt.Sprintf("txn: marshal: %v", err))
	}
	return n
}

// normalizeValue returns a copy of a free-form value in document
// shape, exactly as json.Marshal followed by json.Unmarshal would hand
// it back: integers become float64, a nil map or slice becomes nil,
// strings and keys pass through validUTF8, maps and slices are copied.
// Scalars already in shape are returned as they are, without a new
// interface box. A value of any other Go type ([]string, a struct, a
// json.Number) takes the real round trip; NaN, ±Inf and types JSON
// cannot carry are errors.
func normalizeValue(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool:
		return v, nil
	case string:
		if utf8.ValidString(x) {
			return v, nil
		}
		return validUTF8(x), nil
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("unsupported value: %v", x)
		}
		return v, nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	case map[string]any:
		if x == nil {
			return nil, nil
		}
		return normalizeMap(x)
	case []any:
		if x == nil {
			return nil, nil
		}
		out := make([]any, len(x))
		for i, e := range x {
			n, err := normalizeValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		var out any
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func normalizeMap(m map[string]any) (map[string]any, error) {
	out := make(map[string]any, len(m))
	clean := true
	for k, e := range m {
		if !utf8.ValidString(k) {
			clean = false
			break
		}
		n, err := normalizeValue(e)
		if err != nil {
			return nil, err
		}
		out[k] = n
	}
	if clean {
		return out, nil
	}
	// Some key is not valid UTF-8, so two keys may normalise to the
	// same string. The round trip writes keys in sorted order and the
	// parser lets the later one win; do the same.
	clear(out)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		n, err := normalizeValue(m[k])
		if err != nil {
			return nil, err
		}
		out[validUTF8(k)] = n
	}
	return out, nil
}

// FromDoc parses a document produced by ToDoc (or received as a JSON
// payload) back into a Transaction that shares nothing mutable with
// the document. It is a trust boundary — servers feed it network JSON —
// and rejects every document the JSON round trip it replaces rejected:
// a field of the wrong kind, a negative or fractional amount, a key
// list holding a non-string. Keys match exactly ("ID" does not fill
// id; encoding/json folded case), unknown keys are ignored, and null
// leaves a field at its zero value. Amounts and shares above MaxAmount
// are rejected.
func FromDoc(doc map[string]any) (*Transaction, error) { return fromDoc(doc, false) }

// FromStoredDoc is FromDoc for a document the store holds: read-only
// and immutable, and already in document shape, because ToDoc or the
// storage decoder built it. It runs the same decoder but borrows the
// free-form maps — the result's Asset.Data and Metadata are the stored
// ones (and everything under them), not copies — so the transaction
// is read-only in those fields, as the document is (docstore.Borrow).
// Every other field is the caller's own. A document from outside the
// process is not immutable: decode it with FromDoc.
func FromStoredDoc(doc map[string]any) (*Transaction, error) { return fromDoc(doc, true) }

// fromDoc is the one decoder body; borrow shares the free-form maps.
func fromDoc(doc map[string]any, borrow bool) (*Transaction, error) {
	t := &Transaction{}
	for k, v := range doc {
		var err error
		switch k {
		case "id":
			t.ID, err = docString(v)
		case "operation":
			t.Operation, err = docString(v)
		case "asset":
			t.Asset, err = assetFromDoc(v, borrow)
		case "outputs":
			t.Outputs, err = outputsFromDoc(v)
		case "inputs":
			t.Inputs, err = inputsFromDoc(v)
		case "children":
			t.Children, err = docStrings(v)
		case "refs":
			t.Refs, err = docStrings(v)
		case "metadata":
			t.Metadata, err = docMap(v, borrow)
		case "version":
			t.Version, err = docString(v)
		default:
			err = docIgnored(v)
		}
		if err != nil {
			return nil, fmt.Errorf("txn: decode doc: %s: %w", k, err)
		}
	}
	return t, nil
}

// generic returns v in document shape when its Go type is outside it
// (the slow path: a real JSON round trip), and turns a nil map or
// slice into the null it encodes as. Field decoders call it first, so
// each switches over document kinds only.
func generic(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, string, float64, int, int64, uint64:
		return v, nil
	case map[string]any:
		if x == nil {
			return nil, nil
		}
		return v, nil
	case []any:
		if x == nil {
			return nil, nil
		}
		return v, nil
	}
	return normalizeValue(v)
}

// docIgnored checks a value no field takes: it is dropped, but a
// document that could not have been encoded at all is still an error.
func docIgnored(v any) error {
	_, err := normalizeValue(v)
	return err
}

func kindError(v any, want string) error {
	return fmt.Errorf("cannot decode %T into %s", v, want)
}

func docString(v any) (string, error) {
	v, err := generic(v)
	if err != nil {
		return "", err
	}
	switch x := v.(type) {
	case nil:
		return "", nil
	case string:
		return validUTF8(x), nil
	}
	return "", kindError(v, "string")
}

func docStrings(v any) ([]string, error) {
	v, err := generic(v)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case nil:
		return nil, nil
	case []any:
		out := make([]string, len(x))
		for i, e := range x {
			if out[i], err = docString(e); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, kindError(v, "string list")
}

// docKeys checks a key list as docStrings decodes it and returns the
// list itself: reading it (Keys.At) costs no copy.
func docKeys(v any) (Keys, error) {
	v, err := generic(v)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case nil:
		return nil, nil
	case []any:
		for _, e := range x {
			if _, err := docString(e); err != nil {
				return nil, err
			}
		}
		return Keys(x), nil
	}
	return nil, kindError(v, "string list")
}

// FactFromDoc reads an output fact from the document values that state
// it, a stored UTXO record's or a transaction document's output: owners
// and amount decode as FromStoredDoc decodes an output's, so the fact
// and the decoded transaction agree on every stored value. An absent
// value (a spend marker has no owners or amount) reads as empty; ok is
// false when a value cannot be decoded.
func FactFromDoc(owners, amount, assetID, spentBy any) (f OutputFact, ok bool) {
	var errs [4]error
	f.Owners, errs[0] = docKeys(owners)
	f.Amount, errs[1] = docAmount(amount)
	f.AssetID, errs[2] = docString(assetID)
	f.SpentBy, errs[3] = docString(spentBy)
	return f, errs == [4]error{}
}

// docMap decodes a free-form object: a normalised copy, or with
// borrow the object itself.
func docMap(v any, borrow bool) (map[string]any, error) {
	v, err := generic(v)
	if err != nil {
		return nil, err
	}
	switch x := v.(type) {
	case nil:
		return nil, nil
	case map[string]any:
		if borrow {
			return x, nil
		}
		return normalizeMap(x)
	}
	return nil, kindError(v, "object")
}

// docNumber returns a JSON number as a float64 plus, for the Go
// integer types a hand-built document may hold, the exact integer.
func docNumber(v any) (f float64, i int64, exact bool, err error) {
	v, err = generic(v)
	if err != nil {
		return 0, 0, false, err
	}
	switch x := v.(type) {
	case nil:
		return 0, 0, true, nil
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, 0, false, fmt.Errorf("unsupported value: %v", x)
		}
		return x, 0, false, nil
	case int:
		return 0, int64(x), true, nil
	case int64:
		return 0, x, true, nil
	case uint64:
		if x > math.MaxInt64 {
			return float64(x), 0, false, nil
		}
		return 0, int64(x), true, nil
	}
	return 0, 0, false, kindError(v, "number")
}

// docAmount decodes a share count: a non-negative integer no larger
// than MaxAmount. Negative zero is refused as the round trip refused
// it ("-0" is not an unsigned literal).
func docAmount(v any) (uint64, error) {
	f, i, exact, err := docNumber(v)
	if err != nil {
		return 0, err
	}
	if !exact {
		if f != math.Trunc(f) || math.Signbit(f) || f > MaxAmount {
			return 0, fmt.Errorf("%v is not an integer in [0, 2^53]", f)
		}
		return uint64(f), nil
	}
	if i < 0 || i > MaxAmount {
		return 0, fmt.Errorf("%d is not an integer in [0, 2^53]", i)
	}
	return uint64(i), nil
}

// docIndex decodes an output index: any integer that fits an int64.
func docIndex(v any) (int, error) {
	f, i, exact, err := docNumber(v)
	if err != nil {
		return 0, err
	}
	if exact {
		return int(i), nil
	}
	if f != math.Trunc(f) {
		return 0, fmt.Errorf("%v is not an integer", f)
	}
	if math.Abs(f) <= MaxAmount {
		return int(f), nil
	}
	// Past 2^53 the round trip read back the float's shortest decimal
	// form, which is not its exact value; stay with it.
	n, err := strconv.ParseInt(strconv.FormatFloat(f, 'f', -1, 64), 10, 64)
	return int(n), err
}

func assetFromDoc(v any, borrow bool) (*Asset, error) {
	v, err := generic(v)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		if v == nil {
			return nil, nil
		}
		return nil, kindError(v, "asset")
	}
	a := &Asset{}
	for k, e := range m {
		switch k {
		case "id":
			a.ID, err = docString(e)
		case "data":
			a.Data, err = docMap(e, borrow)
		case "shares":
			a.Shares, err = docAmount(e)
		default:
			err = docIgnored(e)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
	}
	return a, nil
}

// docList decodes a JSON array of objects; null elements stay nil
// pointers and an empty array is an empty, non-nil slice, as
// encoding/json leaves them.
func docList[T any](v any, what string, elem func(map[string]any) (*T, error)) ([]*T, error) {
	v, err := generic(v)
	if err != nil {
		return nil, err
	}
	list, ok := v.([]any)
	if !ok {
		if v == nil {
			return nil, nil
		}
		return nil, kindError(v, what+" list")
	}
	out := make([]*T, len(list))
	for i, e := range list {
		if e, err = generic(e); err != nil {
			return nil, err
		}
		m, ok := e.(map[string]any)
		if !ok {
			if e == nil {
				continue
			}
			return nil, kindError(e, what)
		}
		if out[i], err = elem(m); err != nil {
			return nil, fmt.Errorf("%d: %w", i, err)
		}
	}
	return out, nil
}

func outputsFromDoc(v any) ([]*Output, error) {
	return docList(v, "output", func(m map[string]any) (*Output, error) {
		o := &Output{}
		for k, e := range m {
			var err error
			switch k {
			case "public_keys":
				o.PublicKeys, err = docStrings(e)
			case "amount":
				o.Amount, err = docAmount(e)
			case "prev_owners":
				o.PrevOwners, err = docStrings(e)
			default:
				err = docIgnored(e)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
		}
		return o, nil
	})
}

func inputsFromDoc(v any) ([]*Input, error) {
	return docList(v, "input", func(m map[string]any) (*Input, error) {
		in := &Input{}
		for k, e := range m {
			var err error
			switch k {
			case "fulfills":
				in.Fulfills, err = refFromDoc(e)
			case "owners_before":
				in.OwnersBefore, err = docStrings(e)
			case "fulfillment":
				in.Fulfillment, err = docString(e)
			default:
				err = docIgnored(e)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
		}
		return in, nil
	})
}

func refFromDoc(v any) (*OutputRef, error) {
	v, err := generic(v)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		if v == nil {
			return nil, nil
		}
		return nil, kindError(v, "output reference")
	}
	ref := &OutputRef{}
	for k, e := range m {
		switch k {
		case "transaction_id":
			ref.TxID, err = docString(e)
		case "output_index":
			ref.Index, err = docIndex(e)
		default:
			err = docIgnored(e)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
	}
	return ref, nil
}
