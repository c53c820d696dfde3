package schema

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// compileJSON decodes a JSON schema and compiles it.
func compileJSON(src string) (*Schema, error) {
	var doc map[string]any
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		return nil, err
	}
	return Compile(doc)
}

func TestCompileAndValidateBasics(t *testing.T) {
	s, err := compileJSON(`{
  "type": "object",
  "required": ["name", "age"],
  "additionalProperties": false,
  "properties": {
    "name": {"type": "string", "minLength": 1, "maxLength": 10},
    "age": {"type": "integer", "minimum": 0, "maximum": 150},
    "tags": {"type": "array", "minItems": 1, "items": {"type": "string"}}
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	ok := map[string]any{"name": "ada", "age": 36.0, "tags": []any{"x"}}
	if err := s.Validate(ok); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
	cases := []map[string]any{
		{"name": "ada"},                                 // missing age
		{"name": "", "age": 1.0},                        // minLength
		{"name": "ada", "age": -1.0},                    // minimum
		{"name": "ada", "age": 200.0},                   // maximum
		{"name": "ada", "age": "old"},                   // type
		{"name": "ada", "age": 1.0, "extra": true},      // additionalProperties
		{"name": "ada", "age": 1.0, "tags": []any{}},    // minItems
		{"name": "ada", "age": 1.0, "tags": []any{1.0}}, // items type
		{"name": strings.Repeat("x", 11), "age": 1.0},   // maxLength
	}
	for i, c := range cases {
		if err := s.Validate(c); err == nil {
			t.Errorf("case %d should be rejected: %v", i, c)
		}
	}
}

func TestValidatePatternEnumAnyOf(t *testing.T) {
	s, err := compileJSON(`{
  "type": "object",
  "properties": {
    "id": {"type": "string", "pattern": "^[0-9a-f]{4}$"},
    "op": {"enum": ["CREATE", "TRANSFER", 3]},
    "val": {"anyOf": [{"type": "string"}, {"type": "integer", "minimum": 10}]}
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	good := []map[string]any{
		{"id": "ab12"},
		{"op": "CREATE"},
		{"op": 3.0},
		{"val": "str"},
		{"val": 11.0},
	}
	for _, g := range good {
		if err := s.Validate(g); err != nil {
			t.Errorf("%v rejected: %v", g, err)
		}
	}
	bad := []map[string]any{
		{"id": "zzzz"},
		{"id": "ab123"},
		{"op": "DELETE"},
		{"val": 5.0},
		{"val": true},
	}
	for _, b := range bad {
		if err := s.Validate(b); err == nil {
			t.Errorf("%v should be rejected", b)
		}
	}
}

func TestValidateTypeList(t *testing.T) {
	s, err := compileJSON(`{"type": "object", "properties": {"meta": {"type": ["object", "null"]}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(map[string]any{"meta": nil}); err != nil {
		t.Errorf("null should pass: %v", err)
	}
	if err := s.Validate(map[string]any{"meta": map[string]any{}}); err != nil {
		t.Errorf("object should pass: %v", err)
	}
	if err := s.Validate(map[string]any{"meta": "s"}); err == nil {
		t.Error("string should fail")
	}
}

// TestIntegerAcceptsWholeFloat: "integer" is any finite number with no
// fraction, at every magnitude — past 2^53, where float64 holds only
// whole numbers, and past int64's range, where converting to int64
// would be implementation-defined — in the compiled walker and in the
// reference interpreter alike.
func TestIntegerAcceptsWholeFloat(t *testing.T) {
	const src = `{"type": "integer"}`
	s, err := compileJSON(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refCompileJSON(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		v       float64
		integer bool
	}{
		{"5", 5, true},
		{"-5", -5, true},
		{"2^53", 1 << 53, true},
		{"2^63", 1 << 63, true},
		{"-2^63", -(1 << 63), true},
		{"1e19", 1e19, true},
		{"1e300", 1e300, true},
		{"1.5", 1.5, false},
		{"5.5", 5.5, false},
		{"+Inf", math.Inf(1), false},
		{"NaN", math.NaN(), false},
	} {
		for _, w := range []struct {
			name string
			err  error
		}{{"compiled", s.Validate(c.v)}, {"reference", ref.Validate(c.v)}} {
			if (w.err == nil) != c.integer {
				t.Errorf("%s: %s: integer = %v (%v), want %v", w.name, c.name, w.err == nil, w.err, c.integer)
			}
		}
	}
}

func TestRefResolution(t *testing.T) {
	s, err := compileJSON(`{
  "definitions": {
    "hexid": {"type": "string", "pattern": "^[0-9a-f]+$"}
  },
  "type": "object",
  "properties": {
    "a": {"$ref": "#/definitions/hexid"},
    "list": {"type": "array", "items": {"$ref": "#/definitions/hexid"}}
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(map[string]any{"a": "ff", "list": []any{"aa", "bb"}}); err != nil {
		t.Errorf("valid refs rejected: %v", err)
	}
	if err := s.Validate(map[string]any{"a": "XYZ"}); err == nil {
		t.Error("bad ref value should fail")
	}
	if err := s.Validate(map[string]any{"list": []any{"GG"}}); err == nil {
		t.Error("bad ref item should fail")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`{"type": "zebra"}`,
		`{"type": 3}`,
		`{"pattern": "[", "type": "string"}`,
		`{"properties": {"a": 3}}`,
		`{"$ref": "http://remote"}`,
		`{"required": [1]}`,
		`{"anyOf": [3]}`,
		`{"minLength": "x"}`,
	}
	for _, src := range bad {
		if _, err := compileJSON(src); err == nil {
			t.Errorf("compileJSON(%q) should fail", src)
		}
	}
	// A count keyword takes a whole number an int holds: a fraction, or
	// a number whose conversion to int Go leaves undefined, is refused
	// by name.
	for _, key := range []string{"minLength", "maxLength", "minItems", "maxItems"} {
		for _, n := range []string{"1.5", "-0.5", "1e300", "-1e300", "9223372036854775808"} {
			src := `{"` + key + `": ` + n + `}`
			if _, err := compileJSON(src); err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("compileJSON(%s): %v, want an error naming %s", src, err, key)
			}
		}
		if _, err := compileJSON(`{"` + key + `": 2.0}`); err != nil {
			t.Errorf("%s 2.0 refused: %v", key, err)
		}
	}
}

func TestUnresolvedRefIsACompileError(t *testing.T) {
	_, err := compileJSON(`{"type": "object", "properties": {"a": {"$ref": "#/definitions/missing"}}}`)
	if err == nil || err.Error() != `schema: $ref "missing" names no definition` {
		t.Errorf("compile error %v, want one naming the missing definition", err)
	}
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func signedCreate(t *testing.T, kp *keys.KeyPair) *txn.Transaction {
	t.Helper()
	tx := txn.NewCreate(kp.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}}, 3, map[string]any{"k": "v"})
	if err := txn.Sign(tx, kp); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestRegistryValidatesAllNativeTypes(t *testing.T) {
	r := newTestRegistry(t)
	for _, op := range append(txn.Operations(), "WITHDRAW_BID") {
		if _, ok := r.ForOperation(op); !ok {
			t.Fatalf("registry has no schema for %s (6 paper types + WITHDRAW_BID)", op)
		}
	}
	issuer := keys.MustGenerate()
	escrow := keys.MustGenerate()
	requester := keys.MustGenerate()

	create := signedCreate(t, issuer)
	if err := r.ValidateTx(create); err != nil {
		t.Errorf("CREATE: %v", err)
	}

	request := txn.NewRequest(requester.PublicBase58(),
		map[string]any{"capabilities": []any{"cnc", "3d-printing"}}, nil)
	if err := txn.Sign(request, requester); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(request); err != nil {
		t.Errorf("REQUEST: %v", err)
	}

	transfer := txn.NewTransfer(create.ID,
		[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{issuer.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{requester.PublicBase58()}, Amount: 3}}, nil)
	if err := txn.Sign(transfer, issuer); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(transfer); err != nil {
		t.Errorf("TRANSFER: %v", err)
	}

	bid := txn.NewBid(issuer.PublicBase58(), create.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{issuer.PublicBase58()}},
		3, escrow.PublicBase58(), request.ID, nil)
	if err := txn.Sign(bid, issuer); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(bid); err != nil {
		t.Errorf("BID: %v", err)
	}

	accept, err := txn.NewAcceptBid(requester.PublicBase58(), escrow.PublicBase58(), request.ID, bid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Sign(accept, escrow, requester); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(accept); err != nil {
		t.Errorf("ACCEPT_BID: %v", err)
	}

	ret := txn.NewReturn(escrow.PublicBase58(), accept.ID, 0, issuer.PublicBase58(), 3, create.ID, nil)
	if err := txn.Sign(ret, escrow); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(ret); err != nil {
		t.Errorf("RETURN: %v", err)
	}
}

func TestRegistryRejectsUnknownOperation(t *testing.T) {
	r := newTestRegistry(t)
	err := r.ValidateDoc(map[string]any{"operation": "DESTROY"})
	var se *txn.SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("want SchemaError, got %v", err)
	}
	if err := r.ValidateDoc(map[string]any{}); err == nil {
		t.Error("missing operation should fail")
	}
	if err := r.ValidateDoc(map[string]any{"operation": 5.0}); err == nil {
		t.Error("non-string operation should fail")
	}
}

func TestRegistryRejectsStructuralViolations(t *testing.T) {
	r := newTestRegistry(t)
	issuer := keys.MustGenerate()
	base := signedCreate(t, issuer)

	mutate := func(f func(doc map[string]any)) map[string]any {
		doc := base.ToDoc()
		f(doc)
		return doc
	}
	cases := map[string]map[string]any{
		"bad id":          mutate(func(d map[string]any) { d["id"] = "xyz" }),
		"missing outputs": mutate(func(d map[string]any) { delete(d, "outputs") }),
		"empty outputs":   mutate(func(d map[string]any) { d["outputs"] = []any{} }),
		"two create inputs": mutate(func(d map[string]any) {
			ins := d["inputs"].([]any)
			d["inputs"] = append(ins, ins[0])
		}),
		"create with refs": mutate(func(d map[string]any) { d["refs"] = []any{base.ID} }),
		"bad version":      mutate(func(d map[string]any) { d["version"] = "9.9" }),
		"zero amount": mutate(func(d map[string]any) {
			d["outputs"].([]any)[0].(map[string]any)["amount"] = 0.0
		}),
		"extra field": mutate(func(d map[string]any) { d["bonus"] = 1.0 }),
		"create with asset link": mutate(func(d map[string]any) {
			d["asset"] = map[string]any{"id": strings.Repeat("a", 64)}
		}),
	}
	for name, doc := range cases {
		if err := r.ValidateDoc(doc); err == nil {
			t.Errorf("%s: should be rejected", name)
		}
	}
}

// TestAmountAndSharesStopAt2Pow53: a document carries share counts as
// float64, so 2^53 — the last integer before float64 starts skipping —
// is the largest the schemas admit, on the document and on the struct
// (where 2^53+1 would otherwise round down to 2^53 and pass).
func TestAmountAndSharesStopAt2Pow53(t *testing.T) {
	r := newTestRegistry(t)
	issuer := keys.MustGenerate()
	build := func(shares, amount uint64) *txn.Transaction {
		tx := txn.NewCreate(issuer.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}}, shares, nil)
		tx.Outputs[0].Amount = amount
		if err := txn.Sign(tx, issuer); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	const max = uint64(txn.MaxAmount)
	if err := r.ValidateTx(build(max, max)); err != nil {
		t.Errorf("2^53 refused: %v", err)
	}
	for _, over := range []uint64{max + 1, max + 2, math.MaxUint64} {
		var se *txn.SchemaError
		if err := r.ValidateTx(build(1, over)); !errors.As(err, &se) {
			t.Errorf("amount %d: want SchemaError, got %v", over, err)
		}
		if err := r.ValidateTx(build(over, 1)); !errors.As(err, &se) {
			t.Errorf("shares %d: want SchemaError, got %v", over, err)
		}
	}
	doc := build(1, 1).ToDoc()
	above := math.Nextafter(float64(max), math.Inf(1))
	doc["outputs"].([]any)[0].(map[string]any)["amount"] = above
	if err := r.ValidateDoc(doc); err == nil {
		t.Error("document amount above 2^53 accepted")
	}
	doc = build(1, 1).ToDoc()
	doc["asset"].(map[string]any)["shares"] = above
	if err := r.ValidateDoc(doc); err == nil {
		t.Error("document shares above 2^53 accepted")
	}
	request := txn.NewRequest(issuer.PublicBase58(), map[string]any{"capabilities": []any{"cnc"}}, nil)
	request.Asset.Shares = max + 2
	if err := txn.Sign(request, issuer); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateDoc(request.ToDoc()); err == nil {
		t.Error("REQUEST document shares above 2^53 accepted")
	}
}

func TestRegistryRejectsReservedKeys(t *testing.T) {
	r := newTestRegistry(t)
	issuer := keys.MustGenerate()
	for _, data := range []map[string]any{
		{"$where": "1"},
		{"a.b": "1"},
		{"nested": map[string]any{"$bad": true}},
		{"list": []any{map[string]any{"x.y": 1}}},
	} {
		tx := txn.NewCreate(issuer.PublicBase58(), data, 1, nil)
		if err := txn.Sign(tx, issuer); err != nil {
			t.Fatal(err)
		}
		if err := r.ValidateTx(tx); err == nil {
			t.Errorf("data %v should be rejected", data)
		}
	}
	// Reserved keys in metadata too.
	tx := txn.NewCreate(issuer.PublicBase58(), nil, 1, map[string]any{"a.b": 1})
	if err := txn.Sign(tx, issuer); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(tx); err == nil {
		t.Error("reserved metadata key should be rejected")
	}
}

func TestRequestSchemaRequiresCapabilities(t *testing.T) {
	r := newTestRegistry(t)
	requester := keys.MustGenerate()
	req := txn.NewRequest(requester.PublicBase58(), map[string]any{"item": "widget"}, nil)
	if err := txn.Sign(req, requester); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(req); err == nil {
		t.Error("REQUEST without capabilities should fail schema validation")
	}
}

func TestBidSchemaRequiresReference(t *testing.T) {
	r := newTestRegistry(t)
	bidder, escrow := keys.MustGenerate(), keys.MustGenerate()
	asset := signedCreate(t, bidder)
	bid := txn.NewBid(bidder.PublicBase58(), asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidder.PublicBase58()}},
		3, escrow.PublicBase58(), strings.Repeat("a", 64), nil)
	bid.Refs = nil // violates BID.2
	if err := txn.Sign(bid, bidder); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateTx(bid); err == nil {
		t.Error("BID without refs should fail schema validation")
	}
}

func TestRegisterCustomOperation(t *testing.T) {
	r := newTestRegistry(t)
	s, err := compileJSON(`{"type": "object", "required": ["operation"], "properties": {"operation": {"enum": ["INTEREST"]}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("INTEREST", s); err != nil {
		t.Fatal(err)
	}
	if err := r.ValidateDoc(map[string]any{"operation": "INTEREST"}); err != nil {
		t.Errorf("custom operation rejected: %v", err)
	}
	if _, ok := r.ForOperation("INTEREST"); !ok {
		t.Error("INTEREST has no schema after Register")
	}
	// A registered operation, custom or native, is never replaced.
	for _, op := range []string{"INTEREST", txn.OpCreate} {
		before, _ := r.ForOperation(op)
		if err := r.Register(op, s); err == nil || !strings.Contains(err.Error(), op+" is already registered") {
			t.Errorf("registering %s again: %v", op, err)
		}
		if after, _ := r.ForOperation(op); after != before {
			t.Errorf("registering %s again replaced its schema", op)
		}
	}
}

// TestRegistriesShareNativeSchemasConcurrently: registries opened at
// once, as a cluster's nodes open theirs, get the same compiled native
// schemas, validate the corpus through them from several goroutines
// and each register an operation of their own that no other sees.
// Under the race detector it is the gate on sharing the schemas.
func TestRegistriesShareNativeSchemasConcurrently(t *testing.T) {
	docs := corpusDocs(t)
	own, err := compileJSON(`{"type": "object"}`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	regs := make([]*Registry, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRegistry()
			if err != nil {
				errs[i] = err
				return
			}
			regs[i] = r
			if err := r.Register(fmt.Sprintf("OWN_%d", i), own); err != nil {
				errs[i] = err
				return
			}
			for _, doc := range docs {
				if err := r.ValidateDoc(doc); err != nil {
					errs[i] = fmt.Errorf("%v: %w", doc["operation"], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("registry %d: %v", i, err)
		}
	}
	create, _ := regs[0].ForOperation(txn.OpCreate)
	for i, r := range regs {
		if s, _ := r.ForOperation(txn.OpCreate); s != create {
			t.Errorf("registry %d compiled its own CREATE schema", i)
		}
		for j := range regs {
			if _, ok := r.ForOperation(fmt.Sprintf("OWN_%d", j)); ok != (i == j) {
				t.Errorf("registry %d sees OWN_%d: %v, want %v", i, j, ok, i == j)
			}
		}
	}
}
