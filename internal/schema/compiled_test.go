package schema

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/validate"
	"smartchaindb/internal/workload"
)

// corpusTxs returns the transactions of every internal/workload
// generator — the benchmark shapes, a wide fan-in and one reverse
// auction — and a RETURN and a WITHDRAW_BID built from that auction,
// so that every native operation has at least one.
func corpusTxs(t testing.TB) []*txn.Transaction {
	t.Helper()
	funding, transfer4, create1k := workload.BenchmarkShapes()
	owner := keys.DeterministicKeyPair(51)
	fanCreate, fanTransfer := workload.FanIn(owner, keys.DeterministicKeyPair(52).PublicBase58(), 7, 12)
	escrow := keys.DeterministicKeyPair(53)
	grp := workload.NewGenerator(3, escrow).NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3, PayloadBytes: 160})
	bidder := grp.Bidders[0]

	ret := txn.NewReturn(escrow.PublicBase58(), grp.Accept.ID, 1, bidder.PublicBase58(), 1, grp.Creates[0].ID, map[string]any{"note": "refund"})
	if err := txn.Sign(ret, escrow); err != nil {
		t.Fatal(err)
	}
	bid := grp.Bids[0]
	withdraw := &txn.Transaction{
		Operation: validate.OpWithdrawBid,
		Asset:     &txn.Asset{ID: bid.AssetID()},
		Inputs: []*txn.Input{{
			Fulfills:     &txn.OutputRef{TxID: bid.ID, Index: 0},
			OwnersBefore: []string{escrow.PublicBase58(), bidder.PublicBase58()},
		}},
		Outputs: []*txn.Output{{
			PublicKeys: []string{bidder.PublicBase58()},
			Amount:     bid.Outputs[0].Amount,
			PrevOwners: []string{escrow.PublicBase58()},
		}},
		Refs:    []string{bid.ID},
		Version: txn.Version,
	}
	if err := txn.Sign(withdraw, escrow, bidder); err != nil {
		t.Fatal(err)
	}
	txs := []*txn.Transaction{funding, transfer4, create1k, fanCreate, fanTransfer, grp.Request}
	txs = append(txs, grp.Creates...)
	txs = append(txs, grp.Bids...)
	return append(txs, grp.Accept, ret, withdraw)
}

// corpusDocs returns each corpus transaction's document as ToDoc builds
// it and as a client's JSON decodes it.
func corpusDocs(t testing.TB) []map[string]any {
	t.Helper()
	var docs []map[string]any
	for _, tx := range corpusTxs(t) {
		docs = append(docs, cloneValue(tx.ToDoc()).(map[string]any), jsonRoundTrip(t, tx.ToDoc()))
	}
	return docs
}

func jsonRoundTrip(t testing.TB, doc map[string]any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = cloneValue(e)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneValue(e)
		}
		return out
	}
	return v
}

// docPaths lists the path of every value in doc: map keys and list
// indexes from the root down.
func docPaths(v any, prefix []any, out *[][]any) {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range slices.Sorted(maps.Keys(x)) {
			p := append(slices.Clip(prefix), k)
			*out = append(*out, p)
			docPaths(x[k], p, out)
		}
	case []any:
		for i, e := range x {
			p := append(slices.Clip(prefix), i)
			*out = append(*out, p)
			docPaths(e, p, out)
		}
	}
}

// edit replaces, with f's result, the value at path in doc; f returns
// keep=false to delete a map key. A path an earlier edit removed is
// left alone.
func edit(doc map[string]any, path []any, f func(old any) (v any, keep bool)) {
	var parent any = doc
	for _, key := range path[:len(path)-1] {
		switch p := parent.(type) {
		case map[string]any:
			k, ok := key.(string)
			if !ok {
				return
			}
			parent = p[k]
		case []any:
			i, ok := key.(int)
			if !ok || i >= len(p) {
				return
			}
			parent = p[i]
		default:
			return
		}
	}
	switch p := parent.(type) {
	case map[string]any:
		k, ok := last(path).(string)
		if !ok {
			return
		}
		old, present := p[k]
		if !present {
			return
		}
		if v, keep := f(old); keep {
			p[k] = v
		} else {
			delete(p, k)
		}
	case []any:
		i, ok := last(path).(int)
		if !ok || i >= len(p) {
			return
		}
		if v, keep := f(p[i]); keep {
			p[i] = v
		}
	}
}

func last(path []any) any { return path[len(path)-1] }

// mutation is one edit of a document.
type mutation func(doc map[string]any)

// mutations returns, for every value of doc, a type swap, pattern
// breakers for a string (a byte outside any hex or base58 class, a
// non-ASCII rune, one byte short), and for every object a missing key
// for each of its keys and an extra key, plain and reserved.
func mutations(doc map[string]any) []mutation {
	var paths [][]any
	docPaths(doc, nil, &paths)
	var ms []mutation
	put := func(path []any, f func(old any) (any, bool)) {
		ms = append(ms, func(d map[string]any) { edit(d, path, f) })
	}
	for _, p := range paths {
		put(p, func(old any) (any, bool) { return swapType(old), true })
		if _, ok := last(p).(string); ok {
			put(p, func(any) (any, bool) { return nil, false })
		}
		put(p, func(old any) (any, bool) {
			s, ok := old.(string)
			if !ok || s == "" {
				return old, true
			}
			return s[:len(s)/2] + "0" + s[len(s)/2+1:], true
		})
		put(p, func(old any) (any, bool) {
			s, ok := old.(string)
			if !ok || s == "" {
				return old, true
			}
			return s[:len(s)/2] + "gé" + s[len(s)/2+1:], true
		})
		put(p, func(old any) (any, bool) {
			if s, ok := old.(string); ok && s != "" {
				return s[1:], true
			}
			return old, true
		})
		put(p, func(old any) (any, bool) {
			m, ok := old.(map[string]any)
			if ok {
				m["zz_extra"] = true
				m["a.b"] = "reserved"
			}
			return old, true
		})
	}
	ms = append(ms, func(d map[string]any) { d["zz_extra"] = 1.0 }, func(d map[string]any) { d[""] = "empty" })
	return ms
}

func swapType(v any) any {
	switch v.(type) {
	case string:
		return 1.0
	case float64, int64:
		return "1"
	case bool:
		return nil
	case nil:
		return false
	case map[string]any:
		return []any{"x"}
	case []any:
		return map[string]any{"x": "y"}
	}
	return nil
}

// anyOfSchemaDoc is one schema whose root accepts a document of any
// native operation: an anyOf over each operation's schema, each a
// definition beside the common ones.
func anyOfSchemaDoc(t testing.TB) map[string]any {
	t.Helper()
	docs, err := nativeSchemaDocs()
	if err != nil {
		t.Fatal(err)
	}
	defs := map[string]any{}
	var alts []any
	for _, op := range slices.Sorted(maps.Keys(docs)) {
		maps.Copy(defs, docs[op]["definitions"].(map[string]any))
		root := maps.Clone(docs[op])
		delete(root, "definitions")
		defs["op_"+op] = root
		alts = append(alts, map[string]any{"$ref": "#/definitions/op_" + op})
	}
	return map[string]any{"definitions": defs, "anyOf": alts}
}

// differential holds the compiled registry and schemas and the
// reference beside them.
type differential struct {
	reg         *Registry
	ref         map[string]*refSchema
	ops         []string
	anyOf       *Schema
	anyOfRef    *refSchema
	validations int
}

func newDifferential(t testing.TB) *differential {
	t.Helper()
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	d := &differential{reg: reg, ref: refRegistry(t)}
	d.ops = slices.Sorted(maps.Keys(d.ref))
	if d.anyOf, err = Compile(anyOfSchemaDoc(t)); err != nil {
		t.Fatal(err)
	}
	if d.anyOfRef, err = refCompile(anyOfSchemaDoc(t)); err != nil {
		t.Fatal(err)
	}
	return d
}

func render(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T %v", err, err)
}

// check compares the compiled and the reference verdicts on doc: the
// registry's, the any-operation schema's and, with every, each native
// schema's.
func (d *differential) check(t testing.TB, doc map[string]any, every bool) {
	t.Helper()
	compare := func(what string, got, want error) {
		t.Helper()
		d.validations++
		if render(got) != render(want) {
			raw, _ := json.Marshal(doc)
			t.Fatalf("%s disagrees on %s:\n compiled:  %s\n reference: %s", what, raw, render(got), render(want))
		}
	}
	compare("ValidateDoc", d.reg.ValidateDoc(doc), refValidateDoc(d.ref, doc))
	compare("anyOf schema", d.anyOf.Validate(doc), d.anyOfRef.Validate(doc))
	if every {
		for _, op := range d.ops {
			s, _ := d.reg.ForOperation(op)
			compare(op+" schema", s.Validate(doc), d.ref[op].Validate(doc))
		}
	}
}

// TestCompiledSchemaMatchesReference holds the compiled walker to the
// interpreter it replaced: every generator document against every
// native schema, and each with one and with two edits against its own
// schema and the any-operation schema — equal verdicts, byte-equal
// error strings.
func TestCompiledSchemaMatchesReference(t *testing.T) {
	d := newDifferential(t)
	rng := rand.New(rand.NewSource(1))
	rejected := 0
	for _, doc := range corpusDocs(t) {
		if err := d.reg.ValidateDoc(doc); err != nil {
			t.Fatalf("corpus document %v refused: %v", doc["operation"], err)
		}
		d.check(t, doc, true)
		ms := mutations(doc)
		for i, m := range ms {
			one := cloneValue(doc).(map[string]any)
			m(one)
			d.check(t, one, false)
			two := cloneValue(doc).(map[string]any)
			m(two)
			ms[rng.Intn(len(ms))](two)
			d.check(t, two, i%8 == 0)
			if d.reg.ValidateDoc(two) != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no edited document was refused: the edits test nothing")
	}
	t.Logf("%d validations a side, %d two-edit documents refused", d.validations, rejected)
}

// FuzzSchemaValidate: on any JSON object, the compiled registry and the
// any-operation schema never panic and agree with the reference
// interpreter on the verdict and the error string.
func FuzzSchemaValidate(f *testing.F) {
	docs := corpusDocs(f)
	for i, doc := range docs {
		raw, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		ms := mutations(doc)
		for j := i; j < len(ms); j += 37 {
			edited := cloneValue(doc).(map[string]any)
			ms[j](edited)
			raw, _ := json.Marshal(edited)
			f.Add(raw)
		}
	}
	d := newDifferential(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var doc map[string]any
		if json.Unmarshal(raw, &doc) != nil {
			return
		}
		d.check(t, doc, false)
	})
}

// FuzzSchemaCompile: on any text, CompileYAML returns a schema or an
// error, and a schema it returns validates a few generator documents
// without panicking, overflowing the stack or hanging — the same way
// twice. What a registered custom schema can do to a validator is
// bounded by this. Seeded from the native schema files and the
// hand-written test schemas.
func FuzzSchemaCompile(f *testing.F) {
	files, err := schemaFS.ReadDir("schemas")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range files {
		src, err := schemaFS.ReadFile("schemas/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range handWrittenSchemas {
		f.Add(src)
	}
	f.Add("definitions:\n  node:\n    anyOf:\n      - $ref: \"#/definitions/node\"\n$ref: \"#/definitions/node\"\n")
	f.Add("definitions:\n  node:\n    type: object\n    properties:\n      a:\n        $ref: \"#/definitions/node\"\n$ref: \"#/definitions/node\"\n")
	f.Add(fanOutSchema(30))
	// One document of each operation, and two that are not objects.
	docs := []any{nil, "x"}
	seen := map[any]bool{}
	for _, doc := range corpusDocs(f) {
		if op := doc["operation"]; !seen[op] {
			seen[op] = true
			docs = append(docs, doc)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := CompileYAML(src)
		if err != nil {
			return
		}
		for _, doc := range docs {
			if a, b := render(s.Validate(doc)), render(s.Validate(doc)); a != b {
				t.Fatalf("schema %q validated a %T document twice differently: %s, then %s", src, doc, a, b)
			}
		}
	})
}

// TestSchemaErrorsAreDeterministic: a document with several violations
// reports the same one on every call — the first in the fixed visit
// order, which is the reference's — for the schema walk and for the
// reserved-key walk.
func TestSchemaErrorsAreDeterministic(t *testing.T) {
	d := newDifferential(t)
	seen := map[string]bool{}
	for _, tx := range corpusTxs(t) {
		if seen[tx.Operation] {
			continue
		}
		seen[tx.Operation] = true
		structural := cloneValue(tx.ToDoc()).(map[string]any)
		structural["id"] = "xyz"
		structural["version"] = "9.9"
		structural["outputs"] = "none"
		structural["inputs"] = []any{}
		structural["zz_extra"] = true
		reserved := cloneValue(tx.ToDoc()).(map[string]any)
		reserved["metadata"] = map[string]any{"a.b": 1.0, "$c": 2.0, "d": map[string]any{"e.f": 3.0}, "g": []any{map[string]any{"h\x00": 1.0}}}
		for name, doc := range map[string]map[string]any{"structural": structural, "reserved keys": reserved} {
			first := d.reg.ValidateDoc(doc)
			if first == nil {
				t.Fatalf("%s %s: accepted", tx.Operation, name)
			}
			for range 100 {
				if err := d.reg.ValidateDoc(doc); render(err) != render(first) {
					t.Fatalf("%s %s: %v, then %v", tx.Operation, name, first, err)
				}
			}
			if want := refValidateDoc(d.ref, doc); render(first) != render(want) {
				t.Errorf("%s %s: %v, reference %v", tx.Operation, name, first, want)
			}
		}
	}
	if len(seen) != 7 {
		t.Fatalf("corpus covers %d operations, want 7", len(seen))
	}
}

// TestPatternMatchesRegexp holds each accepted pattern form to
// regexp.MatchString on random ASCII, non-ASCII and invalid UTF-8
// strings, a third of them drawn from the class alone and the rest
// mostly, so that both verdicts occur.
func TestPatternMatchesRegexp(t *testing.T) {
	forms := []string{
		"^[0-9a-f]{64}$", "^[1-9A-HJ-NP-Za-km-z]+$", "^[0-9a-f]{4}$", "^[0-9a-f]+$",
		"^[a-z]*$", "^[a-c]{2,5}$", "^[-a]{0,3}$", "^[a-]{1,1}$", "^[ -~]{0,1000}$",
		"^[+-/$]{3}$", "^[x]{0}$", "^[a-aZ]*$", "^[{}()|.*?]+$",
	}
	rng := rand.New(rand.NewSource(1))
	for _, src := range forms {
		p, err := compilePattern(src)
		if err != nil {
			t.Fatalf("%q refused: %v", src, err)
		}
		re := regexp.MustCompile(src)
		var class []byte
		for b := range 256 {
			if p.class[b] {
				class = append(class, byte(b))
			}
		}
		matched := 0
		for range 4000 {
			var sb strings.Builder
			n := rng.Intn(70)
			if rng.Intn(4) == 0 && p.max >= 0 {
				n = p.min + rng.Intn(p.max-p.min+1)
			}
			clean := rng.Intn(3) == 0
			for range n {
				switch r := rng.Intn(20); {
				case clean:
					sb.WriteByte(class[rng.Intn(len(class))])
				case r == 0:
					sb.WriteRune(rune(0x80 + rng.Intn(0x700)))
				case r == 1:
					sb.WriteByte(byte(0x80 + rng.Intn(0x80)))
				case r == 2:
					sb.WriteByte(byte(rng.Intn(0x80)))
				default:
					sb.WriteByte(class[rng.Intn(len(class))])
				}
			}
			s := sb.String()
			if got, want := p.match(s), re.MatchString(s); got != want {
				t.Fatalf("%q on %q (valid UTF-8 %v): table %v, regexp %v", src, s, utf8.ValidString(s), got, want)
			} else if got {
				matched++
			}
		}
		if matched == 0 {
			t.Errorf("%q: no string matched; the comparison tests only refusals", src)
		}
	}
}

// TestPatternRejectsOtherForms: every form but an anchored ASCII class
// under one repeat is a compile error, even where regexp would accept
// it.
func TestPatternRejectsOtherForms(t *testing.T) {
	for _, src := range []string{
		"", "[", "^[0-9]{3}", "[0-9]{3}$", "^[^0-9]+$", "^[a-z]$", "^[a-z]{2,}$",
		"^[a-z]{,2}$", "^[a-z]{01}$", "^[a-z]{1001}$", "^[a-z]{3,2}$", "^[a-z]{-1}$",
		"^[a-z]{+1}$", "^[a-z]{1 }$", "^[z-a]+$", "^[\\d]+$", "^[[:alpha:]]+$",
		"^[a-z]+?$", "^[a-z]++$", "^(?i)[a-z]+$", "^[é]+$", "^[]+$", "^[]a]+$",
		"^[a-z]+$x", "^[a-z]+$$", "^[a-c-e]+$", "^[a--]+$", "^[--a]+$", "^[\t]+$",
		"^[a-z]1}$", "^[a-z]{1$", "^[a-z]{{3}}$", "^[a-z]{}$", "^[a-z]{1,2,3}$", "^abc$", "^[a-z]+|[0-9]+$", "^([a-z])+$", "^[a^]+$",
	} {
		if p, err := compilePattern(src); err == nil {
			t.Errorf("%q compiled (min %d, max %d)", src, p.min, p.max)
		}
		if _, err := CompileYAML(fmt.Sprintf("type: string\npattern: %q\n", src)); err == nil {
			t.Errorf("schema with pattern %q compiled", src)
		}
	}
}

// allocShapes are the documents the allocation pin and the benchmark
// validate: the repo benchmark's 4-input TRANSFER and 1 KiB CREATE and
// a generated BID.
func allocShapes() []struct {
	name string
	tx   *txn.Transaction
} {
	_, transfer4, create1k := workload.BenchmarkShapes()
	g := workload.NewGenerator(1, keys.DeterministicKeyPair(61))
	bid := g.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 1, PayloadBytes: 128}).Bids[0]
	return []struct {
		name string
		tx   *txn.Transaction
	}{{"transfer4", transfer4}, {"create1k", create1k}, {"bid", bid}}
}

// TestSchemaValidateAllocatesNothing: a valid document costs no
// allocation — the path of a violation is built only for a document
// that has one.
func TestSchemaValidateAllocatesNothing(t *testing.T) {
	r := newTestRegistry(t)
	for _, c := range allocShapes() {
		if err := r.ValidateTx(c.tx); err != nil { // builds the shared document
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = r.ValidateTx(c.tx) }); got != 0 {
			t.Errorf("%s: %v allocations per ValidateTx, want 0", c.name, got)
		}
	}
}

func BenchmarkSchemaValidate(b *testing.B) {
	r := MustNewRegistry()
	for _, c := range allocShapes() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := r.ValidateTx(c.tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// handWrittenSchemas exercise what the native schemas do not use: an
// unresolved $ref inside anyOf, a $ref at the root, anyOf under items,
// numeric and mixed enums, and integer and bound checks on awkward
// numbers.
var handWrittenSchemas = []string{`
definitions:
  count:
    type: integer
    minimum: 2
anyOf:
  - $ref: "#/definitions/count"
  - type: string
`, `
definitions:
  root:
    type: object
    additionalProperties: false
    properties:
      x:
        type: [integer, "null"]
$ref: "#/definitions/root"
`, `
type: object
properties:
  list:
    type: array
    maxItems: 3
    items:
      anyOf:
        - type: object
          required: [k]
          properties:
            k:
              type: integer
              minimum: 2
        - type: "null"
        - anyOf:
            - type: string
              pattern: "^[a-c]{2}$"
            - type: boolean
`, `
type: object
properties:
  x:
    enum: [1, 2.5, "a", true, null]
  k:
    type: number
    minimum: -1.5
    maximum: 9007199254740992
`}

// TestCompiledMatchesReferenceOnHandWrittenSchemas holds the walker to
// the reference on handWrittenSchemas over awkward values. A $ref to a
// $ref is not among them: the reference leaves it an empty node
// (TestChainedRefResolves).
func TestCompiledMatchesReferenceOnHandWrittenSchemas(t *testing.T) {
	values := []any{
		nil, true, false, "x", "ab", "abc", "a", "", int64(1), int64(3), 1.0, 2.5, 1.5, -2.0, 1e19, -0.0,
		9007199254740993.0, []any{}, map[string]any{},
	}
	var docs []any
	for _, v := range values {
		docs = append(docs, v, map[string]any{"x": v}, map[string]any{"k": v, "x": v},
			map[string]any{"list": []any{nil, v}}, map[string]any{"list": []any{v, v, v, v}},
			map[string]any{"list": []any{map[string]any{"k": v}}})
	}
	for _, src := range handWrittenSchemas {
		s, err := CompileYAML(src)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := refCompileYAML(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			if got, want := render(s.Validate(doc)), render(rs.Validate(doc)); got != want {
				t.Errorf("schema %s on %#v:\n compiled:  %s\n reference: %s", src, doc, got, want)
			}
		}
	}
}

// TestChainedRefResolves: a definition that is itself a $ref is followed
// to the node its chain ends on, and a chain that ends on a missing name
// or a cycle of $refs is a compile error.
func TestChainedRefResolves(t *testing.T) {
	s, err := CompileYAML(`
definitions:
  a:
    $ref: "#/definitions/b"
  b:
    $ref: "#/definitions/c"
  c:
    type: string
type: object
properties:
  x:
    $ref: "#/definitions/a"
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		doc  map[string]any
		want string
	}{
		{map[string]any{"x": "s"}, "<nil>"},
		{map[string]any{"x": 1.0}, "schema.Violation $.x: is number, want string"},
	} {
		if got := render(s.Validate(c.doc)); got != c.want {
			t.Errorf("%v: %s, want %s", c.doc, got, c.want)
		}
	}
	_, err = CompileYAML(`
definitions:
  m:
    $ref: "#/definitions/missing"
properties:
  y:
    $ref: "#/definitions/m"
`)
	if want := `schema: $ref "missing" names no definition`; err == nil || err.Error() != want {
		t.Errorf("a chain ending on a missing name: compile error %v, want %q", err, want)
	}
	for _, src := range []string{`
definitions:
  a:
    $ref: "#/definitions/a"
$ref: "#/definitions/a"
`, `
definitions:
  a:
    $ref: "#/definitions/b"
  b:
    $ref: "#/definitions/a"
  c:
    type: string
properties:
  x:
    $ref: "#/definitions/b"
`} {
		if _, err := CompileYAML(src); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("schema %s: compile error %v, want a cycle", src, err)
		}
	}
}

// TestAnyOfRefCycleIsACompileError: a cycle of anyOf and $ref edges
// validates the same value on every turn, so it would recurse until the
// stack overflows — which kills the process, not the goroutine. Compile
// refuses each shape of it, naming the definitions on the cycle, and
// nothing here ever calls Validate.
func TestAnyOfRefCycleIsACompileError(t *testing.T) {
	for _, c := range []struct{ name, src, cycle string }{
		{"self through anyOf", `
definitions:
  node:
    anyOf:
      - $ref: "#/definitions/node"
$ref: "#/definitions/node"
`, `node → node`},
		{"two definitions", `
definitions:
  a:
    anyOf:
      - type: string
      - $ref: "#/definitions/b"
  b:
    anyOf:
      - $ref: "#/definitions/a"
type: object
properties:
  x:
    $ref: "#/definitions/a"
`, `a → b → a`},
		{"anyOf inside anyOf", `
definitions:
  node:
    type: object
    anyOf:
      - type: "null"
      - anyOf:
          - type: boolean
          - $ref: "#/definitions/node"
`, `node → node`},
	} {
		_, err := CompileYAML(c.src)
		if err == nil || !strings.Contains(err.Error(), "definitions "+c.cycle+" form a cycle") {
			t.Errorf("%s: compile error %v, want the cycle %s", c.name, err, c.cycle)
		}
	}
}

// fanOutSchema chains the definitions d0 … dn, each but the last
// listing the next one twice under anyOf: a value failing them all is
// checked against 2^(n+1)-1 nodes.
func fanOutSchema(n int) string {
	var b strings.Builder
	b.WriteString("definitions:\n")
	for i := range n {
		fmt.Fprintf(&b, "  d%d:\n    anyOf:\n      - $ref: \"#/definitions/d%d\"\n      - $ref: \"#/definitions/d%d\"\n", i, i+1, i+1)
	}
	fmt.Fprintf(&b, "  d%d:\n    type: string\n$ref: \"#/definitions/d0\"\n", n)
	return b.String()
}

// TestAnyOfFanOutIsBounded: a definition reaching more than
// maxAlternatives nodes through anyOf and $ref edges is a compile
// error naming it, counted in time linear in the schema (at n = 30 the
// count is 2^31, and at n = 20 a failing value took 451 ms to check);
// one at the bound compiles.
func TestAnyOfFanOutIsBounded(t *testing.T) {
	if _, err := CompileYAML(fanOutSchema(7)); err != nil {
		t.Fatalf("255 alternatives: %v", err)
	}
	for _, n := range []int{8, 30} {
		_, err := CompileYAML(fanOutSchema(n))
		if err == nil || !strings.Contains(err.Error(), `definition "d0" reaches more than 256 anyOf and $ref alternatives`) {
			t.Errorf("n = %d: compile error %v, want d0 refused", n, err)
		}
	}
}

// TestNestedViolationCostsLinearTime: a violation at the bottom of a
// deep object is found in one pass over it, each key checked once. The
// reserved-key walk over metadata nested 40 deep, and a recursive
// custom schema over a document as deep, each allocate a few objects per
// violation; a walk that checked a failing key twice per level would
// make 2^40 calls.
func TestNestedViolationCostsLinearTime(t *testing.T) {
	const depth = 40
	nest := func(bottom map[string]any) map[string]any {
		m := bottom
		for range depth {
			m = map[string]any{"a": m, "z": 1.0}
		}
		return m
	}
	wantPath := "$" + strings.Repeat(".a", depth)

	r := newTestRegistry(t)
	_, _, create := workload.BenchmarkShapes()
	doc := cloneValue(create.ToDoc()).(map[string]any)
	doc["metadata"] = nest(map[string]any{"$": 1.0})
	recursive, err := CompileYAML(`
definitions:
  node:
    type: object
    additionalProperties: false
    properties:
      a:
        $ref: "#/definitions/node"
      z:
        type: number
$ref: "#/definitions/node"
`)
	if err != nil {
		t.Fatal(err)
	}
	deep := nest(map[string]any{"bad": 1.0})

	for _, c := range []struct {
		name, want string
		run        func() error
	}{
		{"reserved key in metadata", "metadata" + wantPath[1:] + ".$: key contains reserved character ($, ., or NUL)",
			func() error { return r.ValidateDoc(doc) }},
		{"recursive schema", wantPath + `: unexpected property "bad"`,
			func() error { return recursive.Validate(deep) }},
	} {
		type result struct {
			err    error
			allocs float64
		}
		done := make(chan result, 1)
		go func() {
			err := c.run()
			done <- result{err, testing.AllocsPerRun(5, func() { _ = c.run() })}
		}()
		select {
		case res := <-done:
			if res.err == nil || !strings.HasSuffix(res.err.Error(), c.want) {
				t.Errorf("%s: %v, want …%s", c.name, res.err, c.want)
			}
			if res.allocs > depth {
				t.Errorf("%s: %v allocations, want at most %d", c.name, res.allocs, depth)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no verdict after 30 s", c.name)
		}
	}
}
