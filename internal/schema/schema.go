// Package schema implements SmartchainDB's declarative structural
// validation layer (Algorithm 1, validateT-schema). Each transaction
// type ships a schema document — a subset of JSON Schema, written in
// JSON — and every incoming payload is checked against the schema for
// its operation before semantic validation runs.
//
// Supported keywords: type (single or list), properties, required,
// additionalProperties (boolean), items, pattern, enum (of scalars),
// anyOf, minimum/maximum, minLength/maxLength, minItems/maxItems,
// definitions and local $ref ("#/definitions/name").
//
// pattern takes one form: an anchored class of ASCII characters and
// ranges under one repeat — ^[...]{n}$, ^[...]{m,n}$, ^[...]+$ or
// ^[...]*$. Compile turns it into a byte table with length bounds;
// any other form is a compile error.
//
// Compile resolves each $ref to its definition once, following a
// definition that is itself a $ref; a $ref naming no definition, or a
// cycle of definitions that are each a $ref, is a compile error. So is
// a cycle of anyOf and $ref edges: validation would follow it forever
// without descending into the value. So is a definition reaching more
// than maxAlternatives nodes through such edges. Recursion through
// properties or items stays legal. Validation reports the first
// violation in a fixed visit order: anyOf alternatives in listed order,
// then type, enum, the value's own bounds, required properties in
// listed order, an object's keys in sorted order and array items by
// index. The path of a violation
// ("$.inputs[2].fulfills.transaction_id") is built on the way back up
// from it, so a valid document costs no allocation.
package schema

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Schema is a compiled schema node.
type Schema struct {
	types      typeMask // 0 means any
	typeNames  string   // the listed types joined by " or ", for messages
	properties map[string]*Schema
	required   []string
	additional *bool // nil = allow, false = forbid extra properties
	items      *Schema
	pattern    *pattern
	enum       []any
	anyOf      []*Schema
	minimum    *float64
	maximum    *float64
	minLength  *int
	maxLength  *int
	minItems   *int
	maxItems   *int

	// A $ref node carries only the definition's name and, once Compile
	// has resolved it, the node its chain of definitions ends on.
	ref    string
	target *Schema
}

// typeMask is a set of JSON types, one bit each.
type typeMask uint8

const (
	tObject typeMask = 1 << iota
	tArray
	tString
	tInteger
	tNumber
	tBoolean
	tNull
)

var typeBits = map[string]typeMask{
	"object": tObject, "array": tArray, "string": tString, "integer": tInteger,
	"number": tNumber, "boolean": tBoolean, "null": tNull,
}

// typeOf returns the JSON types v belongs to: a number is also an
// integer when it is whole.
func typeOf(v any) typeMask {
	switch x := v.(type) {
	case map[string]any:
		return tObject
	case []any:
		return tArray
	case string:
		return tString
	case bool:
		return tBoolean
	case nil:
		return tNull
	case float64:
		if x == float64(int64(x)) {
			return tNumber | tInteger
		}
		return tNumber
	}
	return 0
}

// Compile builds a Schema from a decoded JSON document: numbers are
// float64, as encoding/json hands them back. A keyword Compile does not
// know ($comment, title) is ignored.
func Compile(doc map[string]any) (*Schema, error) {
	c := &compiler{}
	defs := map[string]*Schema{}
	if raw, ok := doc["definitions"].(map[string]any); ok {
		for _, name := range slices.Sorted(maps.Keys(raw)) {
			dm, ok := raw[name].(map[string]any)
			if !ok {
				return nil, fmt.Errorf("schema: definition %q is %T, want mapping", name, raw[name])
			}
			ds, err := c.node(dm)
			if err != nil {
				return nil, fmt.Errorf("schema: definition %q: %w", name, err)
			}
			defs[name] = ds
		}
	}
	root, err := c.node(doc)
	if err != nil {
		return nil, err
	}
	// A definition may itself be a $ref: follow the chain to the node
	// it ends on. A name no definition has ends it in an error.
	for _, r := range c.refs {
		name, t := r.ref, defs[r.ref]
		for hops := 0; t != nil && t.ref != ""; hops++ {
			if hops == len(defs) {
				return nil, fmt.Errorf("schema: $ref %q: the definitions it chains through form a cycle", r.ref)
			}
			name, t = t.ref, defs[t.ref]
		}
		if t == nil {
			return nil, fmt.Errorf("schema: $ref %q names no definition", name)
		}
		r.ref, r.target = name, t
	}
	if err := checkAlternatives(defs); err != nil {
		return nil, err
	}
	return root, nil
}

// maxAlternatives bounds the nodes one value is checked against
// without descending into it: a definition plus every alternative it
// reaches through anyOf and $ref edges, repeats counted. Chained
// definitions that each list the next one twice reach 2^n of them, and
// a value failing them all would visit every one. The native schemas
// use no anyOf: each of their definitions reaches 1.
const maxAlternatives = 256

// checkAlternatives refuses a cycle of anyOf and resolved-$ref edges
// (each turn of one validates the same value again, so validation would
// never end) and a definition reaching more than maxAlternatives nodes
// through them. A cycle through properties or items descends into the
// value on each turn and stays legal. Every cycle enters a definition
// through a $ref, so a walk from each definition finds them all; path
// names the definitions entered on the way, and reach holds, for each
// node from which no cycle is reachable, the nodes it reaches (capped
// one above the bound), so each node is counted once.
func checkAlternatives(defs map[string]*Schema) error {
	reach := map[*Schema]int{}
	var walk func(s *Schema, path []string) (int, error)
	walk = func(s *Schema, path []string) (int, error) {
		if s.target != nil {
			if i := slices.Index(path, s.ref); i >= 0 {
				return 0, fmt.Errorf("schema: definitions %s form a cycle of anyOf and $ref that never descends into the value", strings.Join(append(path[i:], s.ref), " → "))
			}
			s, path = s.target, append(path, s.ref)
		}
		if n, ok := reach[s]; ok {
			return n, nil
		}
		n := 1
		for _, alt := range s.anyOf {
			m, err := walk(alt, path)
			if err != nil {
				return 0, err
			}
			n = min(n+m, maxAlternatives+1)
		}
		reach[s] = n
		return n, nil
	}
	for _, name := range slices.Sorted(maps.Keys(defs)) {
		n, err := walk(defs[name], []string{name})
		if err != nil {
			return err
		}
		if n > maxAlternatives {
			return fmt.Errorf("schema: definition %q reaches more than %d anyOf and $ref alternatives that never descend into the value", name, maxAlternatives)
		}
	}
	return nil
}

// compiler collects the $ref nodes of one schema, which Compile
// resolves once every definition is compiled.
type compiler struct {
	refs []*Schema
}

func (c *compiler) node(doc map[string]any) (*Schema, error) {
	s := &Schema{}
	if ref, ok := doc["$ref"].(string); ok {
		name, found := strings.CutPrefix(ref, "#/definitions/")
		if !found {
			return nil, fmt.Errorf("unsupported $ref %q (only #/definitions/... is supported)", ref)
		}
		s.ref = name
		c.refs = append(c.refs, s)
		return s, nil
	}
	var types []string
	switch t := doc["type"].(type) {
	case string:
		types = []string{t}
	case []any:
		for _, e := range t {
			ts, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("type list contains %T", e)
			}
			types = append(types, ts)
		}
	case nil:
	default:
		return nil, fmt.Errorf("type is %T", t)
	}
	for _, ty := range types {
		bit, ok := typeBits[ty]
		if !ok {
			return nil, fmt.Errorf("unknown type %q", ty)
		}
		s.types |= bit
	}
	s.typeNames = strings.Join(types, " or ")
	if props, ok := doc["properties"].(map[string]any); ok {
		s.properties = make(map[string]*Schema, len(props))
		for _, k := range slices.Sorted(maps.Keys(props)) {
			vm, ok := props[k].(map[string]any)
			if !ok {
				return nil, fmt.Errorf("property %q is %T, want mapping", k, props[k])
			}
			child, err := c.node(vm)
			if err != nil {
				return nil, fmt.Errorf("property %q: %w", k, err)
			}
			s.properties[k] = child
		}
	}
	if req, ok := doc["required"].([]any); ok {
		for _, e := range req {
			rs, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("required contains %T", e)
			}
			s.required = append(s.required, rs)
		}
	}
	if ap, ok := doc["additionalProperties"].(bool); ok {
		s.additional = &ap
	}
	if items, ok := doc["items"].(map[string]any); ok {
		child, err := c.node(items)
		if err != nil {
			return nil, fmt.Errorf("items: %w", err)
		}
		s.items = child
	}
	if src, ok := doc["pattern"].(string); ok {
		p, err := compilePattern(src)
		if err != nil {
			return nil, err
		}
		s.pattern = p
	}
	if enum, ok := doc["enum"].([]any); ok {
		// A list or map member would make the comparison with a
		// value of its own type panic.
		for _, e := range enum {
			switch e.(type) {
			case string, float64, bool, nil:
			default:
				return nil, fmt.Errorf("enum contains %T", e)
			}
		}
		s.enum = enum
	}
	if any_, ok := doc["anyOf"].([]any); ok {
		for i, e := range any_ {
			em, ok := e.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("anyOf[%d] is %T", i, e)
			}
			alt, err := c.node(em)
			if err != nil {
				return nil, fmt.Errorf("anyOf[%d]: %w", i, err)
			}
			s.anyOf = append(s.anyOf, alt)
		}
	}
	var err error
	if s.minimum, err = floatKey(doc, "minimum"); err != nil {
		return nil, err
	}
	if s.maximum, err = floatKey(doc, "maximum"); err != nil {
		return nil, err
	}
	if s.minLength, err = intKey(doc, "minLength"); err != nil {
		return nil, err
	}
	if s.maxLength, err = intKey(doc, "maxLength"); err != nil {
		return nil, err
	}
	if s.minItems, err = intKey(doc, "minItems"); err != nil {
		return nil, err
	}
	if s.maxItems, err = intKey(doc, "maxItems"); err != nil {
		return nil, err
	}
	return s, nil
}

func floatKey(doc map[string]any, key string) (*float64, error) {
	v, ok := doc[key]
	if !ok {
		return nil, nil
	}
	if x, ok := v.(float64); ok {
		return &x, nil
	}
	return nil, fmt.Errorf("%s is %T, want number", key, v)
}

// intKey reads a count keyword: a whole number that fits an int. A
// float64 outside int's range has no defined conversion to one.
func intKey(doc map[string]any, key string) (*int, error) {
	v, ok := doc[key]
	if !ok {
		return nil, nil
	}
	x, ok := v.(float64)
	if !ok {
		return nil, fmt.Errorf("%s is %T, want integer", key, v)
	}
	if x != math.Trunc(x) || x < math.MinInt || x >= math.MaxInt {
		return nil, fmt.Errorf("%s is %v, want a whole number in int range", key, x)
	}
	i := int(x)
	return &i, nil
}

// pattern is a compiled `pattern`: which bytes the class admits and
// how many of them the repeat allows. Every admitted byte is ASCII, so
// a byte is a character and a non-ASCII string never matches — as
// with the regular expression the source spells.
type pattern struct {
	src      string
	class    [256]bool
	min, max int // max < 0: no upper bound
}

// maxRepeat is the largest count a repeat may name, regexp's own limit.
const maxRepeat = 1000

// compilePattern accepts ^[class]rep$, where class lists printable
// ASCII characters and lo-hi ranges (no negation, escapes, brackets or
// '^'; a literal '-' only first or last) and rep is {n}, {m,n}, + or *.
func compilePattern(src string) (*pattern, error) {
	p := &pattern{src: src}
	bad := func(why string) (*pattern, error) {
		return nil, fmt.Errorf("pattern %q: %s (supported: ^[...]{n}$, ^[...]{m,n}$, ^[...]+$, ^[...]*$ over printable ASCII)", src, why)
	}
	rest, ok := strings.CutPrefix(src, "^[")
	if !ok {
		return bad("not an anchored character class")
	}
	class, rep, ok := strings.Cut(rest, "]")
	if !ok || class == "" {
		return bad("unterminated or empty class")
	}
	if rep, ok = strings.CutSuffix(rep, "$"); !ok {
		return bad("not anchored at the end")
	}
	member := func(c byte) bool { return c >= ' ' && c <= '~' && c != '\\' && c != '[' && c != '^' }
	for i := 0; i < len(class); i++ {
		c := class[i]
		switch {
		case !member(c):
			return bad(fmt.Sprintf("class character %q", c))
		case c == '-' && i != 0 && i != len(class)-1:
			return bad("'-' inside the class is not a range")
		case c != '-' && i+2 < len(class) && class[i+1] == '-':
			hi := class[i+2]
			if !member(hi) || hi == '-' || hi < c {
				return bad(fmt.Sprintf("range %q", class[i:i+3]))
			}
			for b := c; ; b++ {
				p.class[b] = true
				if b == hi {
					break
				}
			}
			i += 2
		default:
			p.class[c] = true
		}
	}
	switch rep {
	case "+":
		p.min, p.max = 1, -1
	case "*":
		p.min, p.max = 0, -1
	default:
		if len(rep) < 2 || rep[0] != '{' || rep[len(rep)-1] != '}' {
			return bad(fmt.Sprintf("repeat %q", rep))
		}
		lo, hi, isRange := strings.Cut(rep[1:len(rep)-1], ",")
		if !isRange {
			hi = lo
		}
		var okLo, okHi bool
		p.min, okLo = repeatCount(lo)
		p.max, okHi = repeatCount(hi)
		if !okLo || !okHi || p.min > p.max {
			return bad(fmt.Sprintf("repeat %q", rep))
		}
	}
	return p, nil
}

// repeatCount parses a repeat bound: decimal, no sign or leading zero,
// at most maxRepeat.
func repeatCount(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0 && n <= maxRepeat && s == strconv.Itoa(n)
}

func (p *pattern) match(s string) bool {
	if len(s) < p.min || (p.max >= 0 && len(s) > p.max) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !p.class[s[i]] {
			return false
		}
	}
	return true
}

// Violation describes one schema violation with its document path.
type Violation struct {
	Path string
	Msg  string
}

func (v Violation) Error() string { return fmt.Sprintf("%s: %s", v.Path, v.Msg) }

// failure is a violation on its way up from the node that found it:
// each level it passes appends its own path segment, so the path is
// built only for a document that fails.
type failure struct {
	msg   string
	first *failure  // anyOf: the first alternative's failure, below this node
	segs  []pathSeg // the path from the validated value down, innermost first
}

// pathSeg is ".key", or "[index]" when index >= 0.
type pathSeg struct {
	key   string
	index int
}

func violation(format string, args ...any) *failure {
	return &failure{msg: fmt.Sprintf(format, args...)}
}

func (f *failure) at(key string) *failure {
	f.segs = append(f.segs, pathSeg{key: key, index: -1})
	return f
}

func (f *failure) atIndex(i int) *failure {
	f.segs = append(f.segs, pathSeg{index: i})
	return f
}

func (f *failure) path(base string) string {
	b := append(make([]byte, 0, len(base)+16*len(f.segs)), base...)
	for i := len(f.segs) - 1; i >= 0; i-- {
		if sg := f.segs[i]; sg.index < 0 {
			b = append(append(b, '.'), sg.key...)
		} else {
			b = append(strconv.AppendInt(append(b, '['), int64(sg.index), 10), ']')
		}
	}
	return string(b)
}

// err renders the failure of a value found at base.
func (f *failure) err(base string) error {
	path := f.path(base)
	if f.first != nil {
		return Violation{Path: path, Msg: fmt.Sprintf("no anyOf alternative matched (first failure: %v)", f.first.err(path))}
	}
	return Violation{Path: path, Msg: f.msg}
}

// leastFailing runs check on every key of m once and returns the
// failure of the least failing key, so the failure reported is the
// first in sorted key order whatever order the map ranges in.
func leastFailing(m map[string]any, check func(k string, v any) *failure) *failure {
	var least *failure
	var leastKey string
	for k, v := range m {
		if f := check(k, v); f != nil && (least == nil || k < leastKey) {
			least, leastKey = f, k
		}
	}
	return least
}

// Validate checks value against the schema and returns the first
// violation found, or nil.
func (s *Schema) Validate(value any) error {
	if f := s.check(value); f != nil {
		return f.err("$")
	}
	return nil
}

func (s *Schema) check(value any) *failure {
	if s.target != nil {
		s = s.target
	}
	if len(s.anyOf) > 0 {
		var first *failure
		for _, alt := range s.anyOf {
			f := alt.check(value)
			if f == nil {
				first = nil
				break
			}
			if first == nil {
				first = f
			}
		}
		if first != nil {
			return &failure{first: first}
		}
	}
	if s.types != 0 && s.types&typeOf(value) == 0 {
		return violation("is %s, want %s", jsonTypeName(value), s.typeNames)
	}
	if s.enum != nil && !s.inEnum(value) {
		return violation("value %v not in enum %v", value, s.enum)
	}
	switch v := value.(type) {
	case string:
		if s.pattern != nil && !s.pattern.match(v) {
			return violation("%q does not match pattern %q", truncate(v), s.pattern.src)
		}
		if s.minLength != nil && len(v) < *s.minLength {
			return violation("length %d < minLength %d", len(v), *s.minLength)
		}
		if s.maxLength != nil && len(v) > *s.maxLength {
			return violation("length %d > maxLength %d", len(v), *s.maxLength)
		}
	case map[string]any:
		for _, r := range s.required {
			if _, ok := v[r]; !ok {
				return violation("missing required property %q", r)
			}
		}
		if s.properties == nil && (s.additional == nil || *s.additional) {
			return nil
		}
		return leastFailing(v, s.checkProperty)
	case []any:
		if s.minItems != nil && len(v) < *s.minItems {
			return violation("has %d items, want at least %d", len(v), *s.minItems)
		}
		if s.maxItems != nil && len(v) > *s.maxItems {
			return violation("has %d items, want at most %d", len(v), *s.maxItems)
		}
		if s.items != nil {
			for i, e := range v {
				if f := s.items.check(e); f != nil {
					return f.atIndex(i)
				}
			}
		}
	case float64:
		if s.minimum != nil && v < *s.minimum {
			return violation("%v < minimum %v", v, *s.minimum)
		}
		if s.maximum != nil && v > *s.maximum {
			return violation("%v > maximum %v", v, *s.maximum)
		}
	}
	return nil
}

// checkProperty checks one key of an object against the node's
// properties and additionalProperties.
func (s *Schema) checkProperty(k string, v any) *failure {
	child, ok := s.properties[k]
	if !ok {
		if s.additional != nil && !*s.additional {
			return violation("unexpected property %q", k)
		}
		return nil
	}
	if f := child.check(v); f != nil {
		return f.at(k)
	}
	return nil
}

// inEnum compares v with each member by ==: every member is a scalar
// (Compile refuses any other), and two numbers are both float64.
func (s *Schema) inEnum(v any) bool {
	return slices.Contains(s.enum, v)
}

func jsonTypeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case string:
		return "string"
	case float64:
		return "number"
	case map[string]any:
		return "object"
	case []any:
		return "array"
	}
	return fmt.Sprintf("%T", v)
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
