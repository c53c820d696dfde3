package schema

// The schema interpreter Schema replaced — a tree of nodes walked with
// the path built at every level, regexp patterns and $ref resolved on
// every visit — kept as the reference the compiled walker is held to
// (TestCompiledSchemaMatchesReference, FuzzSchemaValidate). It is the
// old code with its names prefixed and one change: an object's keys are
// visited in sorted order, where it ranged over the map and so reported
// a different violation from call to call. validateKeys and ValidateDoc
// follow it the same way.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"smartchaindb/internal/txn"
)

// refSchema is a compiled schema node.
type refSchema struct {
	name string // for error messages; set on the root

	types      []string // empty means any
	properties map[string]*refSchema
	required   []string
	additional *bool // nil = allow, false = forbid extra properties
	items      *refSchema
	pattern    *regexp.Regexp
	patternSrc string
	enum       []any
	anyOf      []*refSchema
	minimum    *float64
	maximum    *float64
	minLength  *int
	maxLength  *int
	minItems   *int
	maxItems   *int

	defs map[string]*refSchema // only on the root
	ref  string                // unresolved local $ref
	root *refSchema
}

// refCompile builds a refSchema from a decoded JSON document.
func refCompile(doc map[string]any) (*refSchema, error) {
	root := &refSchema{defs: map[string]*refSchema{}}
	root.root = root
	if defs, ok := doc["definitions"].(map[string]any); ok {
		for name, d := range defs {
			dm, ok := d.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("schema: definition %q is %T, want mapping", name, d)
			}
			ds, err := refCompileNode(dm, root)
			if err != nil {
				return nil, fmt.Errorf("schema: definition %q: %w", name, err)
			}
			root.defs[name] = ds
		}
	}
	node, err := refCompileNode(doc, root)
	if err != nil {
		return nil, err
	}
	node.defs = root.defs
	node.root = node
	// Re-point children compiled with the temporary root.
	refRepoint(node, node)
	for _, d := range node.defs {
		refRepoint(d, node)
	}
	if title, ok := doc["title"].(string); ok {
		node.name = title
	}
	return node, nil
}

func refRepoint(s, root *refSchema) {
	if s == nil {
		return
	}
	s.root = root
	for _, c := range s.properties {
		refRepoint(c, root)
	}
	refRepoint(s.items, root)
	for _, c := range s.anyOf {
		refRepoint(c, root)
	}
}

// refCompileJSON decodes a JSON schema and compiles it.
func refCompileJSON(src string) (*refSchema, error) {
	var doc map[string]any
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		return nil, err
	}
	return refCompile(doc)
}

func refCompileNode(doc map[string]any, root *refSchema) (*refSchema, error) {
	s := &refSchema{root: root}
	if ref, ok := doc["$ref"].(string); ok {
		name, found := strings.CutPrefix(ref, "#/definitions/")
		if !found {
			return nil, fmt.Errorf("unsupported $ref %q (only #/definitions/... is supported)", ref)
		}
		s.ref = name
		return s, nil
	}
	switch t := doc["type"].(type) {
	case string:
		s.types = []string{t}
	case []any:
		for _, e := range t {
			ts, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("type list contains %T", e)
			}
			s.types = append(s.types, ts)
		}
	case nil:
	default:
		return nil, fmt.Errorf("type is %T", t)
	}
	for _, ty := range s.types {
		switch ty {
		case "object", "array", "string", "integer", "number", "boolean", "null":
		default:
			return nil, fmt.Errorf("unknown type %q", ty)
		}
	}
	if props, ok := doc["properties"].(map[string]any); ok {
		s.properties = make(map[string]*refSchema, len(props))
		for k, v := range props {
			vm, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("property %q is %T, want mapping", k, v)
			}
			c, err := refCompileNode(vm, root)
			if err != nil {
				return nil, fmt.Errorf("property %q: %w", k, err)
			}
			s.properties[k] = c
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
		c, err := refCompileNode(items, root)
		if err != nil {
			return nil, fmt.Errorf("items: %w", err)
		}
		s.items = c
	}
	if pat, ok := doc["pattern"].(string); ok {
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		s.pattern, s.patternSrc = re, pat
	}
	if enum, ok := doc["enum"].([]any); ok {
		s.enum = enum
	}
	if any_, ok := doc["anyOf"].([]any); ok {
		for i, e := range any_ {
			em, ok := e.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("anyOf[%d] is %T", i, e)
			}
			c, err := refCompileNode(em, root)
			if err != nil {
				return nil, fmt.Errorf("anyOf[%d]: %w", i, err)
			}
			s.anyOf = append(s.anyOf, c)
		}
	}
	var err error
	if s.minimum, err = refFloatKey(doc, "minimum"); err != nil {
		return nil, err
	}
	if s.maximum, err = refFloatKey(doc, "maximum"); err != nil {
		return nil, err
	}
	if s.minLength, err = refIntKey(doc, "minLength"); err != nil {
		return nil, err
	}
	if s.maxLength, err = refIntKey(doc, "maxLength"); err != nil {
		return nil, err
	}
	if s.minItems, err = refIntKey(doc, "minItems"); err != nil {
		return nil, err
	}
	if s.maxItems, err = refIntKey(doc, "maxItems"); err != nil {
		return nil, err
	}
	return s, nil
}

func refFloatKey(doc map[string]any, key string) (*float64, error) {
	v, ok := doc[key]
	if !ok {
		return nil, nil
	}
	if x, ok := v.(float64); ok {
		return &x, nil
	}
	return nil, fmt.Errorf("%s is %T, want number", key, v)
}

func refIntKey(doc map[string]any, key string) (*int, error) {
	v, ok := doc[key]
	if !ok {
		return nil, nil
	}
	if x, ok := v.(float64); ok && x == math.Trunc(x) && x >= math.MinInt && x < math.MaxInt {
		i := int(x)
		return &i, nil
	}
	return nil, fmt.Errorf("%s is %T, want integer", key, v)
}

// Validate checks value against the schema and returns the first
// violation found, or nil.
func (s *refSchema) Validate(value any) error {
	return s.validate(value, "$")
}

func (s *refSchema) resolve() (*refSchema, error) {
	if s.ref == "" {
		return s, nil
	}
	d, ok := s.root.defs[s.ref]
	if !ok {
		return nil, fmt.Errorf("schema: unresolved $ref %q", s.ref)
	}
	return d, nil
}

func (s *refSchema) validate(value any, path string) error {
	rs, err := s.resolve()
	if err != nil {
		return err
	}
	s = rs
	if len(s.anyOf) > 0 {
		var firstErr error
		for _, alt := range s.anyOf {
			if err := alt.validate(value, path); err == nil {
				firstErr = nil
				break
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return Violation{Path: path, Msg: fmt.Sprintf("no anyOf alternative matched (first failure: %v)", firstErr)}
		}
	}
	if len(s.types) > 0 {
		ok := false
		for _, t := range s.types {
			if refTypeMatches(t, value) {
				ok = true
				break
			}
		}
		if !ok {
			return Violation{Path: path, Msg: fmt.Sprintf("is %s, want %s", refJsonTypeName(value), strings.Join(s.types, " or "))}
		}
	}
	if s.enum != nil {
		found := false
		for _, e := range s.enum {
			if e == value {
				found = true
				break
			}
		}
		if !found {
			return Violation{Path: path, Msg: fmt.Sprintf("value %v not in enum %v", value, s.enum)}
		}
	}
	switch v := value.(type) {
	case string:
		if s.pattern != nil && !s.pattern.MatchString(v) {
			return Violation{Path: path, Msg: fmt.Sprintf("%q does not match pattern %q", refTruncate(v), s.patternSrc)}
		}
		if s.minLength != nil && len(v) < *s.minLength {
			return Violation{Path: path, Msg: fmt.Sprintf("length %d < minLength %d", len(v), *s.minLength)}
		}
		if s.maxLength != nil && len(v) > *s.maxLength {
			return Violation{Path: path, Msg: fmt.Sprintf("length %d > maxLength %d", len(v), *s.maxLength)}
		}
	case map[string]any:
		for _, r := range s.required {
			if _, ok := v[r]; !ok {
				return Violation{Path: path, Msg: fmt.Sprintf("missing required property %q", r)}
			}
		}
		for _, k := range slices.Sorted(maps.Keys(v)) {
			e := v[k]
			child, ok := s.properties[k]
			if !ok {
				if s.additional != nil && !*s.additional {
					return Violation{Path: path, Msg: fmt.Sprintf("unexpected property %q", k)}
				}
				continue
			}
			if err := child.validate(e, path+"."+k); err != nil {
				return err
			}
		}
	case []any:
		if s.minItems != nil && len(v) < *s.minItems {
			return Violation{Path: path, Msg: fmt.Sprintf("has %d items, want at least %d", len(v), *s.minItems)}
		}
		if s.maxItems != nil && len(v) > *s.maxItems {
			return Violation{Path: path, Msg: fmt.Sprintf("has %d items, want at most %d", len(v), *s.maxItems)}
		}
		if s.items != nil {
			for i, e := range v {
				if err := s.items.validate(e, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	case float64:
		if s.minimum != nil && v < *s.minimum {
			return Violation{Path: path, Msg: fmt.Sprintf("%v < minimum %v", v, *s.minimum)}
		}
		if s.maximum != nil && v > *s.maximum {
			return Violation{Path: path, Msg: fmt.Sprintf("%v > maximum %v", v, *s.maximum)}
		}
	}
	return nil
}

func refTypeMatches(t string, v any) bool {
	switch t {
	case "object":
		_, ok := v.(map[string]any)
		return ok
	case "array":
		_, ok := v.([]any)
		return ok
	case "string":
		_, ok := v.(string)
		return ok
	case "boolean":
		_, ok := v.(bool)
		return ok
	case "null":
		return v == nil
	case "number":
		_, ok := v.(float64)
		return ok
	case "integer":
		x, ok := v.(float64)
		return ok && !math.IsInf(x, 0) && x == math.Trunc(x)
	}
	return false
}

func refJsonTypeName(v any) string {
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

func refTruncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// refRegistry compiles every native schema with the reference
// interpreter.
func refRegistry(t testing.TB) map[string]*refSchema {
	t.Helper()
	docs, err := nativeSchemaDocs()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*refSchema, len(docs))
	for op, doc := range docs {
		s, err := refCompile(doc)
		if err != nil {
			t.Fatalf("reference compile %s: %v", op, err)
		}
		out[op] = s
	}
	return out
}

// refValidateDoc is Registry.ValidateDoc over the reference schemas.
func refValidateDoc(byOp map[string]*refSchema, doc map[string]any) error {
	op, ok := doc["operation"].(string)
	if !ok {
		return &txn.SchemaError{Op: "?", Path: "$.operation", Msg: "missing or non-string operation"}
	}
	s, ok := byOp[op]
	if !ok {
		return &txn.SchemaError{Op: op, Path: "$.operation", Msg: fmt.Sprintf("unknown operation %q", op)}
	}
	if err := s.Validate(doc); err != nil {
		if v, ok := err.(Violation); ok {
			return &txn.SchemaError{Op: op, Path: v.Path, Msg: v.Msg}
		}
		return &txn.SchemaError{Op: op, Path: "$", Msg: err.Error()}
	}
	if asset, ok := doc["asset"].(map[string]any); ok {
		if data, ok := asset["data"].(map[string]any); ok {
			if err := refValidateKeys(op, data, "$.asset.data"); err != nil {
				return err
			}
		}
	}
	if meta, ok := doc["metadata"].(map[string]any); ok {
		if err := refValidateKeys(op, meta, "$.metadata"); err != nil {
			return err
		}
	}
	return nil
}

func refValidateKeys(op string, m map[string]any, path string) error {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		v := m[k]
		if k == "" {
			return &txn.SchemaError{Op: op, Path: path, Msg: "empty key"}
		}
		if strings.ContainsAny(k, "$.\x00") {
			return &txn.SchemaError{Op: op, Path: path + "." + k, Msg: "key contains reserved character ($, ., or NUL)"}
		}
		if child, ok := v.(map[string]any); ok {
			if err := refValidateKeys(op, child, path+"."+k); err != nil {
				return err
			}
		}
		if list, ok := v.([]any); ok {
			for i, e := range list {
				if child, ok := e.(map[string]any); ok {
					if err := refValidateKeys(op, child, fmt.Sprintf("%s.%s[%d]", path, k, i)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
