package docstore

import (
	"regexp"
	"strings"
)

// Filter matches documents. Filters compose with And/Or/Not; leaf
// filters test one dot-path against a value or operator.
type Filter interface {
	Matches(doc map[string]any) bool
}

// Eq matches documents whose value at path equals v. If the value at
// path is an array, any element equal to v matches (Mongo semantics).
func Eq(path string, v any) Filter { return field(path, opEq, normalize(v)) }

// Ne matches documents whose value at path does not equal v.
func Ne(path string, v any) Filter { return field(path, opNe, normalize(v)) }

// Gt matches numeric or string values strictly greater than v.
func Gt(path string, v any) Filter { return field(path, opGt, normalize(v)) }

// Gte matches values greater than or equal to v.
func Gte(path string, v any) Filter { return field(path, opGte, normalize(v)) }

// Lt matches values strictly less than v.
func Lt(path string, v any) Filter { return field(path, opLt, normalize(v)) }

// Lte matches values less than or equal to v.
func Lte(path string, v any) Filter { return field(path, opLte, normalize(v)) }

// In matches documents whose value at path equals any of vs. With an
// all-scalar value list the membership test is a hash probe, so a
// large list (e.g. the accepted-RFQ ids of the open-requests indexed
// difference) costs O(1) per candidate document, not O(len(vs)).
func In(path string, vs ...any) Filter {
	norm := make([]any, len(vs))
	set := make(map[string]struct{}, len(vs))
	for i, v := range vs {
		norm[i] = normalize(v)
		if set != nil {
			if f, isF := norm[i].(float64); isF && f != f {
				// NaN equals nothing under valuesEqual (and indexKey
				// would happily render it); leaving it out of the set
				// is exact.
				continue
			}
			if k, ok := indexKey(norm[i]); ok {
				set[k] = struct{}{}
			} else {
				set = nil // non-scalar member: fall back to the linear scan
			}
		}
	}
	f := field(path, opIn, nil)
	f.list, f.inSet = norm, set
	return f
}

// Exists matches documents that have (or lack) any value at path.
func Exists(path string, want bool) Filter {
	return field(path, opExists, want)
}

// Contains matches documents whose array at path contains element v.
// It is Eq restricted to arrays; on non-arrays it never matches.
func Contains(path string, v any) Filter {
	return field(path, opContains, normalize(v))
}

// ContainsAll matches arrays containing every one of vs.
func ContainsAll(path string, vs ...any) Filter {
	norm := make([]any, len(vs))
	for i, v := range vs {
		norm[i] = normalize(v)
	}
	f := field(path, opContainsAll, nil)
	f.list = norm
	return f
}

// Regex matches string values against the pattern. Compilation errors
// yield a filter that never matches.
func Regex(path, pattern string) Filter {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return field(path, opNever, nil)
	}
	f := field(path, opRegex, nil)
	f.re = re
	return f
}

// And matches documents satisfying every sub-filter.
func And(fs ...Filter) Filter { return andFilter(fs) }

// Or matches documents satisfying at least one sub-filter.
func Or(fs ...Filter) Filter { return orFilter(fs) }

// Not inverts a filter.
func Not(f Filter) Filter { return notFilter{f} }

// All matches every document.
func All() Filter { return allFilter{} }

type fieldOp int

const (
	opEq fieldOp = iota
	opNe
	opGt
	opGte
	opLt
	opLte
	opIn
	opExists
	opContains
	opContainsAll
	opRegex
	opNever
)

type fieldFilter struct {
	path string
	// split is path split once, when the filter is built: Matches
	// walks it on every document.
	split indexPath
	op    fieldOp
	arg   any
	list  []any
	// inSet is the hash form of an all-scalar In list (nil otherwise):
	// membership keyed by indexKey, which equates values exactly like
	// valuesEqual does for scalars.
	inSet map[string]struct{}
	re    *regexp.Regexp
}

func field(path string, op fieldOp, arg any) *fieldFilter {
	return &fieldFilter{path: path, split: splitPath(path), op: op, arg: arg}
}

// Matches walks the path through doc and stops at the first value that
// decides the answer.
func (f *fieldFilter) Matches(doc map[string]any) bool {
	switch f.op {
	case opExists:
		return f.split.some(doc, func(any) bool { return true }) == f.arg.(bool)
	case opNever:
		return false
	case opNe:
		return !f.split.some(doc, func(v any) bool { return valuesEqual(v, f.arg) })
	}
	return f.split.some(doc, f.matchOne)
}

func (f *fieldFilter) matchOne(v any) bool {
	switch f.op {
	case opEq:
		if valuesEqual(v, f.arg) {
			return true
		}
		if arr, ok := v.([]any); ok {
			for _, e := range arr {
				if valuesEqual(e, f.arg) {
					return true
				}
			}
		}
		return false
	case opGt, opGte, opLt, opLte:
		cmp, ok := compareValues(v, f.arg)
		if !ok {
			return false
		}
		switch f.op {
		case opGt:
			return cmp > 0
		case opGte:
			return cmp >= 0
		case opLt:
			return cmp < 0
		default:
			return cmp <= 0
		}
	case opIn:
		if f.inSet != nil {
			// A non-scalar document value can never equal a scalar
			// list member, so missing the key map is a definitive no.
			if k, ok := indexKey(v); ok {
				_, hit := f.inSet[k]
				return hit
			}
			return false
		}
		for _, e := range f.list {
			if valuesEqual(v, e) {
				return true
			}
		}
		return false
	case opContains:
		arr, ok := v.([]any)
		if !ok {
			return false
		}
		for _, e := range arr {
			if valuesEqual(e, f.arg) {
				return true
			}
		}
		return false
	case opContainsAll:
		arr, ok := v.([]any)
		if !ok {
			return false
		}
		for _, want := range f.list {
			foundOne := false
			for _, e := range arr {
				if valuesEqual(e, want) {
					foundOne = true
					break
				}
			}
			if !foundOne {
				return false
			}
		}
		return true
	case opRegex:
		s, ok := v.(string)
		return ok && f.re.MatchString(s)
	}
	return false
}

type andFilter []Filter

func (fs andFilter) Matches(doc map[string]any) bool {
	for _, f := range fs {
		if !f.Matches(doc) {
			return false
		}
	}
	return true
}

type orFilter []Filter

func (fs orFilter) Matches(doc map[string]any) bool {
	for _, f := range fs {
		if f.Matches(doc) {
			return true
		}
	}
	return false
}

type notFilter struct{ f Filter }

func (n notFilter) Matches(doc map[string]any) bool { return !n.f.Matches(doc) }

type allFilter struct{}

func (allFilter) Matches(map[string]any) bool { return true }

// Introspection ------------------------------------------------------
//
// Analyze converts any filter built from this package's constructors
// into a structural tree the query planner (planner.go) can reason
// about. It replaces the old approach of type-sniffing concrete filter
// types at the call sites: every consumer that needs to know what a
// filter *is* — rather than merely what it matches — goes through the
// Node view.

// NodeKind classifies one node of an analyzed filter tree.
type NodeKind int

const (
	// KindField is a leaf testing one dot path against an operator.
	KindField NodeKind = iota
	// KindAnd / KindOr / KindNot are the boolean combinators.
	KindAnd
	KindOr
	KindNot
	// KindAll matches every document (All(), or a nil filter).
	KindAll
	// KindOpaque is a foreign Filter implementation: only Matches is
	// known, so the planner must fall back to a full scan.
	KindOpaque
)

// Field-node operator names reported by Analyze.
const (
	OpEq          = "eq"
	OpNe          = "ne"
	OpGt          = "gt"
	OpGte         = "gte"
	OpLt          = "lt"
	OpLte         = "lte"
	OpIn          = "in"
	OpExists      = "exists"
	OpContains    = "contains"
	OpContainsAll = "contains-all"
	OpRegex       = "regex"
	OpNever       = "never"
)

var fieldOpNames = map[fieldOp]string{
	opEq: OpEq, opNe: OpNe, opGt: OpGt, opGte: OpGte, opLt: OpLt,
	opLte: OpLte, opIn: OpIn, opExists: OpExists, opContains: OpContains,
	opContainsAll: OpContainsAll, opRegex: OpRegex, opNever: OpNever,
}

// Node is the introspectable view of one filter-tree node. Field nodes
// carry the tested path, the operator name, and the (normalized)
// argument; combinator nodes carry their children. Arg and List alias
// the filter's own storage and must not be mutated.
type Node struct {
	Kind     NodeKind
	Path     string // KindField: the tested dot path
	Op       string // KindField: one of the Op* operator names
	Arg      any    // KindField: scalar argument (eq, gt, ..., exists)
	List     []any  // KindField: list argument (in, contains-all)
	Children []Node // KindAnd / KindOr / KindNot
}

// Analyze returns the structural tree of a filter. A nil filter
// analyzes as KindAll (match everything), mirroring Find's treatment.
func Analyze(f Filter) Node {
	switch x := f.(type) {
	case nil:
		return Node{Kind: KindAll}
	case *fieldFilter:
		return Node{Kind: KindField, Path: x.path, Op: fieldOpNames[x.op], Arg: x.arg, List: x.list}
	case andFilter:
		children := make([]Node, len(x))
		for i, sub := range x {
			children[i] = Analyze(sub)
		}
		return Node{Kind: KindAnd, Children: children}
	case orFilter:
		children := make([]Node, len(x))
		for i, sub := range x {
			children[i] = Analyze(sub)
		}
		return Node{Kind: KindOr, Children: children}
	case notFilter:
		return Node{Kind: KindNot, Children: []Node{Analyze(x.f)}}
	case allFilter:
		return Node{Kind: KindAll}
	}
	return Node{Kind: KindOpaque}
}

// normalize converts ints to float64 so filters compare like JSON,
// and folds negative zero into +0 so hash keys (indexKey) equate
// values exactly like float equality does.
func normalize(v any) any {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float32:
		return float64(x)
	case float64:
		if x == 0 {
			return float64(0)
		}
		return v
	default:
		return v
	}
}

// valuesEqual is the filters' equality. Objects and arrays compare
// structurally (sameValue): == on two of them would panic.
func valuesEqual(a, b any) bool {
	a, b = normalize(a), normalize(b)
	switch x := a.(type) {
	case float64:
		bf, bok := b.(float64)
		return bok && x == bf
	case map[string]any, []any:
		return sameValue(a, b)
	}
	return a == b
}

// compareValues orders two scalars of the same kind. It reports the
// sign and whether the pair is comparable.
func compareValues(a, b any) (int, bool) {
	a, b = normalize(a), normalize(b)
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		if !ok {
			return 0, false
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		default:
			return 0, true
		}
	case string:
		y, ok := b.(string)
		if !ok {
			return 0, false
		}
		return strings.Compare(x, y), true
	}
	return 0, false
}
