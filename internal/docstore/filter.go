package docstore

import "strings"

// Filter matches documents. Filters compose with And and Not; leaf
// filters test one dot-path against a value or operator.
type Filter interface {
	Matches(doc map[string]any) bool
}

// Eq matches documents whose value at path equals v. If the value at
// path is an array, any element equal to v matches (Mongo semantics).
func Eq(path string, v any) Filter { return field(path, opEq, normalize(v)) }

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
	set := make(map[ordValue]struct{}, len(vs))
	for i, v := range vs {
		norm[i] = normalize(v)
		if set != nil {
			if f, isF := norm[i].(float64); isF && f != f {
				// NaN equals nothing under valuesEqual (and ordValueOf
				// would happily file it); leaving it out of the set is
				// exact.
				continue
			}
			if k, ok := ordValueOf(norm[i]); ok {
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

// Contains matches documents whose array at path contains element v.
// It is Eq restricted to arrays; on non-arrays it never matches.
func Contains(path string, v any) Filter {
	return field(path, opContains, normalize(v))
}

// And matches documents satisfying every sub-filter.
func And(fs ...Filter) Filter { return andFilter(fs) }

// Not inverts a filter.
func Not(f Filter) Filter { return notFilter{f} }

type fieldOp int

const (
	opEq fieldOp = iota
	opGte
	opLt
	opLte
	opIn
	opContains
)

// name is the operator as Explain renders it.
func (op fieldOp) name() string {
	return [...]string{opEq: "eq", opGte: "gte", opLt: "lt", opLte: "lte", opIn: "in", opContains: "contains"}[op]
}

// comparison reports the operators an ordered index answers as a range.
func (op fieldOp) comparison() bool { return op == opGte || op == opLt || op == opLte }

type fieldFilter struct {
	path string
	// split is path split once, when the filter is built: Matches
	// walks it on every document.
	split indexPath
	op    fieldOp
	arg   any
	list  []any
	// inSet is the hash form of an all-scalar In list (nil otherwise):
	// membership keyed by ordValueOf, which equates values exactly like
	// valuesEqual does for scalars.
	inSet map[ordValue]struct{}
}

func field(path string, op fieldOp, arg any) *fieldFilter {
	return &fieldFilter{path: path, split: splitPath(path), op: op, arg: arg}
}

// Matches walks the path through doc and stops at the first value that
// decides the answer.
func (f *fieldFilter) Matches(doc map[string]any) bool {
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
	case opGte, opLt, opLte:
		cmp, ok := compareValues(v, f.arg)
		if !ok {
			return false
		}
		switch f.op {
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
			if k, ok := ordValueOf(v); ok {
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

type notFilter struct{ f Filter }

func (n notFilter) Matches(doc map[string]any) bool { return !n.f.Matches(doc) }

// normalize converts ints to float64 so filters compare like JSON,
// and folds negative zero into +0 so index keys (ordValueOf) equate
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
