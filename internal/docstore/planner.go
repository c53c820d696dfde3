package docstore

import (
	"fmt"
	"slices"
)

// The query planner compiles a filter into an access plan by one
// rule: in an And (nested Ands flattened), the first conjunct in
// written order that an index can serve drives the read, and every
// other conjunct is left to the residual filter that re-checks each
// fetched document. A bare leaf is an And of one. So a reader's filter
// is its access path: the conjunct whose index should drive is written
// first. Executed plans resolve candidates through the driving index's
// own lock plus lock-free point reads — never the collection lock — so
// every planned read stays off the commit writer's critical section.
// Only filters no index can serve fall back to the full collection
// scan.
//
// Plan shapes:
//
//	point      an equality-class probe on any index: Eq, Contains, In
//	           (one probe per value)
//	range      an ordered-index scan for Gte/Lt/Lte, narrowed by the
//	           sibling comparisons on its path while that path is
//	           single-valued, confined to the bound's comparison class
//	           (numbers or strings)
//	none       a provably empty result (In with no values, comparisons
//	           against non-comparable arguments, an And holding one of
//	           them)
//	full-scan  Not, and an And with no servable conjunct: scan under
//	           the collection read lock
//
// Candidate sets are supersets of the matching documents (multikey
// indexes fan arrays out), so executors always re-apply the full
// filter to each fetched document; correctness never depends on the
// plan, only performance does. Two rules keep candidate sets
// supersets:
//
//   - A partial index (CreateIndexWhere) holds only the documents its
//     predicate matches, so it serves a filter only when the filter's
//     top-level And contains that predicate as an Eq; every other
//     filter plans as if the path had no index.
//   - Comparisons on one path merge into a single bounded range only
//     while the path is single-valued (orderedIndex.multikey unset).
//     On a multikey path they are NOT merged: Gte(p,5) AND Lte(p,10)
//     matches a document whose values are {3, 20}, which no [5,10]
//     scan would surface — the driving comparison alone bounds the
//     walk and the others are residual.

// AccessKind classifies a compiled access plan.
type AccessKind int

const (
	// AccessFullScan scans the whole collection under its read lock.
	AccessFullScan AccessKind = iota
	// AccessNone yields no candidates: the filter provably cannot
	// match any document (empty In, class-mismatched range).
	AccessNone
	// AccessPoint probes an index for equality-class candidates.
	AccessPoint
	// AccessRange walks an ordered index between comparison bounds.
	AccessRange
)

// metricName returns the kind's obs counter suffix
// (docstore.plan.<name>).
func (k AccessKind) metricName() string {
	switch k {
	case AccessFullScan:
		return "full_scan"
	case AccessNone:
		return "none"
	case AccessPoint:
		return "point"
	case AccessRange:
		return "range"
	}
	return "invalid"
}

// Access is a compiled access plan: the one index a read drives on and
// what it asks of it, or why the read cannot use an index.
type Access struct {
	Kind   AccessKind
	Path   string // point / range: the indexed dot path
	Op     string // point: the operator ("eq", "in" or "contains")
	Detail string // point / range: rendered argument or range bounds
	Reason string // AccessFullScan: why the planner gave up

	ix   secondaryIndex // point / range: the driving index
	keys []ordValue     // point: the values probed
	r    ordRange       // range: the band walked on ix, an *orderedIndex
}

// FullScan reports whether executing this plan takes the collection
// lock.
func (a *Access) FullScan() bool { return a.Kind == AccessFullScan }

// String renders the plan for Explain output and test assertions.
func (a *Access) String() string {
	switch a.Kind {
	case AccessFullScan:
		return fmt.Sprintf("full-scan(%s)", a.Reason)
	case AccessNone:
		return "none"
	case AccessPoint:
		return fmt.Sprintf("point(%s %s %s)", a.Path, a.Op, a.Detail)
	case AccessRange:
		return fmt.Sprintf("range(%s %s)", a.Path, a.Detail)
	}
	return "invalid"
}

// Plan compiles filter against the collection's current indexes. The
// index map is copy-on-write (an atomic pointer swap per CreateIndex),
// so compilation takes no lock at all. The plan is a point-in-time
// compilation: it does not follow later CreateIndex calls, and it
// answers for whatever height the executor passes, so one plan serves
// the writer view and snapshot reads alike.
func (c *Collection) Plan(f Filter) *Access {
	a, ob := planner{idx: c.indexMap(), root: f}.compile(), c.obs()
	ob.plans.Inc()
	if a.ix != nil && ob.indexUses != nil {
		ob.indexUses[a.Path].Inc()
	}
	return a
}

// Explain renders the access plan Plan compiles — the planner's
// debugging and test surface. A plan containing "full-scan" takes the
// collection lock; anything else resolves entirely through one index's
// own lock and lock-free point reads.
func (c *Collection) Explain(f Filter) string { return c.Plan(f).String() }

type planner struct {
	idx map[string]secondaryIndex
	// root is the filter being compiled, whose top-level conjuncts
	// decide which partial indexes may serve it and which comparisons
	// narrow a band.
	root Filter
}

// index returns the index the filter may use on path. A partial index
// serves only a filter that implies its predicate: for any other, the
// documents outside the predicate — which the filter may match — are
// not in it. Otherwise it reports why not.
func (p planner) index(path string) (secondaryIndex, string) {
	ix, ok := p.idx[path]
	if !ok {
		return nil, fmt.Sprintf("no index on %q", path)
	}
	if w := ix.partial(); w != nil && !implies(p.root, w) {
		return nil, fmt.Sprintf("partial index on %q needs %s == %s", path, w.path, renderArg(w.arg))
	}
	return ix, ""
}

// implies reports whether every document f matches also matches the
// predicate w, an Eq: f's top-level conjuncts include w.
func implies(f Filter, w *fieldFilter) bool {
	return firstConjunct(f, func(c *fieldFilter) bool {
		return c.op == opEq && c.path == w.path && valuesEqual(c.arg, w.arg)
	})
}

// firstConjunct calls fn on f's top-level field conjuncts (an And's
// children in written order, a nested And's flattened, or f itself)
// until it holds for one, and reports whether it did.
func firstConjunct(f Filter, fn func(*fieldFilter) bool) bool {
	switch x := f.(type) {
	case *fieldFilter:
		return fn(x)
	case andFilter:
		for _, ch := range x {
			if firstConjunct(ch, fn) {
				return true
			}
		}
	}
	return false
}

// empty reports a filter no document can match, whatever the indexes:
// compareValues relates numbers to numbers and strings to strings
// only, so a comparison against any other argument never holds.
func empty(f Filter) bool {
	switch x := f.(type) {
	case *fieldFilter:
		return (x.op == opIn && len(x.list) == 0) || (x.op.comparison() && !comparableArg(x.arg))
	case andFilter:
		return slices.ContainsFunc(x, empty)
	}
	return false
}

func fullScan(reason string) *Access { return &Access{Kind: AccessFullScan, Reason: reason} }

func (p planner) compile() *Access {
	if empty(p.root) {
		return &Access{Kind: AccessNone}
	}
	switch x := p.root.(type) {
	case *fieldFilter:
		a, why := p.serve(x)
		if a == nil {
			return fullScan(why)
		}
		return a
	case andFilter:
		var a *Access
		firstConjunct(p.root, func(c *fieldFilter) bool {
			a, _ = p.serve(c)
			return a != nil
		})
		if a == nil {
			return fullScan("no indexed conjunct")
		}
		return a
	case nil:
		return fullScan("match-all")
	case notFilter:
		return fullScan("negation")
	}
	return fullScan("opaque filter")
}

// serve compiles the conjunct c, which is not empty, onto the index
// that can answer it, or reports why none can.
func (p planner) serve(c *fieldFilter) (*Access, string) {
	ix, why := p.index(c.path)
	if ix == nil {
		return nil, why
	}
	point := func(detail string, args ...any) (*Access, string) {
		keys := make([]ordValue, len(args))
		for i, arg := range args {
			k, ok := ordValueOf(arg)
			if !ok {
				return nil, fmt.Sprintf("non-scalar %s argument on %q", c.op.name(), c.path)
			}
			keys[i] = k
		}
		return &Access{Kind: AccessPoint, Path: c.path, Op: c.op.name(), Detail: detail, ix: ix, keys: keys}, ""
	}
	switch c.op {
	case opEq, opContains:
		return point(renderArg(c.arg), c.arg)
	case opIn:
		return point(fmt.Sprintf("%d values", len(c.list)), c.list...)
	}
	ord, ok := ix.(*orderedIndex)
	if !ok {
		return nil, fmt.Sprintf("hash index on %q cannot answer %s", c.path, c.op.name())
	}
	return p.band(ord, c), ""
}

// band compiles the driving comparison c on ord into one range. While
// the path is single-valued, every comparison on it among the
// filter's top-level conjuncts narrows the range: with one value per
// document, Gte(p, 5) ∧ Lte(p, 10) holds exactly for the values in
// [5, 10], and comparisons of two classes hold for none. On a multikey
// path c alone bounds the walk.
func (p planner) band(ord *orderedIndex, c *fieldFilter) *Access {
	ov, _ := ordValueOf(c.arg)
	r := ordRange{class: ov.class()}
	r.narrow(c.op, ov)
	never := false
	if !ord.multikey.Load() {
		firstConjunct(p.root, func(s *fieldFilter) bool {
			if s.path == c.path && s.op.comparison() {
				if sv, _ := ordValueOf(s.arg); sv.class() != r.class {
					never = true
				} else {
					r.narrow(s.op, sv)
				}
			}
			return false
		})
	}
	if never || r.empty() {
		return &Access{Kind: AccessNone}
	}
	return &Access{Kind: AccessRange, Path: c.path, Detail: r.String(), ix: ord, r: r}
}

// candidates executes the plan as of height h: the keys of the
// documents it may match, a superset the caller re-checks. Keys may
// repeat (a multikey document under several probed values or inside
// one range); the planned visit (plannedVisitAt) dedups.
func (a *Access) candidates(h int64, ob collObs) []string {
	var out []string
	switch a.Kind {
	case AccessPoint:
		ob.indexProbes.Add(uint64(len(a.keys)))
		if len(a.keys) == 1 {
			out = a.ix.lookupEq(a.keys[0], h)
		} else {
			for _, k := range a.keys {
				out = append(out, a.ix.lookupEq(k, h)...)
			}
		}
	case AccessRange:
		out = a.ix.(*orderedIndex).lookupRange(a.r, h)
	}
	ob.candidates.Add(uint64(len(out)))
	return out
}

// comparableArg reports whether any document value can ever compare
// against arg (compareValues relates numbers and strings only).
func comparableArg(arg any) bool {
	switch normalize(arg).(type) {
	case float64, string:
		return true
	}
	return false
}

func renderArg(arg any) string {
	if s, ok := arg.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%v", arg)
}
