package docstore

import (
	"fmt"
	"sort"
	"strings"

	"smartchaindb/internal/obs"
)

// The query planner compiles a filter tree (via Analyze) into an
// access plan: which secondary indexes can produce a candidate key
// set, and how their answers combine. Executed plans resolve
// candidates through the indexes' own locks plus shard-locked point
// reads — never the collection lock — so every planned read stays off
// the commit writer's critical section. Only filters no index can
// answer fall back to the full collection scan.
//
// Plan shapes:
//
//	point      an equality-class probe (Eq, Contains, In) on any index
//	range      an ordered-index scan for Gt/Gte/Lt/Lte, confined to the
//	           bound's comparison class (numbers or strings)
//	intersect  an AND of indexable children: the lowest-estimate child
//	           drives (its candidates are materialized) and the others
//	           shrink the set, by O(1) index probes where possible
//	union      an OR whose branches are all indexable
//	none       a provably empty result (Never, In with no values,
//	           comparisons against non-comparable arguments)
//	full-scan  the fallback: scan under the collection read lock
//
// Candidate sets are supersets of the matching documents (multikey
// indexes fan arrays out), so executors always re-apply the full
// filter to each fetched document; correctness never depends on the
// plan, only performance does. Notably, comparisons on one path are
// NOT merged into a single bounded scan: with multikey values,
// Gte(p,5) AND Lte(p,10) matches a document whose values are {3, 20},
// which no [5,10] scan would surface — each comparison materializes
// its own candidates and the intersection keeps the superset property.

// AccessKind classifies one node of a compiled access plan.
type AccessKind int

const (
	// AccessFullScan scans the whole collection under its read lock.
	AccessFullScan AccessKind = iota
	// AccessNone yields no candidates: the filter probably cannot
	// match any document (Never, empty In, class-mismatched range).
	AccessNone
	// AccessPoint probes an index for equality-class candidates.
	AccessPoint
	// AccessRange walks an ordered index between comparison bounds.
	AccessRange
	// AccessIntersect combines indexable AND-conjuncts.
	AccessIntersect
	// AccessUnion combines indexable OR-branches.
	AccessUnion
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
	case AccessIntersect:
		return "intersect"
	case AccessUnion:
		return "union"
	}
	return "invalid"
}

// Access is one node of a compiled access plan. Est is the planner's
// selectivity estimate from index cardinalities — for an intersect it
// is the driving (smallest) child's estimate, and children are ordered
// ascending by estimate, so Children[0] is always the driving index.
type Access struct {
	Kind     AccessKind
	Path     string    // leaf: the indexed dot path
	Op       string    // leaf: the operator (OpEq, OpIn, OpGt, ...)
	Detail   string    // leaf: rendered argument or range bounds
	Reason   string    // AccessFullScan: why the planner gave up
	Est      int       // estimated candidate count
	Children []*Access // intersect / union members

	materialize func(h int64) []string            // leaves: produce candidates as of height h
	probe       func(docKey string, h int64) bool // nil when not probe-capable
	// distinct reports that materialize never yields a key twice: a
	// one-key point probe (a value holds one posting per document), an
	// intersect (its driving set is deduplicated) and none. Ranges,
	// unions and many-key points may repeat a multikey document.
	distinct bool
}

// FullScan reports whether executing this plan takes the collection
// lock. Composite plans never contain a full-scan child (the planner
// prunes AND-conjuncts and refuses OR-branches), so the root decides.
func (a *Access) FullScan() bool { return a.Kind == AccessFullScan }

// String renders the plan for Explain output and test assertions.
func (a *Access) String() string {
	switch a.Kind {
	case AccessFullScan:
		return fmt.Sprintf("full-scan(%s)", a.Reason)
	case AccessNone:
		return "none"
	case AccessPoint:
		return fmt.Sprintf("point(%s %s %s)[%d]", a.Path, a.Op, a.Detail, a.Est)
	case AccessRange:
		return fmt.Sprintf("range(%s %s)[%d]", a.Path, a.Detail, a.Est)
	case AccessIntersect, AccessUnion:
		name := "intersect"
		if a.Kind == AccessUnion {
			name = "union"
		}
		parts := make([]string, len(a.Children))
		for i, ch := range a.Children {
			parts[i] = ch.String()
		}
		return fmt.Sprintf("%s[%d](%s)", name, a.Est, strings.Join(parts, ", "))
	}
	return "invalid"
}

// Plan compiles filter against the collection's current indexes. The
// index handle map is copy-on-write (an atomic pointer swap per
// CreateIndex), so compilation takes no lock at all; estimation runs
// under the indexes' own locks — unless the prepared-plan cache holds
// an estimate tape for this filter shape at the current index epoch,
// in which case the compile replays the taped estimates and touches no
// index lock at all (see plancache.go). The plan is a point-in-time
// compilation: it does not follow later CreateIndex calls, and its
// materialize/probe closures answer for whatever height the executor
// passes, so one plan serves the writer view and snapshot reads alike.
func (c *Collection) Plan(f Filter) *Access {
	p := planner{idx: c.indexMap(), probes: c.obs().indexProbes}
	n := Analyze(f)
	sc := shapeScratchPool.Get().(*shapeScratch)
	key, paths := appendShape(sc.key[:0], sc.paths[:0], n)
	stamp := c.plans.epochOf(paths)
	ob := c.obs()
	if vals, hit := c.plans.get(key, stamp); hit {
		ob.planCacheHits.Inc()
		p.tape = &estTape{vals: vals, replay: true}
		a := p.compile(n)
		sc.key, sc.paths = key, paths
		shapeScratchPool.Put(sc)
		return a
	}
	ob.planCacheMisses.Inc()
	p.tape = &estTape{}
	a := p.compile(n)
	c.plans.put(key, paths, stamp, p.tape.vals)
	sc.key, sc.paths = key, paths
	shapeScratchPool.Put(sc)
	return a
}

// Explain renders the access plan with live selectivity estimates —
// the planner's debugging and test surface. A plan containing
// "full-scan" takes the collection lock; anything else resolves
// entirely through index and shard locks.
//
// Explain deliberately bypasses tape replay. The prepared-plan cache
// keys on filter *shape*, so a cached tape may carry estimates
// recorded from a different argument of the same shape
// (Eq("operation", "BID") and Eq("operation", "ACCEPT_BID") share one
// entry), and replaying those numbers would make Explain's output
// depend on which argument happened to compile first. Explain instead
// compiles fresh — estimates are a pure function of the data — and
// stores the resulting tape, so it doubles as a cache refresher. The
// hot path (Find and friends, via Plan) keeps the lock-free replay: a
// replayed intersect may drive in a different order than Explain
// reports, but its closures bind the current arguments, so the result
// set never differs.
func (c *Collection) Explain(f Filter) string {
	n := Analyze(f)
	p := planner{idx: c.indexMap(), probes: c.obs().indexProbes, tape: &estTape{}}
	sc := shapeScratchPool.Get().(*shapeScratch)
	key, paths := appendShape(sc.key[:0], sc.paths[:0], n)
	stamp := c.plans.epochOf(paths)
	a := p.compile(n)
	c.plans.put(key, paths, stamp, p.tape.vals)
	sc.key, sc.paths = key, paths
	shapeScratchPool.Put(sc)
	return a.String()
}

type planner struct {
	idx map[string]secondaryIndex
	// probes counts executed index lookups and membership probes
	// (docstore.index_probes); nil is a no-op handle.
	probes *obs.Counter
	// tape records or replays leaf selectivity estimates for the
	// prepared-plan cache; nil computes them directly.
	tape *estTape
}

func fullScan(reason string) *Access { return &Access{Kind: AccessFullScan, Reason: reason} }

func noneAccess() *Access {
	a := &Access{Kind: AccessNone, distinct: true}
	a.materialize = func(int64) []string { return nil }
	a.probe = func(string, int64) bool { return false }
	return a
}

func (p planner) compile(n Node) *Access {
	switch n.Kind {
	case KindField:
		return p.compileField(n)
	case KindAnd:
		return p.compileAnd(n.Children)
	case KindOr:
		return p.compileOr(n.Children)
	case KindAll:
		return fullScan("match-all")
	case KindNot:
		return fullScan("negation")
	}
	return fullScan("opaque filter")
}

func (p planner) compileField(n Node) *Access {
	if n.Op == OpNever {
		return noneAccess()
	}
	ix, indexed := p.idx[n.Path]
	if !indexed {
		// Comparisons against non-comparable arguments match nothing
		// regardless of any index: compareValues only relates numbers
		// to numbers and strings to strings.
		if isComparison(n.Op) && !comparableArg(n.Arg) {
			return noneAccess()
		}
		if n.Op == OpIn && len(n.List) == 0 {
			return noneAccess()
		}
		return fullScan(fmt.Sprintf("no index on %q", n.Path))
	}
	switch n.Op {
	case OpEq, OpContains:
		k, ok := indexKey(n.Arg)
		if !ok {
			return fullScan(fmt.Sprintf("non-scalar %s argument on %q", n.Op, n.Path))
		}
		return p.pointAccess(ix, n.Path, n.Op, renderArg(n.Arg), []string{k})
	case OpIn:
		if len(n.List) == 0 {
			return noneAccess()
		}
		keys := make([]string, len(n.List))
		for i, arg := range n.List {
			k, ok := indexKey(arg)
			if !ok {
				return fullScan(fmt.Sprintf("non-scalar in argument on %q", n.Path))
			}
			keys[i] = k
		}
		return p.pointAccess(ix, n.Path, n.Op, fmt.Sprintf("%d values", len(n.List)), keys)
	case OpGt, OpGte, OpLt, OpLte:
		return p.rangeAccess(ix, n)
	case OpContainsAll:
		// Candidates must hold every element, so the point probes
		// intersect — a superset even for elements spread across
		// distinct arrays of a multikey path (the residual filter
		// rejects those).
		if len(n.List) == 0 {
			return fullScan(fmt.Sprintf("contains-all without values on %q", n.Path))
		}
		children := make([]*Access, 0, len(n.List))
		for _, arg := range n.List {
			k, ok := indexKey(arg)
			if !ok {
				return fullScan(fmt.Sprintf("non-scalar contains-all argument on %q", n.Path))
			}
			children = append(children, p.pointAccess(ix, n.Path, OpContains, renderArg(arg), []string{k}))
		}
		return intersectAccess(children)
	}
	return fullScan(fmt.Sprintf("index on %q cannot answer %s", n.Path, n.Op))
}

// pointAccess builds an equality-class leaf over the index keys of one
// or more probe arguments (one for Eq/Contains, the list for In),
// rendered once by the caller for every probe the plan makes.
func (p planner) pointAccess(ix secondaryIndex, path, op, detail string, keys []string) *Access {
	est := p.tape.est(func() int {
		sum := 0
		for _, k := range keys {
			sum += ix.estimateEq(k)
		}
		return sum
	})
	probes := p.probes
	a := &Access{Kind: AccessPoint, Path: path, Op: op, Detail: detail, Est: est, distinct: len(keys) == 1}
	a.materialize = func(h int64) []string {
		probes.Add(uint64(len(keys)))
		if len(keys) == 1 {
			return ix.lookupEq(keys[0], h)
		}
		var out []string
		for _, k := range keys {
			out = append(out, ix.lookupEq(k, h)...)
		}
		return out
	}
	a.probe = func(docKey string, h int64) bool {
		probes.Inc()
		for _, k := range keys {
			if ix.containsDoc(k, docKey, h) {
				return true
			}
		}
		return false
	}
	return a
}

func (p planner) rangeAccess(ix secondaryIndex, n Node) *Access {
	ov, ok := ordValueOf(n.Arg)
	if !ok || (ov.class != ordClassNumber && ov.class != ordClassString) {
		// The comparison can never hold (wrong class), whatever the
		// index could answer.
		return noneAccess()
	}
	ord, isOrdered := ix.(*orderedIndex)
	if !isOrdered {
		return fullScan(fmt.Sprintf("hash index on %q cannot answer %s", n.Path, n.Op))
	}
	r := ordRange{class: ov.class}
	switch n.Op {
	case OpGt:
		r.lo, r.hasLo, r.loStrict = ov, true, true
	case OpGte:
		r.lo, r.hasLo = ov, true
	case OpLt:
		r.hi, r.hasHi, r.hiStrict = ov, true, true
	case OpLte:
		r.hi, r.hasHi = ov, true
	}
	a := &Access{Kind: AccessRange, Path: n.Path, Op: n.Op, Detail: r.String(), Est: p.tape.est(func() int { return ord.estimateRange(r) })}
	a.materialize = func(h int64) []string { return ord.lookupRange(r, h) }
	return a
}

func (p planner) compileAnd(children []Node) *Access {
	indexable := make([]*Access, 0, len(children))
	for _, ch := range children {
		a := p.compile(ch)
		switch a.Kind {
		case AccessNone:
			// One impossible conjunct empties the whole AND.
			return a
		case AccessFullScan:
			// Unindexable conjuncts are pruned: the residual filter
			// re-checks them on every candidate anyway.
			continue
		default:
			indexable = append(indexable, a)
		}
	}
	if len(indexable) == 0 {
		return fullScan("no indexed conjunct")
	}
	return intersectAccess(indexable)
}

func intersectAccess(children []*Access) *Access {
	if len(children) == 1 {
		return children[0]
	}
	// Ascending estimate: the smallest (driving) index materializes,
	// the rest only shrink its candidates.
	sort.SliceStable(children, func(i, j int) bool { return children[i].Est < children[j].Est })
	drive := children[0]
	a := &Access{Kind: AccessIntersect, Est: drive.Est, Children: children, distinct: true}
	a.materialize = func(h int64) []string {
		keys := drive.materialize(h)
		if !drive.distinct {
			keys = dedupKeys(keys)
		}
		for _, ch := range children[1:] {
			if len(keys) == 0 {
				return nil
			}
			probe := ch.probe
			if probe == nil {
				// A probe-less child (a range) intersects by
				// materializing its whole candidate set. When that set
				// dwarfs the driving one — a half-bounded comparison
				// like Gte(amount, 0) covers most of the collection —
				// building it costs more than letting the residual
				// filter reject the few extra candidates, so skip it:
				// the result stays a superset either way.
				if ch.Est > 4*len(keys) {
					continue
				}
				set := make(map[string]struct{})
				for _, k := range ch.materialize(h) {
					set[k] = struct{}{}
				}
				probe = func(docKey string, _ int64) bool {
					_, ok := set[docKey]
					return ok
				}
			}
			kept := keys[:0]
			for _, k := range keys {
				if probe(k, h) {
					kept = append(kept, k)
				}
			}
			keys = kept
		}
		return keys
	}
	a.probe = composeProbes(children, true)
	return a
}

func (p planner) compileOr(children []Node) *Access {
	accesses := make([]*Access, 0, len(children))
	est := 0
	for _, ch := range children {
		a := p.compile(ch)
		switch a.Kind {
		case AccessNone:
			continue
		case AccessFullScan:
			// One unindexable branch may match documents no index
			// knows about: the whole OR must scan.
			return fullScan(fmt.Sprintf("unindexable or-branch: %s", a.Reason))
		}
		accesses = append(accesses, a)
		est += a.Est
	}
	if len(accesses) == 0 {
		return noneAccess()
	}
	if len(accesses) == 1 {
		return accesses[0]
	}
	a := &Access{Kind: AccessUnion, Est: est, Children: accesses}
	a.materialize = func(h int64) []string {
		var out []string
		for _, ch := range accesses {
			out = append(out, ch.materialize(h)...)
		}
		return out
	}
	a.probe = composeProbes(accesses, false)
	return a
}

// composeProbes builds a composite O(1) membership probe when every
// child supports one (ranges do not — they cannot answer "does this
// document hold a value in range" without the document).
func composeProbes(children []*Access, all bool) func(string, int64) bool {
	probes := make([]func(string, int64) bool, len(children))
	for i, ch := range children {
		if ch.probe == nil {
			return nil
		}
		probes[i] = ch.probe
	}
	return func(docKey string, h int64) bool {
		for _, pr := range probes {
			if pr(docKey, h) != all {
				return !all
			}
		}
		return all
	}
}

func isComparison(op string) bool {
	switch op {
	case OpGt, OpGte, OpLt, OpLte:
		return true
	}
	return false
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

func dedupKeys(keys []string) []string {
	seen := make(map[string]struct{}, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// resolveAccess executes a plan as of height h: the candidate keys
// and whether the plan avoided a full scan. Candidates may repeat
// (multikey unions); the sharded visit dedups.
func resolveAccess(a *Access, h int64) ([]string, bool) {
	if a.Kind == AccessFullScan {
		return nil, false
	}
	return a.materialize(h), true
}
