// Package a is the API audit's fixture: each declaration below draws
// one verdict, which TestAPIAuditVerdicts checks.
package a

import "container/heap"

// Used has a caller in cmd/app, and an allowlist entry that is stale.
func Used() {}

// Unused is called by a test file only: reported.
func Unused() {}

// unusedHelper is called by nothing: reported.
func unusedHelper() {}

// Kept has no caller and an allowlist entry naming an item: passes.
func Kept() {}

// Unproven has no caller and an allowlist entry naming neither an
// item nor a test: the entry is reported.
func Unproven() {}

// Ghost has no caller and an allowlist entry naming a test that does
// not exist: the entry is reported.
func Ghost() {}

// queue's methods are called by container/heap only, through
// heap.Interface: exempt.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Sorted returns xs in ascending order, off a heap.
func Sorted(xs []int) []int {
	q := queue(append([]int(nil), xs...))
	heap.Init(&q)
	out := make([]int, 0, len(xs))
	for q.Len() > 0 {
		out = append(out, heap.Pop(&q).(int))
	}
	return out
}

// shape is called through in Area.
type shape interface {
	area() int
	name() string
}

// core does not implement shape on its own: its area is reached only
// as square's, promoted by embedding.
type core struct{ side int }

func (c core) area() int { return c.side * c.side }

type square struct{ core }

func (square) name() string { return "square" }

// Area is a square's area, asked through shape.
func Area(side int) int {
	var s shape = square{core{side}}
	return s.area() + len(s.name()) - 6
}

// deadInterface's method is called by nothing: reported.
type deadInterface interface{ x() }

// node is sealed by its marker method, which nothing calls: exempt, as
// is leaf's.
type node interface{ nodeMark() }

type leaf struct{}

func (leaf) nodeMark() {}
