package discovery

import (
	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// rootRefiner answers BFS climb verifications above one demoted cover
// element X₀ → A from the element's tracked class state instead of a
// partition product. Refining an equivalence partition preserves
// per-class satisfaction — the same monotonicity that makes validity
// upward-closed — so for a climb node Y ⊇ X₀ every satisfied class of
// Π*_{X₀} splits into satisfied pieces under Y, and only X₀'s
// unsatisfied classes can contribute a violating class to Π*_Y:
//
//	Y → A is valid ⇔ splitting each unsatisfied class of X₀ by the
//	columns Y \ X₀ leaves every piece satisfied.
//
// The unsatisfied classes are exactly what the cover tracker already
// maintains (a demotion IS unsat > 0), and in an update stream they are
// the handful of classes the batch corrupted — the entire climb above a
// demotion runs off a few hundred tuples of tracked state where a
// partition walk pays a product over all n rows.
//
// Refinement is itself incremental along the climb: each verified node
// memoizes its per-member group labels, and a child (its parent plus
// one attribute) regroups by the parent's label plus that one column's
// value — O(|members|) per node regardless of climb height, instead of
// re-encoding every column of Y \ X₀. A parent answered by the oracle
// has no labels; its children fall back to grouping from the root.
//
// Verdicts are byte-identical to HoldsSynOnePass: groups with one
// distinct consequent value satisfy trivially (the FD fast path), and
// multi-value groups run the same common-sense test HoldsSynOnePass
// runs per class (ValuesSatisfied degrades to syntactic equality on
// ontology-uncovered consequents in both). A refiner is private to its
// repairer task; nothing here is safe for concurrent use.
type rootRefiner struct {
	v       *core.Verifier
	rhs     int
	root    relation.AttrSet
	members []int32                      // rows of X₀'s unsatisfied classes, class-major
	labels  map[relation.AttrSet][]int32 // node → group label per member (root holds the base)

	keyBuf []byte
	groups map[string]int32
	vals   [][]relation.Value // distinct consequent values per group, reused
}

// newRootRefiner snapshots the tracker's unsatisfied classes (post-batch
// state). One O(n) sweep of the row-class table per demoted root,
// amortized over every climb node verified above it.
func newRootRefiner(v *core.Verifier, ct *coverTracker) *rootRefiner {
	rf := &rootRefiner{
		v: v, rhs: ct.d.RHS, root: ct.d.LHS,
		labels: make(map[relation.AttrSet][]int32),
	}
	slot := make(map[int32]int32, ct.unsat)
	next := int32(0)
	for ci, ok := range ct.sat {
		if !ok {
			slot[int32(ci)] = next
			next++
		}
	}
	var base []int32
	for t, ci := range ct.rowClass {
		if ci >= 0 {
			if s, ok := slot[ci]; ok {
				rf.members = append(rf.members, int32(t))
				base = append(base, s)
			}
		}
	}
	rf.labels[rf.root] = base
	return rf
}

// holds verifies y → rhs for a climb node y reached from parent ⊋ root
// (or from the root itself). Base labels separate the root's unsatisfied
// classes, so groups never merge across classes; labels are memoized for
// valid AND invalid nodes — invalid nodes re-enter the frontier and
// their children refine from them.
func (rf *rootRefiner) holds(y, parent relation.AttrSet) bool {
	plab, ok := rf.labels[parent]
	if !ok {
		parent, plab = rf.root, rf.labels[rf.root]
	}
	cols := y.Minus(parent).Attrs()
	rel := rf.v.Relation()
	col := rel.Column(rf.rhs)
	if rf.groups == nil {
		rf.groups = make(map[string]int32, 16)
	}
	for k := range rf.groups {
		delete(rf.groups, k)
	}
	lab := make([]int32, len(rf.members))
	ngroups := int32(0)
	for i, t := range rf.members {
		rf.keyBuf = live.EncodeKey(rel, cols, int(t), rf.keyBuf)
		pl := plab[i]
		rf.keyBuf = append(rf.keyBuf, byte(pl), byte(pl>>8), byte(pl>>16), byte(pl>>24))
		g, ok := rf.groups[string(rf.keyBuf)]
		if !ok {
			g = ngroups
			ngroups++
			if int(g) == len(rf.vals) {
				rf.vals = append(rf.vals, nil)
			}
			rf.vals[g] = rf.vals[g][:0]
			rf.groups[string(rf.keyBuf)] = g
		}
		lab[i] = g
		val := col.At(int(t))
		dup := false
		for _, seen := range rf.vals[g] {
			if seen == val {
				dup = true
				break
			}
		}
		if !dup {
			rf.vals[g] = append(rf.vals[g], val)
		}
	}
	rf.labels[y] = lab
	for g := int32(0); g < ngroups; g++ {
		if len(rf.vals[g]) > 1 && !rf.v.ValuesSatisfied(rf.rhs, rf.vals[g]) {
			return false
		}
	}
	return true
}
