package discovery

import (
	"github.com/fastofd/fastofd/internal/core"
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
// code, packed into one uint64 map key — O(|members|) per node regardless
// of climb height, with no string keys. A parent answered by the oracle
// has no labels; its children fall back to the root and regroup once per
// column of Y \ X₀, each pass taking the previous pass's labels as its
// parent labels (grouping by a label and k codes is k one-column steps).
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

	packed map[uint64]int32   // regroup: (parent label, code) → group, reused
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
	rel := rf.v.Relation()
	lab := make([]int32, len(rf.members))
	var ngroups int32
	for _, c := range y.Minus(parent).Attrs() {
		ngroups = rf.regroupPacked(rel.Column(c), plab, lab)
		plab = lab
	}
	rf.labels[y] = lab
	for len(rf.vals) < int(ngroups) {
		rf.vals = append(rf.vals, nil)
	}
	for g := range rf.vals[:ngroups] {
		rf.vals[g] = rf.vals[g][:0]
	}
	col := rel.Column(rf.rhs)
	for i, t := range rf.members {
		g, val := lab[i], col.At(int(t))
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
	for g := int32(0); g < ngroups; g++ {
		if len(rf.vals[g]) > 1 && !rf.v.ValuesSatisfied(rf.rhs, rf.vals[g]) {
			return false
		}
	}
	return true
}

// regroupPacked labels each member by (parent label, code in col), packing
// the pair into one uint64 key, and returns the group count. It reads
// plab[i] before it writes lab[i], so plab and lab may be the same slice.
func (rf *rootRefiner) regroupPacked(col *relation.Col, plab, lab []int32) int32 {
	if rf.packed == nil {
		rf.packed = make(map[uint64]int32, 16)
	}
	clear(rf.packed)
	ngroups := int32(0)
	for i, t := range rf.members {
		key := uint64(uint32(plab[i]))<<32 | uint64(uint32(col.At(int(t))))
		g, ok := rf.packed[key]
		if !ok {
			g = ngroups
			ngroups++
			rf.packed[key] = g
		}
		lab[i] = g
	}
	return ngroups
}
