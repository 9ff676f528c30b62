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
// The unsatisfied classes are exactly the violating classes of the
// substrate's state of X₀ → A (a demotion IS a violating class), and in
// an update stream they are
// the handful of classes the batch corrupted — the entire climb above a
// demotion runs off a few hundred tuples of tracked state where a
// partition walk pays a product over all n rows.
//
// Refinement is itself incremental along the climb. A child (its parent
// plus one attribute) regroups the parent's groups by that one column's
// code, and it regroups only the members of the parent's unsatisfied
// groups: a satisfied group splits into satisfied pieces, exactly as at
// the root, so each verified node memoizes just its unsatisfied groups'
// members, relabeled densely, and the climb narrows as it rises. A
// regroup costs O(members + parent groups) and hashes nothing: parent
// labels are dense in [0, group count), so regroup counting-sorts the members by them and numbers each parent
// run's distinct codes through a slot array indexed by code+1, the
// dense-table idiom of relation.SingleColumnPartition. A parent answered
// by the oracle has no labels; its children fall back to the root and
// regroup once per column of Y \ X₀, each pass taking the previous
// pass's labels as its parent labels (grouping by a label and k codes is
// k one-column steps). Member codes are gathered once per column the
// refiner reads, so later nodes read them from one array and not by
// random Col.At calls.
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
	members []int32                       // rows of X₀'s unsatisfied classes, ascending
	labels  map[relation.AttrSet]labeling // node → its unsatisfied groups (root holds the base)
	codes   [][]relation.Value            // column → members' codes, gathered on first read

	// regroup scratch, reused across nodes.
	runs  []int32            // counting sort: end of each parent label's run
	order []int32            // member indices ordered by parent label
	slots []regroupSlot      // code+1 → group id within the current run
	gen   uint32             // current run generation; older stamps are stale
	vals  [][]relation.Value // distinct consequent values per group
	unsat []int32            // group → dense unsatisfied-group id, or -1
	lab   []int32            // the node's labels before they are narrowed
}

// regroupSlot is one code's group id in the parent run whose generation
// it is stamped with.
type regroupSlot struct {
	gen   uint32
	group int32
}

// labeling is one climb node's unsatisfied groups: lab[j] is the group
// of member idx[j] (an index into rootRefiner.members), dense in [0, n).
// A valid node has none.
type labeling struct {
	idx []int32
	lab []int32
	n   int32
}

// newRootRefiner snapshots the tracked state's violating classes
// (post-batch state). One O(n) sweep of the row-class table per demoted root,
// amortized over every climb node verified above it.
func newRootRefiner(v *core.Verifier, ct *coverTracker) *rootRefiner {
	rf := &rootRefiner{
		v: v, rhs: ct.d.RHS, root: ct.d.LHS,
		labels: make(map[relation.AttrSet]labeling),
		codes:  make([][]relation.Value, v.Relation().NumCols()),
	}
	tab := ct.st.Table()
	slot := make([]int32, len(tab.Sizes)) // class → dense unsatisfied id, or -1
	next := int32(0)
	for ci := range slot {
		slot[ci] = -1
		if ct.st.Violates(int32(ci)) {
			slot[ci] = next
			next++
		}
	}
	base := labeling{n: next}
	for t, ci := range tab.RowClass {
		if ci >= 0 && slot[ci] >= 0 {
			base.idx = append(base.idx, int32(len(rf.members)))
			base.lab = append(base.lab, slot[ci])
			rf.members = append(rf.members, int32(t))
		}
	}
	rf.labels[rf.root] = base
	return rf
}

// column returns the members' codes in column c, in member order.
func (rf *rootRefiner) column(c int) []relation.Value {
	if rf.codes[c] == nil {
		col := rf.v.Relation().Column(c)
		vs := make([]relation.Value, len(rf.members))
		for i, t := range rf.members {
			vs[i] = col.At(int(t))
		}
		rf.codes[c] = vs
	}
	return rf.codes[c]
}

// holds verifies y → rhs for a climb node y reached from parent ⊋ root
// (or from the root itself). Base labels separate the root's unsatisfied
// classes, so groups never merge across classes. Each node memoizes only
// the members of its unsatisfied groups: a satisfied group splits into
// satisfied pieces, so only the unsatisfied ones can make a child
// invalid — children regroup that subset.
func (rf *rootRefiner) holds(y, parent relation.AttrSet) bool {
	pl, ok := rf.labels[parent]
	if !ok {
		parent, pl = rf.root, rf.labels[rf.root]
	}
	lab := growInt32(rf.lab, len(pl.idx))
	rf.lab = lab
	n, plab := pl.n, pl.lab
	for _, c := range y.Minus(parent).Attrs() {
		n = rf.regroup(c, pl.idx, plab, n, lab)
		plab = lab
	}
	for len(rf.vals) < int(n) {
		rf.vals = append(rf.vals, nil)
	}
	for g := range rf.vals[:n] {
		rf.vals[g] = rf.vals[g][:0]
	}
	rhs := rf.column(rf.rhs)
	for j, i := range pl.idx {
		g, val := lab[j], rhs[i]
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
	unsat := growInt32(rf.unsat, int(n))
	rf.unsat = unsat
	nunsat := int32(0)
	for g := int32(0); g < n; g++ {
		unsat[g] = -1
		if len(rf.vals[g]) > 1 && !rf.v.ValuesSatisfied(rf.rhs, rf.vals[g]) {
			unsat[g] = nunsat
			nunsat++
		}
	}
	cur := labeling{n: nunsat}
	if nunsat > 0 {
		k := 0
		for _, g := range lab {
			if unsat[g] >= 0 {
				k++
			}
		}
		cur.idx, cur.lab = make([]int32, 0, k), make([]int32, 0, k)
		for j, i := range pl.idx {
			if u := unsat[lab[j]]; u >= 0 {
				cur.idx = append(cur.idx, i)
				cur.lab = append(cur.lab, u)
			}
		}
	}
	rf.labels[y] = cur
	return nunsat == 0
}

// regroup labels each member idx[j] by (parent label plab[j], code in
// column c), given parent labels dense in [0, nparent), writes the labels
// to lab[j] and returns the group count. It counting-sorts the members by
// parent label, then numbers each run's distinct codes through the slot
// array; a generation stamp per slot stands in for clearing it between
// runs. Slot 0 is NullValue, as in relation.SingleColumnPartition. It
// reads every plab[j] before it writes any lab[j], so plab and lab may be
// the same slice.
func (rf *rootRefiner) regroup(c int, idx, plab []int32, nparent int32, lab []int32) int32 {
	codes := rf.column(c)
	runs := growInt32(rf.runs, int(nparent)+1)
	clear(runs)
	for _, p := range plab {
		runs[p+1]++
	}
	for p := int32(1); p <= nparent; p++ {
		runs[p] += runs[p-1]
	}
	order := growInt32(rf.order, len(plab))
	for j, p := range plab {
		order[runs[p]] = int32(j)
		runs[p]++
	}
	rf.runs, rf.order = runs, order
	if size := rf.v.Relation().Dict(c).Size() + 1; len(rf.slots) < size {
		rf.slots, rf.gen = make([]regroupSlot, size), 0
	}
	ngroups := int32(0)
	lo := int32(0)
	for p := int32(0); p < nparent; p++ {
		hi := runs[p]
		if hi-lo == 1 {
			lab[order[lo]] = ngroups
			ngroups++
		} else if hi > lo {
			rf.gen++
			if rf.gen == 0 {
				clear(rf.slots)
				rf.gen = 1
			}
			for _, j := range order[lo:hi] {
				sl := &rf.slots[codes[idx[j]]+1]
				if sl.gen != rf.gen {
					sl.gen, sl.group = rf.gen, ngroups
					ngroups++
				}
				lab[j] = sl.group
			}
		}
		lo = hi
	}
	return ngroups
}

// growInt32 returns buf resized to n, reallocating only when its capacity
// is short.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
