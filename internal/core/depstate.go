package core

import (
	"slices"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// class verification outcome; ordered so "worse" states are larger.
const (
	classOK        uint8 = iota // consequent syntactically constant
	classFDOnly                 // an FD would flag it; the ontology clears it
	classViolating              // no common interpretation
)

// DepState is the consequent state of one dependency X → A on the
// substrate's class table over X, which the paper's class-by-class check
// reads: per class of Π_X the multiset of A's values (counts, which make
// re-verification O(distinct values), independent of class size) and its
// verdict, the number of violating classes, and the classes the last
// batch dirtied (ascending, each once). The substrate holds one per
// dependency either engine holds (Substrate.Hold), so a monitored cover
// element has one state; it alone folds a batch into it (Apply, Append)
// or unfolds one (Undo), and the engines only read it.
type DepState struct {
	d         OFD
	tab       *live.Table
	counts    [][]live.ValCount
	verdicts  []uint8
	violating int
	dirty     []int32
	vals      []relation.Value // distinct-value scratch
	holds     int
}

// verifyAll derives every class's verdict from the multisets of a state
// that has none yet.
func (st *DepState) verifyAll(v *Verifier) {
	st.verdicts = make([]uint8, len(st.counts))
	for ci := range st.counts {
		st.setVerdict(int32(ci), st.classState(v, int32(ci)))
	}
}

// Table returns the class table the state runs on.
func (st *DepState) Table() *live.Table { return st.tab }

// Counts returns the per-class consequent multisets, indexed by the
// table's class ids. Read-only.
func (st *DepState) Counts() [][]live.ValCount { return st.counts }

// Violating returns the number of violating classes: the dependency
// holds exactly when it is 0.
func (st *DepState) Violating() int { return st.violating }

// Violates reports whether class ci violates the dependency.
func (st *DepState) Violates(ci int32) bool { return st.verdicts[ci] == classViolating }

// classState verifies class ci from its multiset, never a tuple scan.
func (st *DepState) classState(v *Verifier, ci int32) uint8 {
	pairs := st.counts[ci]
	if len(pairs) <= 1 {
		return classOK
	}
	st.vals = live.Distinct(pairs, st.vals)
	if v.valuesSatisfied(st.d.RHS, st.vals) {
		return classFDOnly
	}
	return classViolating
}

// setVerdict moves class ci to verdict now, keeping the violating count.
func (st *DepState) setVerdict(ci int32, now uint8) {
	if st.verdicts[ci] == classViolating {
		st.violating--
	}
	if now == classViolating {
		st.violating++
	}
	st.verdicts[ci] = now
}

// fold folds the current batch (writes, or the appended rows when writes
// is empty) and the table's move log into the multisets (live.Fold) and
// re-verifies the classes it dirtied.
func (st *DepState) fold(v *Verifier, writes []CellWrite) {
	st.counts, st.dirty = live.Fold(st.tab, v.Relation(), st.d.RHS, writes, st.counts, st.dirty)
	st.verdicts = append(st.verdicts, make([]uint8, len(st.counts)-len(st.verdicts))...) // born classes, ok until verified
	st.recheck(v)
}

// unfold reverses fold of a batch of writes before the table undoes it:
// the classes the batch bore go, the multisets are unfolded
// (live.Unfold), and the classes that changed are re-verified. The
// multisets are canonical and the verdicts functions of them, so both
// read as before the batch. The dirty list is left empty.
func (st *DepState) unfold(v *Verifier, writes []CellWrite) {
	born := st.tab.Born()
	for ci := range st.verdicts[born:] {
		st.setVerdict(born+int32(ci), classOK)
	}
	st.verdicts = st.verdicts[:born]
	st.dirty = st.dirty[:0]
	st.counts, st.dirty = live.Unfold(st.tab, v.Relation(), st.d.RHS, writes, st.counts, st.dirty)
	st.recheck(v)
	st.dirty = st.dirty[:0]
}

// recheck sorts and deduplicates the dirty list and re-verifies each
// class in it once.
func (st *DepState) recheck(v *Verifier) {
	slices.Sort(st.dirty)
	st.dirty = slices.Compact(st.dirty)
	for _, ci := range st.dirty {
		st.setVerdict(ci, st.classState(v, ci))
	}
}
