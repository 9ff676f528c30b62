package core

import (
	"slices"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// monitorDep is one monitored dependency's state on top of the
// substrate's class table over its antecedent. Dependencies share no
// mutable state, so a batch's workers fold it into every dependency it
// touches in parallel without locks.
type monitorDep struct {
	d OFD
	// tab is the substrate's table over d.LHS, with member lists while a
	// monitored dependency holds it.
	tab *live.Table
	// counts[c] is the multiset of consequent values of the table's class
	// c. Maintained on every write, it makes re-verification
	// O(distinct values), independent of class size.
	counts [][]live.ValCount
	// viol[c] holds the materialized Violation record of currently
	// violating class c; fdOnly[c] holds the member list of a class a
	// plain FD would flag that the ontology clears. Records are immutable
	// once stored — snapshots alias them.
	viol   map[int32]*Violation
	fdOnly map[int32][]int32

	// snap is the dependency's latest published snapshot; replaced
	// wholesale (never mutated) when the violation maps change.
	snap *depSnap

	// Batch scratch, reused across batches. No element holds a pointer, so
	// the slots past a reused length pin nothing.
	dirty []int32          // classes the batch touched
	vals  []relation.Value // distinct-value scratch
}

// fill computes the dependency's multisets in one pass over its table's
// row→class array, then its class states and violation records.
func (dep *monitorDep) fill(m *Monitor) {
	dep.counts = live.CountClasses(dep.tab, m.rel.Column(dep.d.RHS))
	dep.buildRecords(m)
}

// buildRecords computes the class states and materialized violation
// records from the multisets and publishes them as the dependency's
// snapshot. Only flagged classes pay explain().
func (dep *monitorDep) buildRecords(m *Monitor) {
	dep.viol = make(map[int32]*Violation)
	dep.fdOnly = make(map[int32][]int32)
	for ci := range dep.counts {
		st := dep.classState(m, int32(ci))
		if st == classOK {
			continue
		}
		v, fd := dep.materialize(m, int32(ci), st)
		if st == classViolating {
			dep.viol[int32(ci)] = v
		} else {
			dep.fdOnly[int32(ci)] = fd
		}
	}
	dep.rebuildSnap()
}

// classState verifies class ci from its maintained consequent-value
// multiset — O(distinct values), never a tuple scan.
func (dep *monitorDep) classState(m *Monitor, ci int32) uint8 {
	pairs := dep.counts[ci]
	if len(pairs) <= 1 {
		return classOK // syntactically constant
	}
	dep.vals = live.Distinct(pairs, dep.vals)
	if m.v.valuesSatisfied(dep.d.RHS, dep.vals) {
		return classFDOnly
	}
	return classViolating
}

// materialize builds the immutable record for a non-OK class: the
// explained Violation for a violating class, or the member list for an
// FD-only class. Member lists are copy-on-write, so later edits never
// change the list and snapshots can alias it.
func (dep *monitorDep) materialize(m *Monitor, ci int32, state uint8) (*Violation, []int32) {
	switch state {
	case classViolating:
		rec := explain(m.rel, m.v.Ontology(), dep.d, dep.tab.Members[ci])
		return &rec, nil
	case classFDOnly:
		return nil, dep.tab.Members[ci]
	}
	return nil, nil
}

// commitClass moves class ci into the given state, installing its
// materialized record. Reports whether the violation maps changed
// (requiring a snapshot rebuild).
func (dep *monitorDep) commitClass(ci int32, state uint8, v *Violation, fd []int32) bool {
	_, wasViol := dep.viol[ci]
	_, wasFD := dep.fdOnly[ci]
	delete(dep.viol, ci)
	delete(dep.fdOnly, ci)
	switch state {
	case classViolating:
		dep.viol[ci] = v
	case classFDOnly:
		dep.fdOnly[ci] = fd
	}
	return wasViol || wasFD || state != classOK
}

// recheck re-verifies, once each, the classes in the dependency's dirty
// list, and rebuilds the snapshot if a violation map changed. Returns the
// number of re-verified classes and leaves the dirty list empty.
func (dep *monitorDep) recheck(m *Monitor) int {
	slices.Sort(dep.dirty)
	dirty := slices.Compact(dep.dirty)
	changed := false
	for _, ci := range dirty {
		st := dep.classState(m, ci)
		v, fd := dep.materialize(m, ci, st)
		if dep.commitClass(ci, st, v, fd) {
			changed = true
		}
	}
	if changed {
		dep.rebuildSnap()
	}
	dep.dirty = dep.dirty[:0]
	return len(dirty)
}
