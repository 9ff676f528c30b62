package core

// monitorDep is one monitored dependency's violation state on top of the
// substrate's consequent state of it (DepState), whose verdicts it
// materializes. Dependencies share no mutable state, so a batch's workers
// re-materialize every dependency it dirtied in parallel without locks.
type monitorDep struct {
	d  OFD
	st *DepState
	// viol[c] holds the materialized Violation record of currently
	// violating class c; fdOnly[c] holds the member list of a class a
	// plain FD would flag that the ontology clears. Records are immutable
	// once stored — snapshots alias them.
	viol   map[int32]*Violation
	fdOnly map[int32][]int32

	// snap is the dependency's latest published snapshot; replaced
	// wholesale (never mutated) when the violation maps change.
	snap *depSnap
}

// buildRecords materializes the records of every flagged class from the
// state's verdicts and publishes them as the dependency's snapshot. Only
// flagged classes pay explain().
func (dep *monitorDep) buildRecords(m *Monitor) {
	dep.viol = make(map[int32]*Violation)
	dep.fdOnly = make(map[int32][]int32)
	for ci, st := range dep.st.verdicts {
		if st != classOK {
			dep.commit(m, int32(ci))
		}
	}
	dep.rebuildSnap()
}

// commit installs class ci's record for its verdict: the explained
// Violation of a violating class, or the member list of an FD-only class
// (copy-on-write, so later edits never change it and snapshots can alias
// it). Reports whether the violation maps changed (requiring a snapshot
// rebuild).
func (dep *monitorDep) commit(m *Monitor, ci int32) bool {
	_, wasViol := dep.viol[ci]
	_, wasFD := dep.fdOnly[ci]
	delete(dep.viol, ci)
	delete(dep.fdOnly, ci)
	switch dep.st.verdicts[ci] {
	case classViolating:
		rec := explain(m.rel, m.v.Ontology(), dep.d, dep.st.tab.Members[ci])
		dep.viol[ci] = &rec
	case classFDOnly:
		dep.fdOnly[ci] = dep.st.tab.Members[ci]
	}
	return wasViol || wasFD || dep.st.verdicts[ci] != classOK
}

// recheck re-commits, once each, the classes the substrate's last batch
// dirtied in the state, and rebuilds the snapshot if a violation map
// changed. Returns the number of classes.
func (dep *monitorDep) recheck(m *Monitor) int {
	changed := false
	for _, ci := range dep.st.dirty {
		if dep.commit(m, ci) {
			changed = true
		}
	}
	if changed {
		dep.rebuildSnap()
	}
	return len(dep.st.dirty)
}
