package core

import (
	"slices"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// monitorTable is the live state of one antecedent X and of every
// monitored dependency over it. Tables share no mutable state, so a
// batch's workers update every table it touches in parallel without
// locks, each together with its dependencies.
type monitorTable struct {
	lhs relation.AttrSet
	// scope is X plus every dependency's consequent: the columns whose
	// writes the table's state depends on.
	scope relation.AttrSet
	// tab is X's class table: the key map of classes and lone rows (not
	// built on a restored monitor until a batch needs it), the row→class
	// array, the class sizes and the copy-on-write member lists (a base
	// class's list starts as its cached partition class).
	tab *live.Table
	// deps are the monitored dependencies over X, in registration order.
	deps []*monitorDep

	// Batch scratch, reused across batches. No element holds a pointer, so
	// the slots past a reused length pin nothing.
	moved []int32 // rows whose antecedent the batch rewrote
	dirty []int32 // classes the batch's joins and leaves touched
}

// monitorDep is one monitored dependency's state on top of its table.
type monitorDep struct {
	d   OFD
	tbl *monitorTable
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

	// Batch scratch, as the table's.
	dirty []int32          // classes its consequent writes touched
	vals  []relation.Value // distinct-value scratch
}

// newTable builds the class table of antecedent x over the current
// instance, when the first dependency over x enters the monitor
// (NewMonitor, Register; writes move rows in place instead): the cached
// base partition's classes, their lists its class views, and the key map.
func (m *Monitor) newTable(x relation.AttrSet) *monitorTable {
	p := m.v.Partitions().Get(x)
	return &monitorTable{lhs: x, scope: x, tab: live.FromPartition(m.rel, x.Attrs(), p, true)}
}

// attach adds dep to the table's dependencies.
func (mt *monitorTable) attach(dep *monitorDep) {
	dep.tbl = mt
	mt.deps = append(mt.deps, dep)
	mt.scope = mt.scope.With(dep.d.RHS)
}

// detach removes dep from the table's dependencies; slices.Delete clears
// the vacated tail slot, so the removed state is not pinned.
func (mt *monitorTable) detach(dep *monitorDep) {
	mt.deps = slices.DeleteFunc(mt.deps, func(e *monitorDep) bool { return e == dep })
	mt.scope = mt.lhs
	for _, e := range mt.deps {
		mt.scope = mt.scope.With(e.d.RHS)
	}
}

// fill computes the dependency's multisets in one pass over its table's
// row→class array, then its class states and violation records.
func (dep *monitorDep) fill(m *Monitor) {
	dep.counts = live.CountClasses(dep.tbl.tab, m.rel.Column(dep.d.RHS))
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
		rec := explain(m.rel, m.v.Ontology(), dep.d, dep.tbl.tab.Members[ci])
		return &rec, nil
	case classFDOnly:
		return nil, dep.tbl.tab.Members[ci]
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

// absorb folds one batch into the table and its dependencies: rows
// [t0, end) were appended, and writes is the batch's write log, sorted by
// row, touching the columns in touched. In order, it readies the key map
// when the batch needs it (live.Table.Prepare: a restored or outgrown
// map is rebuilt from the batch's source state), joins the appended rows
// in ascending row order, walks the log — a row whose antecedent changed
// leaves its class (or drops its lone-row key, through the source-state
// key), a consequent write of a row that stays bumps its class's multiset
// under that dependency — and joins the moved rows through their
// target-state keys. A class a leave empties gives up its key, so the key
// map holds live keys only. Each class's member list is rewritten once
// (Flush). Every dependency then re-verifies each class dirty for it once:
// the classes joins and leaves touched, and those its own consequent
// writes touched. Returns the number of re-verified (dependency, class)
// pairs. Leaves the scratch empty.
func (mt *monitorTable) absorb(m *Monitor, writes []CellWrite, touched relation.AttrSet, t0, end int) int {
	tab, rel := mt.tab, m.rel
	if t0 < end || !mt.lhs.Intersect(touched).IsEmpty() {
		tab.Prepare(rel, writes)
	}
	tab.Grow(end)
	for t := t0; t < end; t++ {
		mt.join(rel, int32(t))
	}
	for lo := 0; lo < len(writes); {
		t := writes[lo].Row
		hi := lo + 1
		for hi < len(writes) && writes[hi].Row == t {
			hi++
		}
		seg := writes[lo:hi]
		lo = hi
		xChanged := false
		for _, wr := range seg {
			if mt.lhs.Has(wr.Col) {
				xChanged = true
			}
		}
		ci := tab.RowClass[t]
		if !xChanged {
			if ci < 0 {
				continue
			}
			for _, dep := range mt.deps {
				if wr, ok := live.Written(seg, dep.d.RHS); ok {
					dep.counts[ci] = live.Replace(dep.counts[ci], wr.Old, wr.New)
					dep.dirty = append(dep.dirty, ci)
				}
			}
			continue
		}
		mt.moved = append(mt.moved, int32(t))
		if ci >= 0 {
			for _, dep := range mt.deps {
				preA := rel.Value(t, dep.d.RHS)
				if wr, ok := live.Written(seg, dep.d.RHS); ok {
					preA = wr.Old
				}
				dep.counts[ci] = live.Bump(dep.counts[ci], preA, -1)
			}
			mt.dirty = append(mt.dirty, ci)
			if _, size := tab.Leave(int32(t)); size > 0 {
				continue
			}
		}
		tab.DropKey(rel, seg, t)
	}
	for _, t := range mt.moved {
		mt.join(rel, t)
	}
	tab.Flush()
	slices.Sort(mt.dirty)
	mt.dirty = slices.Compact(mt.dirty)
	n := 0
	for _, dep := range mt.deps {
		n += dep.recheck(m, mt.dirty)
	}
	mt.moved = mt.moved[:0]
	mt.dirty = mt.dirty[:0]
	return n
}

// join enters row t, which belongs to no class, through its current key,
// folds the outcome into every dependency's multisets and marks the class
// it joins dirty.
func (mt *monitorTable) join(rel *relation.Relation, t int32) {
	ci, partner, kind := mt.tab.Join(rel, t)
	if kind == live.JoinLone {
		return
	}
	for _, dep := range mt.deps {
		dep.counts = live.Joined(dep.counts, rel.Column(dep.d.RHS), t, ci, partner, kind)
	}
	mt.dirty = append(mt.dirty, ci)
}

// recheck re-verifies, once each, the classes in shared (the table's
// dirty classes, sorted and deduplicated) and in the dependency's own
// dirty list, and rebuilds the snapshot if a violation map changed.
// Returns the number of re-verified classes and leaves the dirty list
// empty.
func (dep *monitorDep) recheck(m *Monitor, shared []int32) int {
	dirty := shared
	if len(dep.dirty) > 0 {
		dep.dirty = append(dep.dirty, shared...)
		slices.Sort(dep.dirty)
		dirty = slices.Compact(dep.dirty)
	}
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
