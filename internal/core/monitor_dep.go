package core

import (
	"slices"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// monitorDep is one monitored dependency's live state. Dependencies share
// no mutable state, so a batch's workers update every dependency it
// touches in parallel without locks.
type monitorDep struct {
	d OFD
	// ix is the dependency's class index: Members the copy-on-write member
	// lists (a base class's list starts as its cached partition class),
	// Keys the LHS-key map of classes and lone rows (nil on a restored
	// monitor until a batch needs it), Counts the consequent multisets.
	ix *live.ClassIndex
	// classOf[t] is row t's class, or -1 while t is a lone row.
	classOf []int32
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
	moved  []int32          // rows whose antecedent the batch rewrote
	dirty  []int32          // classes to re-verify, deduped in absorb
	vals   []relation.Value // distinct-value scratch
	keyBuf []byte           // source-state key scratch
}

// newDep builds dependency d's live state over the current instance: its
// class index (indexDep), multisets, class states and materialized
// violation records.
func (m *Monitor) newDep(d OFD) *monitorDep {
	ix, classOf := m.indexDep(d)
	col := m.rel.Column(d.RHS)
	for ci, class := range ix.Members {
		pairs := make([]live.ValCount, 0, 4)
		for _, t := range class {
			pairs = live.Bump(pairs, col.At(int(t)), 1)
		}
		ix.Counts[ci] = pairs
	}
	dep := &monitorDep{d: d, ix: ix, classOf: classOf}
	dep.buildRecords(m)
	return dep
}

// indexDep builds dependency d's class index and row→class table when the
// dependency enters the monitor (NewMonitor, Register; writes move rows in
// place instead). Each class's member list is the cached base partition's
// class itself, which the list's copy-on-write rule never writes; the key
// map holds one key per class and one per lone row (live.IndexKeys). The
// multisets are left empty, one per class.
func (m *Monitor) indexDep(d OFD) (*live.ClassIndex, []int32) {
	base := m.v.Partitions().Get(d.LHS)
	nc := base.NumClasses()
	ix := &live.ClassIndex{
		Cols:    d.LHS.Attrs(),
		RHS:     d.RHS,
		Members: make([][]int32, nc),
		Counts:  make([][]live.ValCount, nc),
	}
	classOf := make([]int32, m.rel.NumRows())
	for t := range classOf {
		classOf[t] = -1
	}
	for ci := range ix.Members {
		class := base.Class(ci)
		ix.Members[ci] = class
		for _, t := range class {
			classOf[t] = int32(ci)
		}
	}
	live.IndexKeys(ix, classOf, func(blob []byte, t int) []byte {
		return live.AppendKey(blob, m.rel, ix.Cols, t)
	})
	return ix, classOf
}

// buildRecords computes the class states and materialized violation
// records from the multisets and publishes them as the dependency's
// snapshot. Only flagged classes pay explain().
func (dep *monitorDep) buildRecords(m *Monitor) {
	dep.viol = make(map[int32]*Violation)
	dep.fdOnly = make(map[int32][]int32)
	for ci := range dep.ix.Counts {
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
	pairs := dep.ix.Counts[ci]
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
		rec := explain(m.rel, m.v.Ontology(), dep.d, dep.ix.Members[ci])
		return &rec, nil
	case classFDOnly:
		return nil, dep.ix.Members[ci]
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

// absorb folds one batch into the dependency: rows [t0, end) were
// appended, and writes is the batch's write log, sorted by row, touching
// the columns in touched. In order, it rebuilds a restored key map the
// batch needs (restoreKeys), joins the appended rows in ascending row
// order, walks the log — a row whose antecedent changed leaves its class
// (or its lone-row key, through the source-state key), a consequent write
// of a row that stays bumps its class's multiset — and joins the moved
// rows through their target-state keys. A class a leave empties gives up
// its key, so the key map holds live keys only. Every dirty class is then
// re-verified once, and the snapshot rebuilt if a violation map changed.
// Returns the number of re-verified classes. Leaves the scratch empty.
func (dep *monitorDep) absorb(m *Monitor, writes []CellWrite, touched relation.AttrSet, t0, end int) int {
	ix, d, rel := dep.ix, dep.d, m.rel
	if ix.Keys == nil && (t0 < end || !d.LHS.Intersect(touched).IsEmpty()) {
		dep.restoreKeys(rel, writes)
	}
	for t := t0; t < end; t++ {
		dep.classOf = append(dep.classOf, -1)
		dep.join(rel, int32(t))
	}
	for lo := 0; lo < len(writes); {
		t := writes[lo].Row
		hi := lo + 1
		for hi < len(writes) && writes[hi].Row == t {
			hi++
		}
		seg := writes[lo:hi]
		lo = hi
		xChanged, hadA := false, false
		var aOld, aNew relation.Value
		for _, wr := range seg {
			if wr.Col == d.RHS {
				hadA, aOld, aNew = true, wr.Old, wr.New
			}
			if d.LHS.Has(wr.Col) {
				xChanged = true
			}
		}
		ci := dep.classOf[t]
		if !xChanged {
			if hadA && ci >= 0 {
				ix.BumpVal(ci, aOld, aNew)
				dep.dirty = append(dep.dirty, ci)
			}
			continue
		}
		preA := rel.Value(t, d.RHS)
		if hadA {
			preA = aOld
		}
		dep.moved = append(dep.moved, int32(t))
		if ci >= 0 {
			dep.classOf[t] = -1
			dep.dirty = append(dep.dirty, ci)
			if ix.Leave(ci, int32(t), preA) > 0 {
				continue
			}
		}
		dep.keyBuf = AppendSourceKey(dep.keyBuf[:0], rel, ix.Cols, seg, t)
		delete(ix.Keys, string(dep.keyBuf))
	}
	for _, t := range dep.moved {
		dep.join(rel, t)
	}
	slices.Sort(dep.dirty)
	dep.dirty = slices.Compact(dep.dirty)
	changed := false
	for _, ci := range dep.dirty {
		st := dep.classState(m, ci)
		v, fd := dep.materialize(m, ci, st)
		if dep.commitClass(ci, st, v, fd) {
			changed = true
		}
	}
	if changed {
		dep.rebuildSnap()
	}
	n := len(dep.dirty)
	dep.moved = dep.moved[:0]
	dep.dirty = dep.dirty[:0]
	return n
}

// join enters row t, which belongs to no class, through its current key
// and marks the class it joins dirty.
func (dep *monitorDep) join(rel *relation.Relation, t int32) {
	ci, partner, kind := dep.ix.Join(rel, t)
	switch kind {
	case live.JoinLone:
		return
	case live.JoinBirth:
		dep.classOf[partner] = ci
	}
	dep.classOf[t] = ci
	dep.dirty = append(dep.dirty, ci)
}

// restoreKeys rebuilds the key map of a dependency restored without one
// (DecodeMonitorBody saves none) from its row→class table
// (live.IndexKeys). absorb runs it before the batch moves any row, so the
// table still describes the batch's source state. The relation already
// holds the writes, so a written row's key is encoded from the log's Old
// values (AppendSourceKey), found by a cursor: the log and IndexKeys's
// requests both ascend by row.
func (dep *monitorDep) restoreKeys(rel *relation.Relation, writes []CellWrite) {
	lo := 0
	live.IndexKeys(dep.ix, dep.classOf, func(blob []byte, t int) []byte {
		for lo < len(writes) && writes[lo].Row < t {
			lo++
		}
		hi := lo
		for hi < len(writes) && writes[hi].Row == t {
			hi++
		}
		return AppendSourceKey(blob, rel, dep.ix.Cols, writes[lo:hi], t)
	})
}
