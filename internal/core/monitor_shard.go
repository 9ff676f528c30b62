package core

import (
	"slices"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// monitorShard owns one LHS-key hash slice of the monitor's state: for
// every OFD, a live.ClassIndex bundling the member lists of the classes
// routed here, the LHS-key index of those classes and lone rows, and the
// consequent-value multisets — plus the violation maps with their eagerly
// materialized records. Shards share no mutable state, so a batch's apply
// and merge stages mutate all active shards in parallel without locks.
type monitorShard struct {
	// idx[i] = sigma[i]'s live class index for the classes this shard
	// owns: Members the copy-on-write member lists (a base class's list
	// starts as its shared PartitionCache class), Keys the dict-encoded
	// LHS-key map, Counts the consequent-value multisets.
	idx []*live.ClassIndex
	// viol[i][c] holds the materialized Violation record of currently
	// violating local class c; fdOnly[i][c] holds the member list of a
	// class a plain FD would flag that the ontology clears. Records are
	// immutable once stored — snapshots alias them.
	viol   []map[int32]*Violation
	fdOnly []map[int32][]int32

	// snap is the shard's latest published snapshot; replaced wholesale
	// (never mutated) when the violation maps change.
	snap *shardSnap

	reverified int // classes re-verified since construction

	// Batch scratch, filled by the monitor's route stage and drained by
	// applyBatch. A row whose antecedent the batch rewrote leaves the
	// shard owning its source-state key and joins the shard owning its
	// target-state key; moveKeys holds the moves' encoded keys back to
	// back.
	leaves   []shardMove
	joins    []shardMove
	moveKeys []byte
	bumps    []shardBump
	dirty    []int64          // (ofd<<32 | class) keys, deduped in applyBatch
	vals     []relation.Value // distinct-value scratch
}

// shardBump is one routed multiset delta: under OFD ofd, local class
// class's consequent multiset loses one `from` and gains one `to`.
type shardBump struct {
	ofd, class int32
	from, to   relation.Value
}

// shardMove is one routed antecedent move of row under OFD ofd. A leave
// takes the row out of local class class, whose multiset loses the row's
// pre-batch consequent preA, or deletes its lone-row key when class is
// -1. A join enters the row through its target-state key. key is the
// offset of the move's encoded key in the shard's moveKeys: the
// source-state key for a leave, the target-state key for a join.
type shardMove struct {
	ofd, row, class int32
	preA            relation.Value
	key             int32
}

// dirtyKey packs (OFD, local class) into one sortable dirty-list entry.
func dirtyKey(i, ci int32) int64 { return int64(i)<<32 | int64(uint32(ci)) }

func newMonitorShard(nOFDs int) *monitorShard {
	return &monitorShard{
		idx:    make([]*live.ClassIndex, nOFDs),
		viol:   make([]map[int32]*Violation, nOFDs),
		fdOnly: make([]map[int32][]int32, nOFDs),
	}
}

// buildState computes the shard's multisets, initial class states, and
// materialized violation records from the routed member lists. Fully
// shard-local, so the monitor build fans it out over shards.
func (sh *monitorShard) buildState(m *Monitor) {
	for i := range m.sigma {
		sh.buildStateOFD(m, i)
	}
	sh.rebuildSnap()
}

// buildStateOFD rebuilds dependency i's multisets and violation maps from
// its routed member lists (buildState over one OFD; Register reuses it
// for the OFD it adds).
func (sh *monitorShard) buildStateOFD(m *Monitor, i int) {
	ix := sh.idx[i]
	col := m.rel.Column(m.sigma[i].RHS)
	counts := make([][]live.ValCount, len(ix.Members))
	for ci := range counts {
		pairs := make([]live.ValCount, 0, 4)
		for _, t := range ix.Members[ci] {
			pairs = live.Bump(pairs, col.At(int(t)), 1)
		}
		counts[ci] = pairs
	}
	ix.Counts = counts
	sh.viol[i] = make(map[int32]*Violation)
	sh.fdOnly[i] = make(map[int32][]int32)
	for ci := range counts {
		st := sh.classState(m, i, ci)
		if st == classOK {
			continue
		}
		v, fd := sh.materialize(m, i, int32(ci), st)
		if st == classViolating {
			sh.viol[i][int32(ci)] = v
		} else {
			sh.fdOnly[i][int32(ci)] = fd
		}
	}
}

// classState verifies local class ci of dependency i from its maintained
// consequent-value multiset — O(distinct values), never a tuple scan.
func (sh *monitorShard) classState(m *Monitor, i, ci int) uint8 {
	pairs := sh.idx[i].Counts[ci]
	if len(pairs) <= 1 {
		return classOK // syntactically constant
	}
	sh.vals = live.Distinct(pairs, sh.vals)
	if m.v.valuesSatisfied(m.sigma[i].RHS, sh.vals) {
		return classFDOnly
	}
	return classViolating
}

// materialize builds the immutable record for a non-OK class: the
// explained Violation for a violating class, or the member list for an
// FD-only class. Member lists are copy-on-write, so later edits never
// change the list and snapshots can alias it.
func (sh *monitorShard) materialize(m *Monitor, i int, ci int32, state uint8) (*Violation, []int32) {
	switch state {
	case classViolating:
		rec := explain(m.rel, m.v.Ontology(), m.sigma[i], sh.idx[i].Members[ci])
		return &rec, nil
	case classFDOnly:
		return nil, sh.idx[i].Members[ci]
	}
	return nil, nil
}

// commitClass moves local class ci of dependency i into the given state,
// installing its materialized record. Reports whether the shard's
// violation maps changed (requiring a snapshot rebuild).
func (sh *monitorShard) commitClass(i int, ci int32, state uint8, v *Violation, fd []int32) bool {
	_, wasViol := sh.viol[i][ci]
	_, wasFD := sh.fdOnly[i][ci]
	delete(sh.viol[i], ci)
	delete(sh.fdOnly[i], ci)
	switch state {
	case classViolating:
		sh.viol[i][ci] = v
	case classFDOnly:
		sh.fdOnly[i][ci] = fd
	}
	return wasViol || wasFD || state != classOK
}

// applyBatch runs one shard's apply stage: the routed leaves, then the
// joins, then the multiset deltas; then it dedups the dirty classes and
// re-verifies and commits each once. A class that a leave empties gives
// up its key, so the key maps hold live keys only. Every key a move
// names hashes to this shard, so a leave and a later join through the
// same key meet here in order, and the shard writes the monitor's
// classOf entries of the rows it joins alone. Returns the number of
// re-verified classes and whether the violation maps changed (the
// shard's snapshot is then stale). Leaves the batch scratch empty.
func (sh *monitorShard) applyBatch(m *Monitor) (n int, changed bool) {
	for _, mv := range sh.leaves {
		ix := sh.idx[mv.ofd]
		if mv.class >= 0 {
			sh.dirty = append(sh.dirty, dirtyKey(mv.ofd, mv.class))
			if ix.Leave(mv.class, mv.row, mv.preA) > 0 {
				continue
			}
		}
		delete(ix.Keys, string(sh.moveKey(m, mv)))
	}
	for _, mv := range sh.joins {
		ci, partner, kind := sh.idx[mv.ofd].JoinKey(m.rel, sh.moveKey(m, mv), mv.row)
		switch kind {
		case live.JoinLone:
			continue
		case live.JoinBirth:
			m.classOf[mv.ofd][partner] = ci
		}
		m.classOf[mv.ofd][mv.row] = ci
		sh.dirty = append(sh.dirty, dirtyKey(mv.ofd, ci))
	}
	for _, b := range sh.bumps {
		sh.idx[b.ofd].BumpVal(b.class, b.from, b.to)
	}
	slices.Sort(sh.dirty)
	sh.dirty = slices.Compact(sh.dirty)
	for _, key := range sh.dirty {
		i, ci := int(key>>32), int32(key)
		st := sh.classState(m, i, int(ci))
		v, fd := sh.materialize(m, i, ci, st)
		if sh.commitClass(i, ci, st, v, fd) {
			changed = true
		}
	}
	n = len(sh.dirty)
	sh.reverified += n
	sh.leaves = sh.leaves[:0]
	sh.joins = sh.joins[:0]
	sh.moveKeys = sh.moveKeys[:0]
	sh.bumps = sh.bumps[:0]
	sh.dirty = sh.dirty[:0]
	return n, changed
}

// moveKey returns move mv's encoded key.
func (sh *monitorShard) moveKey(m *Monitor, mv shardMove) []byte {
	return sh.moveKeys[mv.key : int(mv.key)+4*len(m.lhsCols[mv.ofd])]
}
