package discovery

import (
	"slices"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// cellWrite is one deduplicated effective cell write of a maintained
// batch: Old is the source-state value, New the target-state value. The
// maintainer applies batches forward with the relation already in target
// state, and rolls them back by re-applying the inverted log after
// reverting the relation — trackers therefore read "target" values from
// the relation and "source" values from the log, in both directions. It
// is the monitor's CellWrite: both engines speak the same write log, so
// the merged pipeline hands one batch from engine to engine verbatim.
type cellWrite = core.CellWrite

// forEachRowSegment calls fn once per touched row with that row's write
// segment. writes must be sorted by (row, col).
func forEachRowSegment(writes []cellWrite, fn func(t int, seg []cellWrite)) {
	for i := 0; i < len(writes); {
		j := i + 1
		for j < len(writes) && writes[j].Row == writes[i].Row {
			j++
		}
		fn(writes[i].Row, writes[i:j])
		i = j
	}
}

// batchTracker is the unit the maintainer fans a batch out over: a class
// table with the cover trackers over its antecedent (full class state),
// or a witness tracker (one pinned violating class). Each folds a sorted
// effective-write log or a run of appended rows into its own state with
// no shared writes, so the fan-out parallelizes freely.
type batchTracker interface {
	// scope returns the attribute set whose writes can affect the tracker
	// (its antecedent and consequents); the maintainer skips trackers
	// disjoint from a batch.
	scope() relation.AttrSet
	applyWrites(rel *relation.Relation, v *core.Verifier, writes []cellWrite)
	// appendRows folds in the rows [t0, end) the relation just gained.
	appendRows(rel *relation.Relation, v *core.Verifier, t0, end int32)
}

// trackerTable is one antecedent X's class table (live.Table, with class
// sizes and no member lists) shared by every cover tracker over X,
// whatever its consequent. A batch moves each written row once per
// table; each tracker then folds the moves and its own consequent's
// writes into its multisets.
type trackerTable struct {
	lhs    relation.AttrSet
	colSet relation.AttrSet // X ∪ every tracker's consequent
	tab    *live.Table
	cover  []*coverTracker

	// Batch scratch; no element holds a pointer.
	dirty    []int32 // classes the batch's joins and leaves touched
	floating []int32 // rows between the leave and join phases
}

// newTrackerTable builds the table of antecedent x from the verifier's
// (typically cached) partition Π*_X: only one key per class plus each
// lone row pays an encode, and class ids follow partition order.
func newTrackerTable(v *core.Verifier, x relation.AttrSet) *trackerTable {
	p := v.Partitions().Get(x)
	return &trackerTable{lhs: x, colSet: x, tab: live.FromPartition(v.Relation(), x.Attrs(), p, false)}
}

func (tt *trackerTable) scope() relation.AttrSet { return tt.colSet }

// attach adds ct to the table's trackers.
func (tt *trackerTable) attach(ct *coverTracker) {
	ct.tt = tt
	tt.cover = append(tt.cover, ct)
	tt.colSet = tt.colSet.With(ct.d.RHS)
}

// detach removes ct from the table's trackers; slices.DeleteFunc clears
// the vacated tail slot, so the removed tracker is not pinned.
func (tt *trackerTable) detach(ct *coverTracker) {
	tt.cover = slices.DeleteFunc(tt.cover, func(e *coverTracker) bool { return e == ct })
	tt.colSet = tt.lhs
	for _, e := range tt.cover {
		tt.colSet = tt.colSet.With(e.d.RHS)
	}
}

// coverTracker maintains the exact equivalence-class state of one cover
// element X → A on X's shared table: the per-class consequent multisets
// and per-class satisfaction flags, indexed by the table's class ids, so
// a batch's effect on the candidate's validity is known from O(touched
// rows) work. The candidate is valid ⇔ unsat == 0. Lone rows carry no
// class state (they cannot violate), which keeps superkey-shaped tables
// at one key per row and nothing else.
type coverTracker struct {
	d      core.OFD
	tt     *trackerTable
	counts [][]live.ValCount
	sat    []bool
	unsat  int

	dirty  []int32 // classes its consequent writes touched
	valBuf []relation.Value
}

// newCoverTracker builds the tracker of d on tt, the table of d's
// antecedent, from one pass over the table's row→class array.
func newCoverTracker(v *core.Verifier, tt *trackerTable, d core.OFD) *coverTracker {
	ct := &coverTracker{d: d, tt: tt}
	ct.counts = live.CountClasses(tt.tab, v.Relation().Column(d.RHS))
	ct.sat = make([]bool, len(ct.counts))
	for ci := range ct.sat {
		ct.sat[ci] = ct.classSatisfied(v, int32(ci))
		if !ct.sat[ci] {
			ct.unsat++
		}
	}
	return ct
}

// valid reports the tracked candidate's current validity.
func (ct *coverTracker) valid() bool { return ct.unsat == 0 }

func (ct *coverTracker) classSatisfied(v *core.Verifier, ci int32) bool {
	if ct.tt.tab.Sizes[ci] <= 1 || len(ct.counts[ci]) <= 1 {
		return true // singleton, empty, or syntactically constant (FD case)
	}
	ct.valBuf = live.Distinct(ct.counts[ci], ct.valBuf)
	return v.ValuesSatisfied(ct.d.RHS, ct.valBuf)
}

// applyWrites folds one batch of effective cell writes into the table and
// its trackers. The relation must already hold the target state; writes
// carry the source value per cell and must be sorted by (row, col).
// Re-applying the inverted log after reverting the relation rolls the
// batch back: the transitions are symmetric, so validity state is
// restored exactly (a class born and emptied along the way lingers at
// size zero, which is semantically a non-class).
func (tt *trackerTable) applyWrites(rel *relation.Relation, v *core.Verifier, writes []cellWrite) {
	tab := tt.tab
	if !tt.lhs.Intersect(core.Touched(writes)).IsEmpty() {
		tab.Prepare(rel, writes)
	}
	// Phase 1 — leave: rows whose antecedent projection changed exit their
	// source-state key group; consequent-only changes adjust multisets in
	// place.
	forEachRowSegment(writes, func(t int, seg []cellWrite) {
		xChanged := false
		for _, wr := range seg {
			if tt.lhs.Has(wr.Col) {
				xChanged = true
			}
		}
		ci := tab.RowClass[t]
		if !xChanged {
			if ci < 0 {
				return
			}
			for _, ct := range tt.cover {
				if wr, ok := live.Written(seg, ct.d.RHS); ok {
					ct.counts[ci] = live.Replace(ct.counts[ci], wr.Old, rel.Value(t, wr.Col))
					ct.dirty = append(ct.dirty, ci)
				}
			}
			return
		}
		if ci >= 0 {
			for _, ct := range tt.cover {
				preA := rel.Value(t, ct.d.RHS)
				if wr, ok := live.Written(seg, ct.d.RHS); ok {
					preA = wr.Old
				}
				ct.counts[ci] = live.Bump(ct.counts[ci], preA, -1)
			}
			tab.Leave(int32(t))
			tt.dirty = append(tt.dirty, ci)
		} else {
			// Lone row: its key points at t and is now stale.
			tab.DropKey(rel, seg, t)
		}
		tt.floating = append(tt.floating, int32(t))
	})
	// Phase 2 — join: floating rows enter their target-state key group.
	// All reads are target-state (the relation), so ordering within the
	// phase only affects internal ids, never class contents.
	for _, t := range tt.floating {
		tt.join(rel, t)
	}
	tt.recheck(v)
}

// appendRows joins the appended rows [t0, end) in ascending order.
func (tt *trackerTable) appendRows(rel *relation.Relation, v *core.Verifier, t0, end int32) {
	tt.tab.Prepare(rel, nil)
	tt.tab.Grow(int(end))
	for t := t0; t < end; t++ {
		tt.join(rel, t)
	}
	tt.recheck(v)
}

// join enters row t, which belongs to no class, through its current key
// and folds the outcome into every tracker: a birth adds the new class's
// multiset and a satisfied flag.
func (tt *trackerTable) join(rel *relation.Relation, t int32) {
	ci, partner, kind := tt.tab.Join(rel, t)
	if kind == live.JoinLone {
		return
	}
	for _, ct := range tt.cover {
		ct.counts = live.Joined(ct.counts, rel.Column(ct.d.RHS), t, ci, partner, kind)
		if kind == live.JoinBirth {
			ct.sat = append(ct.sat, true)
		}
	}
	tt.dirty = append(tt.dirty, ci)
}

// recheck has every tracker re-verify its dirty classes and leaves the
// batch scratch empty.
func (tt *trackerTable) recheck(v *core.Verifier) {
	slices.Sort(tt.dirty)
	tt.dirty = slices.Compact(tt.dirty)
	for _, ct := range tt.cover {
		ct.recheckDirty(v, tt.dirty)
	}
	tt.dirty = tt.dirty[:0]
	tt.floating = tt.floating[:0]
}

// recheckDirty re-verifies, once each, the classes in shared (the
// table's dirty classes, sorted and deduplicated) and in the tracker's
// own dirty list, and maintains the unsat counter.
func (ct *coverTracker) recheckDirty(v *core.Verifier, shared []int32) {
	dirty := shared
	if len(ct.dirty) > 0 {
		ct.dirty = append(ct.dirty, shared...)
		slices.Sort(ct.dirty)
		dirty = slices.Compact(ct.dirty)
	}
	for _, ci := range dirty {
		now := ct.classSatisfied(v, ci)
		if now != ct.sat[ci] {
			ct.sat[ci] = now
			if now {
				ct.unsat--
			} else {
				ct.unsat++
			}
		}
	}
	ct.dirty = ct.dirty[:0]
}

// witnessTracker pins one violating equivalence class — a certificate of
// invalidity — of a negative-border node W → A (a maximal invalid
// candidate). It maintains the exact consequent multiset of the rows
// matching the witness key, so a batch leaves the candidate provably
// invalid for O(touched rows) work whenever the certificate class still
// violates; only a broken certificate (the class became satisfied, shrank
// below two tuples, or collapsed to one value) forces a full rescan.
// Appends can never break a certificate: joining a violating class can
// only grow its distinct-value set, and satisfiability is antitone in it.
type witnessTracker struct {
	d      core.OFD
	cols   []int
	colSet relation.AttrSet // W ∪ {A}

	key  string // encoded antecedent key of the witness class
	size int32
	vals []live.ValCount

	keyBuf []byte
	valBuf []relation.Value

	// Staged replacement certificate: a batch that broke the witness but
	// left the node invalid found a new violating class during the verify
	// phase; it lands in commit, never inside the cancellable window.
	pendingKey  string
	pendingSize int32
	pendingVals []live.ValCount
	hasPending  bool
}

func newWitnessTracker(d core.OFD, key string, size int32, vals []live.ValCount) *witnessTracker {
	return &witnessTracker{
		d:      d,
		cols:   d.LHS.Attrs(),
		colSet: d.LHS.With(d.RHS),
		key:    key,
		size:   size,
		vals:   vals,
	}
}

func (wt *witnessTracker) scope() relation.AttrSet { return wt.colSet }

// violating reports whether the certificate class still violates W → A.
func (wt *witnessTracker) violating(v *core.Verifier) bool {
	if wt.size <= 1 || len(wt.vals) <= 1 {
		return false
	}
	wt.valBuf = live.Distinct(wt.vals, wt.valBuf)
	return !v.ValuesSatisfied(wt.d.RHS, wt.valBuf)
}

// stagePending stages a replacement certificate found by a full rescan.
func (wt *witnessTracker) stagePending(key string, size int32, vals []live.ValCount) {
	wt.pendingKey, wt.pendingSize, wt.pendingVals = key, size, vals
	wt.hasPending = true
}

// commitPending installs the staged certificate (no-op without one).
func (wt *witnessTracker) commitPending() {
	if !wt.hasPending {
		return
	}
	wt.key, wt.size, wt.vals = wt.pendingKey, wt.pendingSize, wt.pendingVals
	wt.clearPending()
}

func (wt *witnessTracker) clearPending() {
	wt.pendingKey, wt.pendingSize, wt.pendingVals = "", 0, nil
	wt.hasPending = false
}

// sourceInClass reports whether row t's source-state antecedent projection
// matches the witness key (written cells read logged old values).
func (wt *witnessTracker) sourceInClass(rel *relation.Relation, seg []cellWrite, t int) bool {
	for k, c := range wt.cols {
		val := rel.Value(t, c)
		for _, wr := range seg {
			if wr.Col == c {
				val = wr.Old
				break
			}
		}
		off := k * 4
		if wt.key[off] != byte(val) || wt.key[off+1] != byte(val>>8) ||
			wt.key[off+2] != byte(val>>16) || wt.key[off+3] != byte(val>>24) {
			return false
		}
	}
	return true
}

// applyWrites maintains the witness class's membership and consequent
// multiset under one effective-write log (same conventions and rollback
// symmetry as coverTracker.applyWrites).
func (wt *witnessTracker) applyWrites(rel *relation.Relation, v *core.Verifier, writes []cellWrite) {
	forEachRowSegment(writes, func(t int, seg []cellWrite) {
		relevant := false
		hadA := false
		var aOld relation.Value
		for _, wr := range seg {
			if wr.Col == wt.d.RHS {
				hadA, aOld = true, wr.Old
				relevant = true
			} else if wt.d.LHS.Has(wr.Col) {
				relevant = true
			}
		}
		if !relevant {
			return
		}
		srcIn := wt.sourceInClass(rel, seg, t)
		wt.keyBuf = live.EncodeKey(rel, wt.cols, t, wt.keyBuf)
		tgtIn := string(wt.keyBuf) == wt.key
		preA := rel.Value(t, wt.d.RHS)
		if hadA {
			preA = aOld
		}
		switch {
		case srcIn && tgtIn:
			if hadA {
				wt.vals = live.Bump(live.Bump(wt.vals, preA, -1), rel.Value(t, wt.d.RHS), 1)
			}
		case srcIn && !tgtIn:
			wt.size--
			wt.vals = live.Bump(wt.vals, preA, -1)
		case !srcIn && tgtIn:
			wt.size++
			wt.vals = live.Bump(wt.vals, rel.Value(t, wt.d.RHS), 1)
		}
	})
}

func (wt *witnessTracker) appendRows(rel *relation.Relation, v *core.Verifier, t0, end int32) {
	for t := t0; t < end; t++ {
		wt.keyBuf = live.EncodeKey(rel, wt.cols, int(t), wt.keyBuf)
		if string(wt.keyBuf) != wt.key {
			continue
		}
		wt.size++
		wt.vals = live.Bump(wt.vals, rel.Value(int(t), wt.d.RHS), 1)
	}
}

// scanResult is a one-shot verification of a candidate against the
// current relation: overall validity plus, when invalid and requested, the
// violating class with the smallest representative row — the
// deterministic certificate choice.
type scanResult struct {
	valid   bool
	witKey  string
	witSize int32
	witVals []live.ValCount
}

// witnessScanParts is scanCandidate(needWitness=true) answered from the
// verifier's partition cache: the classes of Π*_X come from a (typically
// cached) product instead of re-hashing every row. Partition classes are
// ordered by smallest representative, so the first violating class found
// is exactly the one scanCandidate pins, and the walk stops there. buf is
// the caller's per-worker scratch for cache-miss products (nil allowed).
func witnessScanParts(pv *core.Verifier, d core.OFD, buf *relation.ProductBuffer) scanResult {
	rel := pv.Relation()
	p := pv.Partitions().GetWith(d.LHS, buf)
	col := rel.Column(d.RHS)
	res := scanResult{valid: true}
	var vals []live.ValCount
	var scratch []relation.Value
	for i := 0; i < p.NumClasses(); i++ {
		class := p.Class(i)
		vals = vals[:0]
		for _, t := range class {
			vals = live.Bump(vals, col.At(int(t)), 1)
		}
		if len(vals) <= 1 {
			continue
		}
		scratch = live.Distinct(vals, scratch)
		if pv.ValuesSatisfied(d.RHS, scratch) {
			continue
		}
		res.valid = false
		res.witKey = string(live.EncodeKey(rel, d.LHS.Attrs(), int(class[0]), nil))
		res.witSize = int32(len(class))
		res.witVals = append([]live.ValCount(nil), vals...)
		return res
	}
	return res
}

// scanCandidate verifies X → A from scratch in one pass over the
// relation: group rows by encoded antecedent key, then test each
// multi-tuple, multi-value group for a common interpretation. This is the
// maintainer's untracked-node verifier; it reads only the relation and the
// verifier's monotone names tables, so it is safe under any sequence of
// prior in-place mutations (no partition cache involved). The lattice
// optimizations degenerate into it naturally: a superkey antecedent
// produces only singleton groups (Opt-3) and an FD-satisfying class has a
// single distinct value (Opt-4), both skipped without touching the
// ontology.
func scanCandidate(rel *relation.Relation, v *core.Verifier, d core.OFD, needWitness bool) scanResult {
	type grp struct {
		size int32
		vals []live.ValCount
		rep  int32
	}
	cols := d.LHS.Attrs()
	groups := make(map[string]*grp, 64)
	col := rel.Column(d.RHS)
	n := rel.NumRows()
	var buf []byte
	for t := 0; t < n; t++ {
		buf = live.EncodeKey(rel, cols, t, buf)
		g := groups[string(buf)]
		if g == nil {
			g = &grp{rep: int32(t)}
			groups[string(buf)] = g
		}
		g.size++
		g.vals = live.Bump(g.vals, col.At(int(t)), 1)
	}
	res := scanResult{valid: true}
	var scratch []relation.Value
	bestRep := int32(-1)
	for key, g := range groups {
		if g.size <= 1 || len(g.vals) <= 1 {
			continue
		}
		scratch = live.Distinct(g.vals, scratch)
		if v.ValuesSatisfied(d.RHS, scratch) {
			continue
		}
		res.valid = false
		if !needWitness {
			return res
		}
		if bestRep < 0 || g.rep < bestRep {
			bestRep = g.rep
			res.witKey = key
			res.witSize = g.size
			res.witVals = g.vals
		}
	}
	return res
}
