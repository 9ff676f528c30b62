package discovery

import (
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

// batchTracker is the per-candidate incremental state the maintainer fans
// a batch out over: cover trackers (full class state) and witness trackers
// (one pinned violating class). Both fold a sorted effective-write log or
// an appended row into their state with no shared writes, so the fan-out
// parallelizes freely.
type batchTracker interface {
	// scope returns the attribute set whose writes can affect the tracker
	// (LHS ∪ {RHS}); the maintainer skips trackers disjoint from a batch.
	scope() relation.AttrSet
	applyWrites(rel *relation.Relation, v *core.Verifier, writes []cellWrite)
	appendRow(rel *relation.Relation, v *core.Verifier, t int32)
}

// coverTracker maintains the exact equivalence-class state of one cover
// element X → A on a live.ClassIndex — the same key index and per-class
// consequent multisets the monitor's dependencies run on, with class
// sizes in place of member lists — plus a per-row class assignment and per-class satisfaction flags, so a
// batch's effect on the candidate's validity is known from O(touched
// rows) work. The candidate is valid ⇔ unsat == 0. Singleton keys use the
// shared lone-row encoding and carry no class state (they cannot
// violate), which keeps superkey-shaped trackers at one index entry per
// row and nothing else.
type coverTracker struct {
	d      core.OFD
	cols   []int
	colSet relation.AttrSet // X ∪ {A}

	// ix owns the key index (≥ 0 class id; ≤ −2 lone row −(t+2)), the
	// per-class sizes, and the consequent multisets. Members stays nil:
	// trackers need class sizes, not member lists.
	ix       *live.ClassIndex
	rowClass []int32 // ≥ 0 class id; −1 lone (or floating mid-batch)
	sat      []bool
	unsat    int

	dirty    []int32 // class ids touched by the in-flight batch
	floating []int32 // rows between the leave and join phases
	keyBuf   []byte
	valBuf   []relation.Value
}

// newCoverTrackerParts builds the same tracker state as newCoverTracker
// from a partition-backed verifier over the current instance: the classes
// of Π*_X arrive from a (typically cached) product, so only one key per
// class plus each singleton row pays the encode-and-hash that the from-
// scratch build pays for every row. The keys are built from the row→class
// table by buildKeys, the pass a snapshot-restored tracker runs too.
// Class ids follow partition order instead of second-occurrence order —
// internal numbering only, invisible outside the tracker.
func newCoverTrackerParts(v *core.Verifier, d core.OFD) *coverTracker {
	rel := v.Relation()
	ct := &coverTracker{
		d:      d,
		cols:   d.LHS.Attrs(),
		colSet: d.LHS.With(d.RHS),
		ix:     &live.ClassIndex{Cols: d.LHS.Attrs(), RHS: d.RHS},
	}
	p := v.Partitions().Get(d.LHS)
	n := rel.NumRows()
	nc := p.NumClasses()
	ix := ct.ix
	ct.rowClass = make([]int32, n)
	for t := range ct.rowClass {
		ct.rowClass[t] = -1
	}
	col := rel.Column(d.RHS)
	ix.Sizes = make([]int32, nc)
	ix.Counts = make([][]live.ValCount, nc)
	ct.sat = make([]bool, nc)
	// The multisets are counted in one scratch and packed back to back
	// into one array; each class's slice is capped at its own pairs, so a
	// later Bump that adds a value reallocates that class alone.
	var scratch, pairs []live.ValCount
	ends := make([]int, nc)
	for i := 0; i < nc; i++ {
		class := p.Class(i)
		ix.Sizes[i] = int32(len(class))
		scratch = scratch[:0]
		for _, t := range class {
			ct.rowClass[t] = int32(i)
			scratch = live.Bump(scratch, col.At(int(t)), 1)
		}
		pairs = append(pairs, scratch...)
		ends[i] = len(pairs)
	}
	for i, lo := 0, 0; i < nc; i++ {
		ix.Counts[i] = pairs[lo:ends[i]:ends[i]]
		lo = ends[i]
	}
	// Rows outside every stripped class become lone entries with no class
	// state; no two of them can share a key.
	ct.buildKeys(rel)
	for ci := range ix.Sizes {
		ct.sat[ci] = ct.classSatisfied(v, int32(ci))
		if !ct.sat[ci] {
			ct.unsat++
		}
	}
	return ct
}

func newCoverTracker(rel *relation.Relation, v *core.Verifier, d core.OFD) *coverTracker {
	ct := &coverTracker{
		d:      d,
		cols:   d.LHS.Attrs(),
		colSet: d.LHS.With(d.RHS),
		ix:     live.NewClassIndex(d.LHS.Attrs(), d.RHS),
	}
	n := rel.NumRows()
	ct.ix.Keys = make(map[string]int32, n/2+1)
	ct.rowClass = make([]int32, 0, n)
	for t := 0; t < n; t++ {
		ci, partner, kind := ct.ix.Join(rel, int32(t))
		switch kind {
		case live.JoinLone:
			ct.rowClass = append(ct.rowClass, -1)
		case live.JoinBirth:
			ct.rowClass[partner] = ci
			ct.rowClass = append(ct.rowClass, ci)
			ct.sat = append(ct.sat, true)
		default:
			ct.rowClass = append(ct.rowClass, ci)
		}
	}
	for ci := range ct.ix.Sizes {
		ct.sat[ci] = ct.classSatisfied(v, int32(ci))
		if !ct.sat[ci] {
			ct.unsat++
		}
	}
	return ct
}

func (ct *coverTracker) scope() relation.AttrSet { return ct.colSet }

// buildKeys builds the key map from rowClass (live.IndexKeys): one key
// per class that holds a row, one per lone row. rel must hold the state
// rowClass describes for its rows.
func (ct *coverTracker) buildKeys(rel *relation.Relation) {
	live.IndexKeys(ct.ix, ct.rowClass, func(blob []byte, t int) []byte {
		return live.AppendKey(blob, rel, ct.cols, t)
	})
}

// valid reports the tracked candidate's current validity.
func (ct *coverTracker) valid() bool { return ct.unsat == 0 }

func (ct *coverTracker) classSatisfied(v *core.Verifier, ci int32) bool {
	if ct.ix.Sizes[ci] <= 1 || len(ct.ix.Counts[ci]) <= 1 {
		return true // singleton, empty, or syntactically constant (FD case)
	}
	ct.valBuf = live.Distinct(ct.ix.Counts[ci], ct.valBuf)
	return v.ValuesSatisfied(ct.d.RHS, ct.valBuf)
}

// sourceKey encodes row t's antecedent projection in the batch's source
// state (core.AppendSourceKey).
func (ct *coverTracker) sourceKey(rel *relation.Relation, seg []cellWrite, t int) string {
	ct.keyBuf = core.AppendSourceKey(ct.keyBuf[:0], rel, ct.cols, seg, t)
	return string(ct.keyBuf)
}

// applyWrites folds one batch of effective cell writes into the tracker.
// The relation must already hold the target state; writes carry the source
// value per cell and must be sorted by (row, col). Re-applying the
// inverted log after reverting the relation rolls the batch back: the
// transitions are symmetric, so validity state is restored exactly (a
// class born and emptied along the way lingers at size zero, which is
// semantically a non-class).
func (ct *coverTracker) applyWrites(rel *relation.Relation, v *core.Verifier, writes []cellWrite) {
	ct.dirty = ct.dirty[:0]
	ct.floating = ct.floating[:0]
	ix := ct.ix
	// Phase 1 — leave: rows whose antecedent projection changed exit their
	// source-state key group; consequent-only changes adjust multisets in
	// place.
	forEachRowSegment(writes, func(t int, seg []cellWrite) {
		xChanged, hadA := false, false
		var aOld relation.Value
		for _, wr := range seg {
			if wr.Col == ct.d.RHS {
				hadA, aOld = true, wr.Old
			} else if ct.d.LHS.Has(wr.Col) {
				xChanged = true
			}
		}
		if !xChanged {
			if !hadA {
				return
			}
			if ci := ct.rowClass[t]; ci >= 0 {
				ix.BumpVal(ci, aOld, rel.Value(t, ct.d.RHS))
				ct.dirty = append(ct.dirty, ci)
			}
			return
		}
		preA := rel.Value(t, ct.d.RHS)
		if hadA {
			preA = aOld
		}
		if ci := ct.rowClass[t]; ci >= 0 {
			ix.Leave(ci, int32(t), preA)
			ct.dirty = append(ct.dirty, ci)
			ct.rowClass[t] = -1
		} else {
			// Lone row: its index entry points at t and is now stale.
			delete(ix.Keys, ct.sourceKey(rel, seg, t))
		}
		ct.floating = append(ct.floating, int32(t))
	})
	// Phase 2 — join: floating rows enter their target-state key group.
	// All reads are target-state (the relation), so ordering within the
	// phase only affects internal ids, never class contents.
	for _, t32 := range ct.floating {
		ct.keyBuf = live.EncodeKey(rel, ct.cols, int(t32), ct.keyBuf)
		ci, partner, kind := ix.JoinKey(rel, ct.keyBuf, t32)
		switch kind {
		case live.JoinLone:
			continue
		case live.JoinBirth:
			ct.rowClass[partner] = ci
			ct.sat = append(ct.sat, true)
		}
		ct.rowClass[t32] = ci
		ct.dirty = append(ct.dirty, ci)
	}
	ct.recheckDirty(v)
}

// recheckDirty re-verifies the batch's dirty classes (deduplicated) and
// maintains the unsat counter.
func (ct *coverTracker) recheckDirty(v *core.Verifier) {
	if len(ct.dirty) == 0 {
		return
	}
	// Sort + unique: a class touched several times re-verifies once.
	for i := 1; i < len(ct.dirty); i++ {
		for j := i; j > 0 && ct.dirty[j] < ct.dirty[j-1]; j-- {
			ct.dirty[j], ct.dirty[j-1] = ct.dirty[j-1], ct.dirty[j]
		}
	}
	prev := int32(-1)
	for _, ci := range ct.dirty {
		if ci == prev {
			continue
		}
		prev = ci
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
}

func (ct *coverTracker) appendRow(rel *relation.Relation, v *core.Verifier, t int32) {
	ct.dirty = ct.dirty[:0]
	ci, partner, kind := ct.ix.Join(rel, t)
	switch kind {
	case live.JoinLone:
		ct.rowClass = append(ct.rowClass, -1)
		return
	case live.JoinBirth:
		ct.rowClass[partner] = ci
		ct.sat = append(ct.sat, true)
	}
	ct.rowClass = append(ct.rowClass, ci)
	ct.dirty = append(ct.dirty, ci)
	ct.recheckDirty(v)
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

func (wt *witnessTracker) appendRow(rel *relation.Relation, v *core.Verifier, t int32) {
	wt.keyBuf = live.EncodeKey(rel, wt.cols, int(t), wt.keyBuf)
	if string(wt.keyBuf) != wt.key {
		return
	}
	wt.size++
	wt.vals = live.Bump(wt.vals, rel.Value(int(t), wt.d.RHS), 1)
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
