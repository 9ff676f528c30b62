package discovery

import (
	"slices"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// cellWrite is one effective cell write of the substrate's write log,
// shared by both engines: Old is the source-state value, New the
// target-state value. Witness trackers fold a batch while the relation
// holds the target state, so they read source values from the log.
type cellWrite = core.CellWrite

// coverTracker is the maintainer's handle on one cover element X → A:
// the substrate's state of it (core.DepState), whose per-class multisets
// and verdicts on the table over X the substrate folds each batch into,
// for O(touched rows), once for both engines. The candidate is valid ⇔
// no class violates. Lone rows carry no class state (they cannot
// violate), which keeps superkey-shaped tables at one key per row.
type coverTracker struct {
	d  core.OFD
	st *core.DepState
}

// valid reports the tracked candidate's current validity.
func (ct *coverTracker) valid() bool { return ct.st.Violating() == 0 }

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

// fold maintains the witness class's membership and consequent multiset
// under the batch: the write log, or the appended rows [t0, end).
func (wt *witnessTracker) fold(rel *relation.Relation, writes []cellWrite, t0, end int32) {
	if len(writes) > 0 {
		wt.applyWrites(rel, writes, 1)
		return
	}
	for t := t0; t < end; t++ {
		wt.keyBuf = live.EncodeKey(rel, wt.cols, int(t), wt.keyBuf)
		if string(wt.keyBuf) == wt.key {
			wt.size++
			wt.vals = live.Bump(wt.vals, rel.Value(int(t), wt.d.RHS), 1)
		}
	}
}

// unfold reverses fold of a batch of writes that was then cancelled, with
// the relation still in the batch's target state, and drops any staged
// replacement. The multiset is canonical (see live.Bump), so it reads as
// before the batch.
func (wt *witnessTracker) unfold(rel *relation.Relation, writes []cellWrite) {
	wt.applyWrites(rel, writes, -1)
	wt.clearPending()
}

// applyWrites folds (sign 1) or unfolds (sign -1) one effective-write
// log into the witness class, with the relation in the batch's target
// state: a row whose source state matches the witness key leaves the
// class, and one whose target state matches joins it.
func (wt *witnessTracker) applyWrites(rel *relation.Relation, writes []cellWrite, sign int32) {
	live.EachRow(writes, func(t int, seg []cellWrite) {
		wr, hadA := live.Written(seg, wt.d.RHS)
		if !hadA && !slices.ContainsFunc(seg, func(w cellWrite) bool { return wt.d.LHS.Has(w.Col) }) {
			return
		}
		wt.keyBuf = live.AppendSourceKey(wt.keyBuf[:0], rel, wt.cols, seg, t)
		srcIn := string(wt.keyBuf) == wt.key
		wt.keyBuf = live.EncodeKey(rel, wt.cols, t, wt.keyBuf)
		tgtIn := string(wt.keyBuf) == wt.key
		preA, postA := rel.Value(t, wt.d.RHS), rel.Value(t, wt.d.RHS)
		if hadA {
			preA = wr.Old
		}
		if srcIn && tgtIn {
			if hadA {
				wt.vals = live.Bump(live.Bump(wt.vals, preA, -sign), postA, sign)
			}
			return
		}
		if srcIn {
			wt.size -= sign
			wt.vals = live.Bump(wt.vals, preA, -sign)
		}
		if tgtIn {
			wt.size += sign
			wt.vals = live.Bump(wt.vals, postA, sign)
		}
	})
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

// witnessScanParts verifies X → A from the verifier's partition cache and
// returns, when it fails, the violating class with the smallest
// representative row: the classes of Π*_X come from a (typically cached)
// product instead of re-hashing every row, and they are ordered by
// smallest representative, so the walk stops at the first violating class.
// buf is the caller's per-worker scratch for cache-miss products (nil
// allowed).
func witnessScanParts(pv *core.Verifier, d core.OFD, buf *relation.ProductBuffer) scanResult {
	rel := pv.Relation()
	p := pv.Partitions().GetWith(d.LHS, buf)
	col := rel.Column(d.RHS)
	res := scanResult{valid: true}
	var vals []live.ValCount
	var scratch []relation.Value
	for i := 0; i < p.NumClasses(); i++ {
		class := p.Class(i)
		vals = live.ClassCounts(col, class, vals)
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
