package live

import (
	"github.com/fastofd/fastofd/internal/relation"
)

// JoinKind reports which of the three key-index cases a Join took.
type JoinKind uint8

const (
	// JoinLone means the key was fresh: the row is recorded as a lone
	// (singleton) row and belongs to no class yet.
	JoinLone JoinKind = iota
	// JoinBirth means the key named a lone row: that partner row was
	// promoted and a new two-tuple class was born.
	JoinBirth
	// JoinExisting means the row joined an already-existing class.
	JoinExisting
)

// ClassIndex is one live equivalence-class index over a fixed antecedent
// column list: the dict-encoded LHS-key map (class ids >= 0, lone rows as
// LoneRow(t) <= -2), the per-class consequent value multisets, optional
// per-class sizes, and an optional partition overlay that records class
// membership for certificate materialization.
//
// The monitor's shards use one ClassIndex per (shard, OFD) with Part set
// (class ids are overlay class ids) and sizes untracked; the maintainer's
// cover trackers use one per cover element with Part nil, TrackSizes on,
// and their own row→class array alongside.
//
// All mutating operations are undo-symmetric: every state change is either
// a Bump (inverted by the opposite Bump), a Join (whose Lone/Birth cases
// the batch protocols only take on appends, which are never rolled back),
// or a Leave (inverted by re-Join through the same key) — so both engines'
// atomic-batch rollback contracts survive the extraction unchanged.
type ClassIndex struct {
	// Cols is the antecedent column list, ascending; keys are encoded over
	// it with EncodeKey (4 bytes per column, fixed width).
	Cols []int
	// RHS is the consequent column whose values the multisets count.
	RHS int
	// Keys maps the encoded antecedent value tuple to the class holding
	// it: values >= 0 are class ids, values <= -2 encode a lone row as
	// LoneRow(t). Keys absent from the map have never been seen. Nil when
	// the index is in frozen (snapshot-restored) form — see Hydrate.
	Keys map[string]int32
	// Counts[ci] is the multiset of consequent values of class ci, as
	// (value, multiplicity) pairs. Maintained on every write, it makes
	// re-verification O(distinct values) — independent of class size.
	Counts [][]ValCount
	// Sizes[ci] is the number of rows in class ci, maintained only when
	// TrackSizes is set (trackers shrink classes on antecedent writes; the
	// monitor's classes only grow and sizes live in the overlay).
	Sizes []int32
	// TrackSizes enables Sizes maintenance.
	TrackSizes bool
	// Part, when non-nil, is the partition overlay recording class
	// membership; Join births and grows its classes, and class ids equal
	// overlay class ids.
	Part *relation.PartitionOverlay

	// FrozenKeys/FrozenVals hold the key index in serialized array form on
	// a snapshot-restored index (sorted fixed-width key blob plus parallel
	// encoded values); Keys is nil until Hydrate materializes the map. The
	// freeze is an array-of-entries copy, not a different contract.
	FrozenKeys []byte
	FrozenVals []int32

	keyBuf []byte
}

// NewClassIndex builds an empty index over the given antecedent columns
// and consequent.
func NewClassIndex(cols []int, rhs int) *ClassIndex {
	return &ClassIndex{Cols: cols, RHS: rhs, Keys: make(map[string]int32)}
}

// Width returns the fixed encoded key width in bytes.
func (ix *ClassIndex) Width() int { return 4 * len(ix.Cols) }

// EncodeRow encodes row t's antecedent key into the index's scratch
// buffer and returns it (valid until the next EncodeRow/Join call).
func (ix *ClassIndex) EncodeRow(rel *relation.Relation, t int) []byte {
	ix.keyBuf = EncodeKey(rel, ix.Cols, t, ix.keyBuf)
	return ix.keyBuf
}

// Join routes row t (already present in rel, holding its final values)
// into the index by its encoded antecedent key: a fresh key records t as
// a lone row, a lone-row key births a two-tuple class with the promoted
// partner, and a class key joins the existing class. Returns the class id
// (-1 for JoinLone), the promoted partner row (JoinBirth only, else -1),
// and the case taken. Rows must join in ascending id order per class —
// appends always do.
func (ix *ClassIndex) Join(rel *relation.Relation, t int32) (ci, partner int32, kind JoinKind) {
	return ix.JoinKey(rel, ix.EncodeRow(rel, int(t)), t)
}

// JoinKey is Join with a caller-encoded key (the monitor encodes once to
// pick the owning shard, then joins inside it).
func (ix *ClassIndex) JoinKey(rel *relation.Relation, key []byte, t int32) (ci, partner int32, kind JoinKind) {
	enc, seen := ix.Keys[string(key)]
	switch {
	case !seen:
		ix.Keys[string(key)] = LoneRow(t)
		return -1, -1, JoinLone
	case enc <= -2: // lone row: birth a two-tuple class
		r := -enc - 2
		var nc int32
		if ix.Part != nil {
			nc = int32(ix.Part.AddClass(r, t))
		} else {
			nc = int32(len(ix.Counts))
		}
		ix.Keys[string(key)] = nc
		col := rel.Column(ix.RHS)
		pairs := Bump(Bump(make([]ValCount, 0, 2), col.At(int(r)), 1), col.At(int(t)), 1)
		ix.Counts = append(ix.Counts, pairs)
		if ix.TrackSizes {
			ix.Sizes = append(ix.Sizes, 2)
		}
		return nc, r, JoinBirth
	default: // existing class
		if ix.Part != nil {
			ix.Part.Add(int(enc), t)
		}
		ix.Counts[enc] = Bump(ix.Counts[enc], rel.Value(int(t), ix.RHS), 1)
		if ix.TrackSizes {
			ix.Sizes[enc]++
		}
		return enc, -1, JoinExisting
	}
}

// BumpVal replaces one occurrence of from with to in class ci's multiset
// — the consequent-write delta. BumpVal(ci, to, from) undoes it exactly.
func (ix *ClassIndex) BumpVal(ci int32, from, to relation.Value) {
	ix.Counts[ci] = Bump(Bump(ix.Counts[ci], from, -1), to, 1)
}

// Leave removes one row whose consequent is a from class ci (antecedent
// rewrites pull rows out of their old class). Requires TrackSizes;
// returns the class's remaining size. The inverse is a re-Join through
// the row's new key, which the tracker protocols perform in their join
// phase.
func (ix *ClassIndex) Leave(ci int32, a relation.Value) int32 {
	ix.Sizes[ci]--
	ix.Counts[ci] = Bump(ix.Counts[ci], a, -1)
	return ix.Sizes[ci]
}

// NeedsHydrate reports whether the index is still in frozen array form.
func (ix *ClassIndex) NeedsHydrate() bool { return ix.Keys == nil }

// SetFrozen puts the index into frozen array form (snapshot restore):
// keys is the concatenated fixed-width key blob, vals the parallel
// encoded values. The map form is dropped; Hydrate rebuilds it before the
// first key lookup.
func (ix *ClassIndex) SetFrozen(keys []byte, vals []int32) {
	ix.FrozenKeys, ix.FrozenVals = keys, vals
	ix.Keys = nil
}

// Hydrate materializes the key map from the frozen arrays. The blob is
// converted to a string once so every map key is a shared substring — one
// allocation for the whole index, same as the build path's interning.
func (ix *ClassIndex) Hydrate() {
	width := ix.Width()
	vals := ix.FrozenVals
	idx := make(map[string]int32, len(vals))
	if width == 0 {
		// Empty antecedent: at most one key (the empty string).
		if len(vals) > 0 {
			idx[""] = vals[0]
		}
	} else {
		blob := string(ix.FrozenKeys)
		for k, v := range vals {
			idx[blob[k*width:(k+1)*width]] = v
		}
	}
	ix.Keys = idx
	ix.FrozenKeys, ix.FrozenVals = nil, nil
}
