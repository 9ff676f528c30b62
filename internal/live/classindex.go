package live

import (
	"slices"

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
// LoneRow(t) <= -2), the per-class consequent value multisets, and either
// per-class sizes or per-class member lists.
//
// The monitor's shards use one ClassIndex per (shard, OFD) with Members
// set: certificates name a class's rows, so each class keeps them. The
// maintainer's cover trackers use one per cover element with Members nil,
// which selects Sizes, and their own row→class array alongside.
//
// Both engines move a row whose antecedent was written the same way: it
// Leaves its source-state class (or its lone-row key is deleted), then
// Joins through its target-state key, which may take any of the three
// Join cases. Classes therefore grow and shrink. The maintainer rolls a
// batch back by running the inverted write log through the same moves: a
// Bump is inverted by the opposite Bump, a Leave by a re-Join through the
// row's old key, and a class born along the way lingers at size zero. The
// monitor is never rolled back (a cancelled batch is undone before it is
// absorbed), so it also deletes the key of a class that empties.
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
	// Sizes[ci] is the number of rows in class ci, maintained when
	// Members is nil.
	Sizes []int32
	// Members[ci], when Members is non-nil, lists class ci's rows in
	// ascending order; Join births and grows classes, Leave shrinks them.
	// A list is copy-on-write, so a caller may keep one it read and it
	// never changes: a row past the last id is appended, in place only
	// past the list's length, and any other insert or any remove builds a
	// new slice. A list supplied from elsewhere (a cached partition's
	// class, a snapshot buffer) must have cap == len, so that its first
	// append copies too.
	Members [][]int32

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
// and the case taken. Rows may join in any order; member lists stay
// ascending.
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
		nc := int32(len(ix.Counts))
		ix.Keys[string(key)] = nc
		col := rel.Column(ix.RHS)
		pairs := Bump(Bump(make([]ValCount, 0, 2), col.At(int(r)), 1), col.At(int(t)), 1)
		ix.Counts = append(ix.Counts, pairs)
		if ix.Members != nil {
			ix.Members = append(ix.Members, []int32{min(r, t), max(r, t)})
		} else {
			ix.Sizes = append(ix.Sizes, 2)
		}
		return nc, r, JoinBirth
	default: // existing class
		ix.Counts[enc] = Bump(ix.Counts[enc], rel.Value(int(t), ix.RHS), 1)
		if ix.Members != nil {
			ix.addMember(enc, t)
		} else {
			ix.Sizes[enc]++
		}
		return enc, -1, JoinExisting
	}
}

// addMember joins row t to class ci's member list, keeping it ascending:
// a row past the last id is appended, any other is inserted into a new
// slice.
func (ix *ClassIndex) addMember(ci, t int32) {
	l := ix.Members[ci]
	if len(l) == 0 || t > l[len(l)-1] {
		ix.Members[ci] = append(l, t)
		return
	}
	k, _ := slices.BinarySearch(l, t)
	ix.Members[ci] = slices.Concat(l[:k], []int32{t}, l[k:])
}

// BumpVal replaces one occurrence of from with to in class ci's multiset
// — the consequent-write delta. BumpVal(ci, to, from) undoes it exactly.
func (ix *ClassIndex) BumpVal(ci int32, from, to relation.Value) {
	ix.Counts[ci] = Bump(Bump(ix.Counts[ci], from, -1), to, 1)
}

// Leave removes row t, whose pre-batch consequent is a, from class ci
// (antecedent rewrites pull rows out of their old class) and returns the
// class's remaining size: from Sizes when Members is nil, else from the
// member list, which loses the row into a new slice. The inverse is a
// re-Join through the row's old key.
func (ix *ClassIndex) Leave(ci, t int32, a relation.Value) int32 {
	ix.Counts[ci] = Bump(ix.Counts[ci], a, -1)
	if ix.Members == nil {
		ix.Sizes[ci]--
		return ix.Sizes[ci]
	}
	l := ix.Members[ci]
	if k, found := slices.BinarySearch(l, t); found {
		ix.Members[ci] = slices.Concat(l[:k], l[k+1:])
	}
	return int32(len(ix.Members[ci]))
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

// Hydrate materializes the key map from the frozen arrays through
// InternKeys, as the index builds do.
func (ix *ClassIndex) Hydrate() {
	ix.InternKeys(ix.FrozenKeys, ix.FrozenVals)
	ix.FrozenKeys, ix.FrozenVals = nil, nil
}

// InternKeys replaces the key map with one made at len(vals) entries:
// blob is the concatenation of the fixed-width keys and vals their
// parallel encoded values. The blob is converted to a string once, so
// every map key is a shared substring — one allocation for all keys.
func (ix *ClassIndex) InternKeys(blob []byte, vals []int32) {
	width := ix.Width()
	idx := make(map[string]int32, len(vals))
	if width == 0 {
		// Empty antecedent: at most one key (the empty string).
		if len(vals) > 0 {
			idx[""] = vals[0]
		}
	} else {
		keys := string(blob)
		for k, v := range vals {
			idx[keys[k*width:(k+1)*width]] = v
		}
	}
	ix.Keys = idx
}
