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
// The monitor uses one ClassIndex per dependency with Members set:
// certificates name a class's rows, so each class keeps them. The
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
	// LoneRow(t). Keys absent from the map have never been seen. Nil on a
	// snapshot-restored index: snapshots save no keys, and the owning
	// engine rebuilds them with IndexKeys before its first lookup.
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

// JoinKey is Join with a caller-encoded key (a tracker encodes into its
// own scratch).
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

// IndexKeys builds ix's key map from a row→class table: row t is in
// class classOf[t] (below len(ix.Counts)), or lone when classOf[t] is -1.
// Each class is keyed by its first row, each lone row by itself;
// appendKey appends row t's key to blob, called in ascending row order.
// The keys go into one blob that becomes one string, and the map, made at
// its final size, holds substrings of it — no string per key, no map
// growth. A class no row names, such as a tracker class a rollback
// emptied, gets no key: a size-zero class is a non-class, so a later row
// with its key births a new class instead of refilling it, which changes
// internal ids only.
func IndexKeys(ix *ClassIndex, classOf []int32, appendKey func(blob []byte, t int) []byte) {
	seen := make([]bool, len(ix.Counts))
	nkeys := len(ix.Counts)
	for _, ci := range classOf {
		if ci < 0 {
			nkeys++
		}
	}
	blob := make([]byte, 0, nkeys*ix.Width())
	vals := make([]int32, 0, nkeys)
	for t, ci := range classOf {
		v := LoneRow(int32(t))
		if ci >= 0 {
			if seen[ci] {
				continue
			}
			seen[ci] = true
			v = ci
		}
		blob = appendKey(blob, t)
		vals = append(vals, v)
	}
	ix.Keys = make(map[string]int32, len(vals))
	width := ix.Width()
	keys := string(blob)
	for k, v := range vals {
		ix.Keys[keys[k*width:(k+1)*width]] = v
	}
}
