package live

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"github.com/fastofd/fastofd/internal/relation"
)

// JoinKind reports which of the three key-map cases a Join took.
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

// CellWrite is one effective cell write of a batch: cell (Row, Col) went
// from Old to New. A batch's write log lists them sorted by (row, col),
// and both engines absorb the same log (core.Substrate produces it).
type CellWrite struct {
	Row, Col int
	Old, New relation.Value
}

// Table is the live equivalence-class table of one antecedent X: the
// classes of Π_X over every row, lone rows included. It holds
//
//   - the key map from X's value tuple to its class (ids ≥ 0) or lone row
//     (LoneRow(t) ≤ -2);
//   - RowClass, the row→class array;
//   - Sizes, the class sizes, and, when Members is non-nil, the classes'
//     copy-on-write member lists.
//
// An engine keeps one Table per distinct X and the state of each
// dependency X → A on top of it, indexed by the table's class ids: the
// consequent multisets (CountClasses, Joined) and whatever it verifies
// from them. A class id, once born, never changes meaning, so every
// dependency over X sees the same ids.
//
// Key layout. Keys pack X's dictionary codes into one uint64 as a mixed
// radix: column i gets a lane of radix 2·(|dict_i|+1), twice what its
// codes need when the layout is chosen, and a code v packs as v+1 (so
// NullValue packs as 0). Equal keys are equal code tuples, with no hash
// and no collision path. A batch may intern a value past a lane: Prepare
// checks the lanes against the dictionaries before the batch moves any
// row, drops the keys of a table that has outgrown them, and re-indexes
// it under a layout sized to the grown dictionaries. A table whose lanes
// cannot fit 64 bits keeps exact byte keys (AppendKey) instead.
//
// Both engines move a row whose antecedent was written the same way: it
// Leaves its source-state class (or its lone-row key is dropped through
// the source-state key, DropKey), then Joins through its target-state key.
// The maintainer rolls a batch back by running the inverted write log
// through the same moves; a class born along the way lingers at size
// zero, or holds its promoted partner alone. The monitor is never rolled back (a cancelled batch is undone
// before it is absorbed), so it also drops the key of a class that
// empties.
type Table struct {
	// Cols is the antecedent column list, ascending.
	Cols []int
	// RowClass[t] is row t's class, or -1 while t is a lone row.
	RowClass []int32
	// Sizes[c] is the number of rows in class c.
	Sizes []int32
	// Members[c], when Members is non-nil, lists class c's rows in
	// ascending order. A list is copy-on-write, so a caller may keep one
	// it read and it never changes: Flush rewrites a class into a new
	// slice, or appends rows past its last id in place past the list's
	// length. A list supplied from elsewhere (a cached partition's class,
	// a snapshot buffer) must have cap == len, so that its first append
	// copies too.
	Members [][]int32

	// radix holds the lane radix of each column of a packed layout; nil
	// selects byte keys.
	radix []uint64
	// keys (packed) or bkeys (bytes) maps each key to its class or lone
	// row. Neither is built while indexed is false: a table restored from
	// a snapshot (which saves no keys) as a literal of its exported
	// fields, or one whose lanes a dictionary outgrew.
	keys    map[uint64]int32
	bkeys   map[string]int32
	indexed bool

	keyBuf []byte
	// edits are the member-list changes of the current batch, one per
	// joined or left row, as class<<32 | row<<1 | joined; Flush applies
	// them.
	edits []uint64
}

// NewTable returns an empty table over cols with no rows and an empty
// key map laid out for rel's current dictionaries; members selects
// member lists. Its rows join with Grow and Join.
func NewTable(rel *relation.Relation, cols []int, members bool) *Table {
	tb := &Table{Cols: cols}
	if members {
		tb.Members = [][]int32{}
	}
	tb.Index(rel, nil)
	return tb
}

// FromPartition builds the table of p, the stripped partition Π*_X of
// rel over cols: its classes in partition order, every other row lone,
// and the key map. With members, each class's member list is the
// partition's class view itself (cap == len), which the lists'
// copy-on-write rule never writes.
func FromPartition(rel *relation.Relation, cols []int, p *relation.Partition, members bool) *Table {
	nc := p.NumClasses()
	tb := &Table{
		Cols:     cols,
		RowClass: make([]int32, rel.NumRows()),
		Sizes:    make([]int32, nc),
	}
	for t := range tb.RowClass {
		tb.RowClass[t] = -1
	}
	if members {
		tb.Members = make([][]int32, nc)
	}
	for ci := 0; ci < nc; ci++ {
		class := p.Class(ci)
		tb.Sizes[ci] = int32(len(class))
		if members {
			tb.Members[ci] = class
		}
		for _, t := range class {
			tb.RowClass[t] = int32(ci)
		}
	}
	tb.Index(rel, nil)
	return tb
}

// Packed reports whether the table's keys are packed integers (false:
// byte keys). Meaningful once the table is indexed.
func (tb *Table) Packed() bool { return tb.radix != nil }

// Indexed reports whether the key map is built.
func (tb *Table) Indexed() bool { return tb.indexed }

// NumKeys returns the number of keys in the map: one per class holding a
// row and one per lone row, plus, in the maintainer, the keys emptied
// classes keep.
func (tb *Table) NumKeys() int { return len(tb.keys) + len(tb.bkeys) }

// Lookup returns the class (≥ 0) or lone-row encoding (≤ -2) row t's
// current key maps to, and whether the key is present.
func (tb *Table) Lookup(rel *relation.Relation, t int) (int32, bool) {
	if tb.radix != nil {
		enc, ok := tb.keys[tb.pack(rel, nil, t)]
		return enc, ok
	}
	tb.keyBuf = AppendSourceKey(tb.keyBuf[:0], rel, tb.Cols, nil, t)
	enc, ok := tb.bkeys[string(tb.keyBuf)]
	return enc, ok
}

// layout sizes the lanes to rel's current dictionaries, or selects byte
// keys when their product overflows 64 bits.
func (tb *Table) layout(rel *relation.Relation) {
	radix := make([]uint64, len(tb.Cols))
	span := uint64(1)
	for i, c := range tb.Cols {
		radix[i] = 2 * (uint64(rel.Dict(c).Size()) + 1)
		hi, lo := bits.Mul64(span, radix[i])
		if hi != 0 {
			tb.radix = nil
			return
		}
		span = lo
	}
	tb.radix = radix
}

// fits reports whether every code of rel's dictionaries (and NullValue)
// still packs into its lane: the largest packs as the dictionary's size.
func (tb *Table) fits(rel *relation.Relation) bool {
	if tb.radix == nil {
		return true
	}
	for i, c := range tb.Cols {
		if uint64(rel.Dict(c).Size()) >= tb.radix[i] {
			return false
		}
	}
	return true
}

// pack returns row t's packed key in the source state of its write-log
// segment seg: a cell seg writes reads its logged Old value, any other
// the relation (see AppendSourceKey).
func (tb *Table) pack(rel *relation.Relation, seg []CellWrite, t int) uint64 {
	k := uint64(0)
	for i := len(tb.Cols) - 1; i >= 0; i-- {
		c := tb.Cols[i]
		v := rel.Value(t, c)
		if wr, ok := Written(seg, c); ok {
			v = wr.Old
		}
		k = k*tb.radix[i] + uint64(v+1)
	}
	return k
}

// Prepare readies the key map for a batch whose write log is writes
// (sorted by row; nil for appends), with the relation already holding
// the batch's values and the dictionaries every value it interned. A
// table whose dictionaries outgrew a lane drops its keys, and a table
// without keys (restored, or just dropped) re-indexes under a layout
// sized to the current dictionaries (Index), reading each written row's
// source-state codes from the log. Engines call it before moving any row
// of the batch.
func (tb *Table) Prepare(rel *relation.Relation, writes []CellWrite) {
	if tb.indexed && !tb.fits(rel) {
		tb.keys, tb.bkeys, tb.indexed = nil, nil, false
	}
	if !tb.indexed {
		tb.Index(rel, writes)
	}
}

// Index builds the key map from RowClass under a layout sized to rel's
// current dictionaries. A row is keyed by its codes in the source state
// of writes (the batch's write log, sorted by row; nil when the relation
// holds the state RowClass describes). Each class is keyed by its first
// row, each lone row by itself, and the map is made at its final size. A
// class no row names, such as a tracker class a rollback emptied, gets no
// key: a size-zero class is a non-class, so a later row with its key
// births a new class instead of refilling it, which changes internal ids
// only.
func (tb *Table) Index(rel *relation.Relation, writes []CellWrite) {
	tb.layout(rel)
	seen := make([]bool, len(tb.Sizes))
	nkeys := len(tb.Sizes)
	for _, ci := range tb.RowClass {
		if ci < 0 {
			nkeys++
		}
	}
	lo := 0
	// seg returns row t's write-log segment; rows are asked in ascending
	// order, like the log's.
	seg := func(t int) []CellWrite {
		for lo < len(writes) && writes[lo].Row < t {
			lo++
		}
		hi := lo
		for hi < len(writes) && writes[hi].Row == t {
			hi++
		}
		return writes[lo:hi]
	}
	// each calls key for every keyed row with the value its key maps to.
	each := func(key func(t int, v int32)) {
		for t, ci := range tb.RowClass {
			v := LoneRow(int32(t))
			if ci >= 0 {
				if seen[ci] {
					continue
				}
				seen[ci] = true
				v = ci
			}
			key(t, v)
		}
	}
	tb.indexed = true
	if tb.radix != nil {
		tb.bkeys = nil
		tb.keys = make(map[uint64]int32, nkeys)
		each(func(t int, v int32) { tb.keys[tb.pack(rel, seg(t), t)] = v })
		return
	}
	// Byte keys go into one blob that becomes one string; the map holds
	// substrings of it, so there is no string per key and no map growth.
	tb.keys = nil
	width := 4 * len(tb.Cols)
	blob := make([]byte, 0, nkeys*width)
	vals := make([]int32, 0, nkeys)
	each(func(t int, v int32) {
		blob = AppendSourceKey(blob, rel, tb.Cols, seg(t), t)
		vals = append(vals, v)
	})
	tb.bkeys = make(map[string]int32, len(vals))
	keys := string(blob)
	for k, v := range vals {
		tb.bkeys[keys[k*width:(k+1)*width]] = v
	}
}

// Grow extends RowClass to n rows, the new ones lone and not yet keyed:
// an engine grows its tables to the row count and then Joins each
// appended row.
func (tb *Table) Grow(n int) {
	for len(tb.RowClass) < n {
		tb.RowClass = append(tb.RowClass, -1)
	}
}

// Join routes row t, which belongs to no class (RowClass[t] == -1), by its
// current key: a fresh key records t as a lone row, a lone-row key births
// a two-tuple class with the promoted partner, and a class key joins the
// class. Returns the class id (-1 for JoinLone), the promoted partner row
// (JoinBirth only, else -1), and the case taken. The table must be
// indexed. A member-list table records the join for Flush.
func (tb *Table) Join(rel *relation.Relation, t int32) (ci, partner int32, kind JoinKind) {
	next := int32(len(tb.Sizes))
	var enc int32
	var seen bool
	if tb.radix != nil {
		k := tb.pack(rel, nil, int(t))
		enc, seen = tb.keys[k]
		switch {
		case !seen:
			tb.keys[k] = LoneRow(t)
		case enc <= -2:
			tb.keys[k] = next
		}
	} else {
		tb.keyBuf = AppendSourceKey(tb.keyBuf[:0], rel, tb.Cols, nil, int(t))
		enc, seen = tb.bkeys[string(tb.keyBuf)]
		switch {
		case !seen:
			tb.bkeys[string(tb.keyBuf)] = LoneRow(t)
		case enc <= -2:
			tb.bkeys[string(tb.keyBuf)] = next
		}
	}
	switch {
	case !seen:
		return -1, -1, JoinLone
	case enc <= -2: // lone row: birth a two-tuple class
		r := -enc - 2
		tb.Sizes = append(tb.Sizes, 2)
		if tb.Members != nil {
			tb.Members = append(tb.Members, []int32{min(r, t), max(r, t)})
		}
		tb.RowClass[r], tb.RowClass[t] = next, next
		return next, r, JoinBirth
	default:
		tb.Sizes[enc]++
		tb.RowClass[t] = enc
		if tb.Members != nil {
			tb.edits = append(tb.edits, uint64(enc)<<32|uint64(t)<<1|1)
		}
		return enc, -1, JoinExisting
	}
}

// Leave takes row t, which is in a class, out of it and returns the class
// and its remaining size. The row is left with no class and its key
// untouched; the inverse is a re-Join through the row's old key.
func (tb *Table) Leave(t int32) (ci, size int32) {
	ci = tb.RowClass[t]
	tb.RowClass[t] = -1
	tb.Sizes[ci]--
	if tb.Members != nil {
		tb.edits = append(tb.edits, uint64(ci)<<32|uint64(t)<<1)
	}
	return ci, tb.Sizes[ci]
}

// DropKey deletes row t's key in the source state of its write-log
// segment seg: the key of a lone row that moves, or of a class that a
// leave emptied.
func (tb *Table) DropKey(rel *relation.Relation, seg []CellWrite, t int) {
	if tb.radix != nil {
		delete(tb.keys, tb.pack(rel, seg, t))
		return
	}
	tb.keyBuf = AppendSourceKey(tb.keyBuf[:0], rel, tb.Cols, seg, t)
	delete(tb.bkeys, string(tb.keyBuf))
}

// Flush applies the batch's member-list edits: each class a batch joined
// or left is rewritten once, as one merge of its list with its edits into
// a new slice, or, when rows only joined past its last id, by appending
// them. Engines flush after a batch's last Join and before reading a
// list.
func (tb *Table) Flush() {
	if len(tb.edits) == 0 {
		return
	}
	slices.Sort(tb.edits)
	for lo := 0; lo < len(tb.edits); {
		ci := int32(tb.edits[lo] >> 32)
		hi := lo + 1
		for hi < len(tb.edits) && int32(tb.edits[hi]>>32) == ci {
			hi++
		}
		tb.Members[ci] = mergeEdits(tb.Members[ci], tb.edits[lo:hi])
		lo = hi
	}
	tb.edits = tb.edits[:0]
}

// mergeEdits returns list l with one class's edits (ascending by row)
// applied: left rows removed, joined rows inserted.
func mergeEdits(l []int32, edits []uint64) []int32 {
	row := func(e uint64) int32 { return int32(uint32(e) >> 1) }
	appendOnly := len(l) == 0 || row(edits[0]) > l[len(l)-1]
	joins := 0
	for _, e := range edits {
		if e&1 == 0 {
			appendOnly = false
		} else {
			joins++
		}
	}
	if appendOnly {
		for _, e := range edits {
			l = append(l, row(e))
		}
		return l
	}
	out := make([]int32, 0, len(l)+2*joins-len(edits))
	i := 0
	for _, e := range edits {
		r := row(e)
		for i < len(l) && l[i] < r {
			out = append(out, l[i])
			i++
		}
		if e&1 != 0 {
			out = append(out, r)
		} else if i < len(l) && l[i] == r {
			i++
		}
	}
	return append(out, l[i:]...)
}

// CountClasses returns the multisets of consequent column col over tb's
// classes, in one pass over RowClass: the rows are bucketed by class, and
// each class's pairs are counted in one scratch and packed back to back
// into one array. Each class's slice is capped at its own pairs, so a
// later Bump that adds a value reallocates that class alone.
func CountClasses(tb *Table, col *relation.Col) [][]ValCount {
	nc := len(tb.Sizes)
	pos := make([]int32, nc+1)
	for ci, n := range tb.Sizes {
		pos[ci+1] = pos[ci] + n
	}
	rows := make([]int32, pos[nc])
	fill := slices.Clone(pos[:nc])
	for t, ci := range tb.RowClass {
		if ci >= 0 {
			rows[fill[ci]] = int32(t)
			fill[ci]++
		}
	}
	counts := make([][]ValCount, nc)
	var scratch, pairs []ValCount
	ends := make([]int, nc)
	for ci := 0; ci < nc; ci++ {
		scratch = scratch[:0]
		for _, t := range rows[pos[ci]:pos[ci+1]] {
			scratch = Bump(scratch, col.At(int(t)), 1)
		}
		pairs = append(pairs, scratch...)
		ends[ci] = len(pairs)
	}
	for ci, lo := 0, 0; ci < nc; ci++ {
		counts[ci] = pairs[lo:ends[ci]:ends[ci]]
		lo = ends[ci]
	}
	return counts
}

// Joined folds one Table.Join outcome for row t into the multisets of
// consequent column col and returns them: a birth adds the new class's
// multiset of the partner's and t's values, a join into a class counts
// t's value, a lone row changes nothing.
func Joined(counts [][]ValCount, col *relation.Col, t, ci, partner int32, kind JoinKind) [][]ValCount {
	switch kind {
	case JoinBirth:
		pairs := Bump(Bump(make([]ValCount, 0, 2), col.At(int(partner)), 1), col.At(int(t)), 1)
		return append(counts, pairs)
	case JoinExisting:
		counts[ci] = Bump(counts[ci], col.At(int(t)), 1)
	}
	return counts
}

// Written returns the write of column c in a row's write-log segment
// seg, if the batch wrote that cell.
func Written(seg []CellWrite, c int) (CellWrite, bool) {
	for _, wr := range seg {
		if wr.Col == c {
			return wr, true
		}
	}
	return CellWrite{}, false
}

// AppendSourceKey appends row t's byte key over cols in the source state
// of its write-log segment seg to buf, in AppendKey's encoding: a cell
// seg writes reads its logged Old value, any other cell the relation,
// which holds the target state and agrees with the source state on
// unwritten cells.
func AppendSourceKey(buf []byte, rel *relation.Relation, cols []int, seg []CellWrite, t int) []byte {
	for _, c := range cols {
		val := rel.Value(t, c)
		if wr, ok := Written(seg, c); ok {
			val = wr.Old
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(val))
	}
	return buf
}
