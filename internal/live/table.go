package live

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"github.com/fastofd/fastofd/internal/relation"
)

// JoinKind reports which of the three key-map cases a join took.
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

// rowMove is one entry of a table's move log. For a row that left its
// source-state place, Class is the class it left, or -1 when it was a
// lone row. For a join, Class is the class it joined (-1 for JoinLone)
// and Partner the promoted lone row of a JoinBirth (else -1).
type rowMove struct {
	Row, Class, Partner int32
	Kind                JoinKind
}

// Table is the live equivalence-class table of one antecedent X: the
// classes of Π_X over every row, lone rows included. It holds
//
//   - the key map from X's value tuple to its class (ids ≥ 0) or lone row
//     (LoneRow(t) ≤ -2);
//   - RowClass, the row→class array;
//   - Sizes, the class sizes, and, when Members is non-nil, the classes'
//     copy-on-write member lists;
//   - the move log of its last batch.
//
// One Table per distinct X serves every dependency X → A of both engines
// (core.Substrate holds them), and the substrate keeps each dependency's
// state on top of it, indexed by the table's class ids: the consequent
// multisets (CountClasses, Fold) and the verdicts it verifies from them.
// A class id, once born, never changes meaning, so every dependency over
// X sees the same ids.
//
// Key layout. Keys pack X's dictionary codes into one uint64 as a mixed
// radix: column i gets a lane of radix 2·(|dict_i|+1), twice what its
// codes need when the layout is chosen, and a code v packs as v+1 (so
// NullValue packs as 0). Equal keys are equal code tuples, with no hash
// and no collision path. A batch may intern a value past a lane: before
// the batch moves any row, the table checks the lanes against the
// dictionaries, drops the keys if it has outgrown them, and re-indexes
// under a layout sized to the grown dictionaries. A table whose lanes
// cannot fit 64 bits keeps exact byte keys (AppendKey) instead.
//
// Moves. Apply and Append move rows and log every move, Undo reverses
// the last Apply exactly, and the substrate folds the log into each
// dependency state (Fold) and, on a rollback, unfolds it (Unfold).
type Table struct {
	// Cols is the antecedent column list, ascending.
	Cols []int
	// RowClass[t] is row t's class, or -1 while t is a lone row.
	RowClass []int32
	// Sizes[c] is the number of rows in class c.
	Sizes []int32
	// Members[c], when Members is non-nil, lists class c's rows in
	// ascending order. A list is copy-on-write, so a caller may keep one
	// it read and it never changes: a batch rewrites a class into a new
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
	// joined or left row, as class<<32 | row<<1 | joined; flush applies
	// them.
	edits []uint64

	// The move log of the last batch: left lists the rows that left
	// their place, ascending, and joined the joins in order; births
	// counts the classes the batch bore.
	left, joined []rowMove
	births       int32
}

// NewTable returns an empty table over cols with no rows and an empty
// key map laid out for rel's current dictionaries; members selects
// member lists. Its rows join with Append.
func NewTable(rel *relation.Relation, cols []int, members bool) *Table {
	tb := &Table{Cols: cols}
	if members {
		tb.Members = [][]int32{}
	}
	tb.index(rel, nil)
	return tb
}

// FromPartition builds the table of p, the stripped partition Π*_X of
// rel over cols: its classes in partition order, every other row lone,
// and the key map, with no member lists (see BuildMembers).
func FromPartition(rel *relation.Relation, cols []int, p *relation.Partition) *Table {
	nc := p.NumClasses()
	tb := &Table{
		Cols:     cols,
		RowClass: make([]int32, rel.NumRows()),
		Sizes:    make([]int32, nc),
	}
	for t := range tb.RowClass {
		tb.RowClass[t] = -1
	}
	for ci := 0; ci < nc; ci++ {
		class := p.Class(ci)
		tb.Sizes[ci] = int32(len(class))
		for _, t := range class {
			tb.RowClass[t] = int32(ci)
		}
	}
	tb.index(rel, nil)
	return tb
}

// BuildMembers gives the table member lists, in one pass over RowClass:
// the rows are bucketed by class into one array, and each class's list
// is its bucket capped at its own rows (cap == len).
func (tb *Table) BuildMembers() {
	rows, pos := tb.bucket()
	tb.Members = make([][]int32, len(tb.Sizes))
	for ci := range tb.Members {
		tb.Members[ci] = rows[pos[ci]:pos[ci+1]:pos[ci+1]]
	}
}

// bucket returns the rows of every class in one array, class by class
// in ascending row order, and the offset of each class's rows (pos[c]
// to pos[c+1]).
func (tb *Table) bucket() (rows, pos []int32) {
	nc := len(tb.Sizes)
	pos = make([]int32, nc+1)
	for ci, n := range tb.Sizes {
		pos[ci+1] = pos[ci] + n
	}
	rows = make([]int32, pos[nc])
	fill := slices.Clone(pos[:nc])
	for t, ci := range tb.RowClass {
		if ci >= 0 {
			rows[fill[ci]] = int32(t)
			fill[ci]++
		}
	}
	return rows, pos
}

// Packed reports whether the table's keys are packed integers (false:
// byte keys). Meaningful once the table is indexed.
func (tb *Table) Packed() bool { return tb.radix != nil }

// Indexed reports whether the key map is built.
func (tb *Table) Indexed() bool { return tb.indexed }

// NumKeys returns the number of keys in the map: one per class holding a
// row and one per lone row.
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

// Born returns the number of classes the table held before its last
// batch: the classes that batch bore have ids from Born on.
func (tb *Table) Born() int32 { return int32(len(tb.Sizes)) - tb.births }

// ClearLog empties the move log: the table's last batch is done.
func (tb *Table) ClearLog() {
	tb.left, tb.joined, tb.births = tb.left[:0], tb.joined[:0], 0
}

// Apply moves the rows whose antecedent a batch of cell writes rewrote
// and logs the moves, replacing the previous log. writes is the batch's
// write log, sorted by row, and the relation already holds its values.
// Each moved row leaves its class (a class it empties drops its key) or
// has its lone-row key dropped, through its source-state key; then the
// moved rows join through their target-state keys in row order.
func (tb *Table) Apply(rel *relation.Relation, writes []CellWrite) {
	tb.ClearLog()
	tb.prepare(rel, writes)
	EachRow(writes, func(t int, seg []CellWrite) {
		if !slices.ContainsFunc(seg, func(wr CellWrite) bool { return slices.Contains(tb.Cols, wr.Col) }) {
			return
		}
		ci := tb.RowClass[t]
		tb.left = append(tb.left, rowMove{Row: int32(t), Class: ci, Partner: -1})
		if ci < 0 || tb.leave(int32(t)) == 0 {
			tb.dropKey(rel, seg, t)
		}
	})
	for _, mv := range tb.left {
		tb.join(rel, mv.Row)
	}
	tb.flush()
}

// Append joins the rows [t0, end) the relation gained, in ascending
// order, and logs the joins, replacing the previous log.
func (tb *Table) Append(rel *relation.Relation, t0, end int) {
	tb.ClearLog()
	tb.prepare(rel, nil)
	for len(tb.RowClass) < end {
		tb.RowClass = append(tb.RowClass, -1)
	}
	for t := t0; t < end; t++ {
		tb.join(rel, int32(t))
	}
	tb.flush()
}

// Undo reverses the last Apply, whose write log is writes, while the
// relation still holds the batch's values, and clears the log. Joins
// are undone last to first: a lone row's key goes, a born class's key
// names its partner's lone row again and the class goes, a row that
// joined a class leaves it. Then every moved row returns to its class
// (re-keying a class it had emptied, which no join can have refilled) or
// lone-row key, through its source-state key. RowClass, Sizes, Members
// and the key map read as before the batch.
func (tb *Table) Undo(rel *relation.Relation, writes []CellWrite) {
	born := tb.Born()
	for k := len(tb.joined) - 1; k >= 0; k-- {
		switch mv := tb.joined[k]; mv.Kind {
		case JoinLone:
			tb.dropKey(rel, nil, int(mv.Row))
		case JoinBirth:
			tb.setKey(rel, nil, int(mv.Row), LoneRow(mv.Partner))
			tb.RowClass[mv.Row], tb.RowClass[mv.Partner] = -1, -1
		case JoinExisting:
			tb.leave(mv.Row)
		}
	}
	k := 0
	EachRow(writes, func(t int, seg []CellWrite) {
		if k == len(tb.left) || int(tb.left[k].Row) != t {
			return
		}
		ci := tb.left[k].Class
		k++
		switch {
		case ci < 0:
			tb.setKey(rel, seg, t, LoneRow(int32(t)))
			return
		case tb.Sizes[ci] == 0:
			tb.setKey(rel, seg, t, ci)
		}
		tb.enter(int32(t), ci)
	})
	tb.flush()
	tb.Sizes = tb.Sizes[:born]
	if tb.Members != nil {
		clear(tb.Members[born:])
		tb.Members = tb.Members[:born]
	}
	tb.ClearLog()
}

// EachRow calls fn once per row of a write log sorted by row, with the
// row's segment of the log.
func EachRow(writes []CellWrite, fn func(t int, seg []CellWrite)) {
	for lo := 0; lo < len(writes); {
		hi := lo + 1
		for hi < len(writes) && writes[hi].Row == writes[lo].Row {
			hi++
		}
		fn(writes[lo].Row, writes[lo:hi])
		lo = hi
	}
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

// prepare readies the key map for a batch whose write log is writes
// (sorted by row; nil for appends), with the relation already holding
// the batch's values and the dictionaries every value it interned. A
// table whose dictionaries outgrew a lane drops its keys, and a table
// without keys (restored, or just dropped) re-indexes under a layout
// sized to the current dictionaries, reading each written row's
// source-state codes from the log.
func (tb *Table) prepare(rel *relation.Relation, writes []CellWrite) {
	if tb.indexed && !tb.fits(rel) {
		tb.keys, tb.bkeys, tb.indexed = nil, nil, false
	}
	if !tb.indexed {
		tb.index(rel, writes)
	}
}

// index builds the key map from RowClass under a layout sized to rel's
// current dictionaries. A row is keyed by its codes in the source state
// of writes (the batch's write log, sorted by row; nil when the relation
// holds the state RowClass describes). Each class is keyed by its first
// row, each lone row by itself, and the map is made at its final size. A
// class no row names, one a leave emptied, gets no key: a size-zero
// class is a non-class, so a later row with its key births a new class
// instead of refilling it, which changes internal ids only.
func (tb *Table) index(rel *relation.Relation, writes []CellWrite) {
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

// join routes row t, which belongs to no class (RowClass[t] == -1), by its
// current key, and logs the join: a fresh key records t as a lone row, a
// lone-row key births a two-tuple class with the promoted partner, and a
// class key joins the class. Returns the class id (-1 for JoinLone), the
// promoted partner row (JoinBirth only, else -1), and the case taken. The
// table must be indexed. A member-list table records the join for flush.
func (tb *Table) join(rel *relation.Relation, t int32) (ci, partner int32, kind JoinKind) {
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
		ci, partner, kind = -1, -1, JoinLone
	case enc <= -2: // lone row: birth a two-tuple class
		r := -enc - 2
		tb.Sizes = append(tb.Sizes, 2)
		if tb.Members != nil {
			tb.Members = append(tb.Members, []int32{min(r, t), max(r, t)})
		}
		tb.RowClass[r], tb.RowClass[t] = next, next
		tb.births++
		ci, partner, kind = next, r, JoinBirth
	default:
		tb.enter(t, enc)
		ci, partner, kind = enc, -1, JoinExisting
	}
	tb.joined = append(tb.joined, rowMove{Row: t, Class: ci, Partner: partner, Kind: kind})
	return ci, partner, kind
}

// enter puts row t, which belongs to no class, into class ci; its key is
// untouched.
func (tb *Table) enter(t, ci int32) {
	tb.Sizes[ci]++
	tb.RowClass[t] = ci
	tb.edit(ci, t, 1)
}

// leave takes row t, which is in a class, out of it and returns the
// class's remaining size. The row is left with no class and its key
// untouched.
func (tb *Table) leave(t int32) int32 {
	ci := tb.RowClass[t]
	tb.RowClass[t] = -1
	tb.Sizes[ci]--
	tb.edit(ci, t, 0)
	return tb.Sizes[ci]
}

// edit records, on a member-list table, that row t joined (1) or left (0)
// class ci, for flush.
func (tb *Table) edit(ci, t int32, joined uint64) {
	if tb.Members != nil {
		tb.edits = append(tb.edits, uint64(ci)<<32|uint64(t)<<1|joined)
	}
}

// dropKey deletes row t's key in the source state of its write-log
// segment seg: the key of a lone row that moves, or of a class that a
// leave emptied.
func (tb *Table) dropKey(rel *relation.Relation, seg []CellWrite, t int) {
	if tb.radix != nil {
		delete(tb.keys, tb.pack(rel, seg, t))
		return
	}
	tb.keyBuf = AppendSourceKey(tb.keyBuf[:0], rel, tb.Cols, seg, t)
	delete(tb.bkeys, string(tb.keyBuf))
}

// setKey maps row t's key in the source state of its write-log segment
// seg to v.
func (tb *Table) setKey(rel *relation.Relation, seg []CellWrite, t int, v int32) {
	if tb.radix != nil {
		tb.keys[tb.pack(rel, seg, t)] = v
		return
	}
	tb.keyBuf = AppendSourceKey(tb.keyBuf[:0], rel, tb.Cols, seg, t)
	tb.bkeys[string(tb.keyBuf)] = v
}

// flush applies the batch's member-list edits: each class a batch joined
// or left is rewritten once, as one merge of its list with its edits into
// a new slice, or, when rows only joined past its last id, by appending
// them.
func (tb *Table) flush() {
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

// Fold folds tb's last batch into counts, the multisets of consequent
// column a over tb's classes, and returns them with every class whose
// multiset changed appended to dirty. writes is the batch's write log
// (nil for appends) and the relation holds the batch's values. A row
// that left a class takes its source-state consequent value out, a
// consequent write of a row that stayed in a pre-batch class replaces
// its value, and each join counts the joining row's value (a birth adds
// the new class's multiset).
func Fold(tb *Table, rel *relation.Relation, a int, writes []CellWrite, counts [][]ValCount, dirty []int32) ([][]ValCount, []int32) {
	return tb.fold(rel, a, writes, counts, dirty, 1)
}

// Unfold reverses Fold of tb's last batch of writes, before the table
// undoes it: the classes the batch bore are dropped and every other
// change is reverted, and dirty gains the pre-batch classes that
// changed. The multisets are canonical (see Bump), so they equal their
// pre-batch values.
func Unfold(tb *Table, rel *relation.Relation, a int, writes []CellWrite, counts [][]ValCount, dirty []int32) ([][]ValCount, []int32) {
	return tb.fold(rel, a, writes, counts, dirty, -1)
}

// fold is Fold (sign 1) or Unfold (sign -1).
func (tb *Table) fold(rel *relation.Relation, a int, writes []CellWrite, counts [][]ValCount, dirty []int32, sign int32) ([][]ValCount, []int32) {
	born := tb.Born()
	if sign < 0 {
		clear(counts[born:])
		counts = counts[:born]
	}
	li := 0
	EachRow(writes, func(t int, seg []CellWrite) {
		wr, written := Written(seg, a)
		if li < len(tb.left) && int(tb.left[li].Row) == t {
			ci := tb.left[li].Class
			li++
			if ci >= 0 {
				pre := rel.Value(t, a)
				if written {
					pre = wr.Old
				}
				counts[ci] = Bump(counts[ci], pre, -sign)
				dirty = append(dirty, ci)
			}
			return
		}
		if ci := tb.RowClass[t]; written && ci >= 0 && ci < born {
			if sign > 0 {
				counts[ci] = Replace(counts[ci], wr.Old, wr.New)
			} else {
				counts[ci] = Replace(counts[ci], wr.New, wr.Old)
			}
			dirty = append(dirty, ci)
		}
	})
	col := rel.Column(a)
	for _, mv := range tb.joined {
		switch {
		case mv.Kind == JoinLone || (sign < 0 && mv.Class >= born):
			continue
		case mv.Kind == JoinBirth && sign > 0:
			counts = append(counts, Bump(Bump(make([]ValCount, 0, 2), col.At(int(mv.Partner)), 1), col.At(int(mv.Row)), 1))
		default:
			counts[mv.Class] = Bump(counts[mv.Class], col.At(int(mv.Row)), sign)
		}
		dirty = append(dirty, mv.Class)
	}
	return counts, dirty
}

// CountClasses returns the multisets of consequent column col over tb's
// classes, in one pass over RowClass: the rows are bucketed by class, and
// each class's pairs are counted in one scratch and packed back to back
// into one array. Each class's slice is capped at its own pairs, so a
// later Bump that adds a value reallocates that class alone.
func CountClasses(tb *Table, col *relation.Col) [][]ValCount {
	nc := len(tb.Sizes)
	rows, pos := tb.bucket()
	counts := make([][]ValCount, nc)
	var scratch, pairs []ValCount
	ends := make([]int, nc)
	for ci := 0; ci < nc; ci++ {
		scratch = ClassCounts(col, rows[pos[ci]:pos[ci+1]], scratch)
		pairs = append(pairs, scratch...)
		ends[ci] = len(pairs)
	}
	for ci, lo := 0, 0; ci < nc; ci++ {
		counts[ci] = pairs[lo:ends[ci]:ends[ci]]
		lo = ends[ci]
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
