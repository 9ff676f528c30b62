package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/fastofd/fastofd/internal/relation"
)

func testRel(t *testing.T, cols []string, rows [][]string) *relation.Relation {
	t.Helper()
	rel, err := relation.FromRows(relation.MustSchema(cols...), rows)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestBumpMultiset(t *testing.T) {
	var pairs []ValCount
	pairs = Bump(pairs, 3, 1)
	pairs = Bump(pairs, 5, 1)
	pairs = Bump(pairs, 3, 1)
	if !reflect.DeepEqual(pairs, []ValCount{{3, 2}, {5, 1}}) {
		t.Fatalf("pairs = %v", pairs)
	}
	// Dropping a count to zero deletes the pair; the rest keep value order.
	pairs = Bump(pairs, 3, -2)
	if !reflect.DeepEqual(pairs, []ValCount{{5, 1}}) {
		t.Fatalf("after zero: %v", pairs)
	}
	// Bump(+1) then Bump(-1) is an exact inverse on the multiset.
	before := append([]ValCount(nil), pairs...)
	pairs = Bump(Bump(pairs, 9, 1), 9, -1)
	if !reflect.DeepEqual(pairs, before) {
		t.Fatalf("bump/unbump not inverse: %v vs %v", pairs, before)
	}
}

func TestDistinct(t *testing.T) {
	pairs := []ValCount{{7, 2}, {1, 1}, {4, 5}}
	var scratch []relation.Value
	got := Distinct(pairs, scratch)
	if !reflect.DeepEqual(got, []relation.Value{7, 1, 4}) {
		t.Fatalf("distinct = %v", got)
	}
	// Scratch is reused from :0, not appended to.
	got2 := Distinct(pairs[:1], got)
	if !reflect.DeepEqual(got2, []relation.Value{7}) {
		t.Fatalf("reused distinct = %v", got2)
	}
}

func TestLoneRowRoundTrip(t *testing.T) {
	for _, tt := range []int32{0, 1, 7, 1 << 20} {
		enc := LoneRow(tt)
		if enc > -2 {
			t.Fatalf("LoneRow(%d) = %d must be <= -2", tt, enc)
		}
		if back := -enc - 2; back != tt {
			t.Fatalf("round trip %d -> %d -> %d", tt, enc, back)
		}
	}
}

func TestEncodeKeyFixedWidth(t *testing.T) {
	rel := testRel(t, []string{"A", "B", "C"}, [][]string{
		{"x", "1", "p"}, {"x", "2", "p"}, {"y", "1", "q"}, {"x", "1", "q"},
	})
	var buf []byte
	cols := []int{0, 1}
	k0 := string(EncodeKey(rel, cols, 0, buf))
	if len(k0) != 8 {
		t.Fatalf("key width = %d, want 4 bytes per column", len(k0))
	}
	// Equal projections encode equal; differing projections differ.
	if k3 := string(EncodeKey(rel, cols, 3, buf)); k3 != k0 {
		t.Fatalf("rows 0 and 3 share (A,B) but keys differ: %q vs %q", k0, k3)
	}
	for _, other := range []int{1, 2} {
		if k := string(EncodeKey(rel, cols, other, buf)); k == k0 {
			t.Fatalf("rows 0 and %d differ on (A,B) but keys collide", other)
		}
	}
	// Little-endian layout of the dict value id.
	v := rel.Value(0, 0)
	k := EncodeKey(rel, []int{0}, 0, buf)
	want := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	if !reflect.DeepEqual(k, want) {
		t.Fatalf("key bytes = %v, want %v", k, want)
	}
}

// joinAll joins every row of rel into tb in row order, as appended rows.
func joinAll(tb *Table, rel *relation.Relation) {
	tb.Append(rel, 0, rel.NumRows())
}

// TestClassIndexJoinCases drives the three join cases on a member-list
// table and checks every side effect: the key map's transitions, the
// row→class array, class sizes, membership after a flush, and the
// multisets Fold folds each join into.
func TestClassIndexJoinCases(t *testing.T) {
	rel := testRel(t, []string{"X", "A"}, [][]string{
		{"k1", "v1"}, {"k1", "v2"}, {"k2", "v1"}, {"k1", "v1"},
	})
	// Start with no classes: every class is born through the table.
	tb := NewTable(rel, []int{0}, true)
	tb.RowClass = []int32{-1, -1, -1, -1}
	var counts [][]ValCount
	join := func(row int32) (int32, int32, JoinKind) {
		tb.ClearLog()
		ci, partner, kind := tb.join(rel, row)
		counts, _ = Fold(tb, rel, 1, nil, counts, nil)
		return ci, partner, kind
	}

	ci, partner, kind := join(0)
	if kind != JoinLone || ci != -1 || partner != -1 || tb.RowClass[0] != -1 {
		t.Fatalf("row 0: got (%d,%d,%v), want lone", ci, partner, kind)
	}
	if enc, ok := tb.Lookup(rel, 0); !ok || enc != LoneRow(0) {
		t.Fatalf("row 0's key maps to (%d, %v), want its lone-row entry", enc, ok)
	}
	ci, partner, kind = join(1)
	if kind != JoinBirth || partner != 0 {
		t.Fatalf("row 1: got (%d,%d,%v), want birth with partner 0", ci, partner, kind)
	}
	born := ci
	if got := tb.Members[born]; !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("born class = %v", got)
	}
	if tb.RowClass[0] != born || tb.RowClass[1] != born || tb.Sizes[born] != 2 {
		t.Fatalf("born class: row→class %v, sizes %v", tb.RowClass, tb.Sizes)
	}
	if !reflect.DeepEqual(counts[born], []ValCount{{rel.Value(0, 1), 1}, {rel.Value(1, 1), 1}}) {
		t.Fatalf("born multiset = %v", counts[born])
	}
	if _, _, kind = join(2); kind != JoinLone {
		t.Fatalf("row 2: got %v, want lone (fresh key)", kind)
	}
	ci, partner, kind = join(3)
	if kind != JoinExisting || ci != born || partner != -1 {
		t.Fatalf("row 3: got (%d,%d,%v), want existing class %d", ci, partner, kind, born)
	}
	tb.flush()
	if got := tb.Members[born]; !reflect.DeepEqual(got, []int32{0, 1, 3}) {
		t.Fatalf("grown class = %v", got)
	}
	if tb.Sizes[born] != 3 || tb.RowClass[3] != born {
		t.Fatalf("grown class: size %d, row 3 in class %d", tb.Sizes[born], tb.RowClass[3])
	}
	if !reflect.DeepEqual(counts[born], []ValCount{{rel.Value(0, 1), 2}, {rel.Value(1, 1), 1}}) {
		t.Fatalf("grown multiset = %v", counts[born])
	}
	if n := tb.NumKeys(); n != 2 {
		t.Fatalf("%d keys, want one class and one lone row", n)
	}
}

// TestClassIndexMembersCopyOnWrite pins the member lists' rules: every
// class stays ascending whichever rows join or leave, each batch's edits
// of one class are applied as one rewrite, and a list read before a batch
// never changes — not a list BuildMembers cut with cap == len from the
// array it shares with the next class, not a list grown by appends, not
// one edited in the middle.
func TestClassIndexMembersCopyOnWrite(t *testing.T) {
	rows := make([][]string, 12)
	for r := range rows {
		rows[r] = []string{fmt.Sprint("lone", r), fmt.Sprint("v", r%3)}
	}
	for _, r := range []int{2, 5, 8} {
		rows[r][0] = "k0"
	}
	for _, r := range []int{1, 4} {
		rows[r][0] = "k1"
	}
	rel := testRel(t, []string{"X", "A"}, rows)
	// BuildMembers lists the two classes back to back in one array.
	p := &relation.Partition{Tuples: []int32{2, 5, 8, 1, 4}, Offsets: []int32{0, 3, 5}, N: rel.NumRows(), Stripped: true}
	tb := FromPartition(rel, []int{0}, p)
	tb.BuildMembers()

	type read struct {
		list, want []int32
	}
	var reads []read
	keep := func() {
		l := tb.Members[0]
		reads = append(reads, read{l, append([]int32(nil), l...)})
	}
	// batch rewrites the keys of rows out of class k0 and into it and
	// moves them as one batch, then checks the class and every list read
	// before.
	batch := func(label string, join, leave []int32, want []int32) {
		t.Helper()
		var writes []CellWrite
		write := func(r int32, x string) {
			old := rel.Value(int(r), 0)
			rel.SetString(int(r), 0, x)
			writes = append(writes, CellWrite{Row: int(r), Col: 0, Old: old, New: rel.Value(int(r), 0)})
		}
		for _, r := range leave {
			write(r, fmt.Sprint("gone", r))
		}
		for _, r := range join {
			write(r, "k0")
		}
		slices.SortFunc(writes, func(a, b CellWrite) int { return a.Row - b.Row })
		tb.Apply(rel, writes)
		if got := tb.Members[0]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: class = %v, want %v", label, got, want)
		}
		if int(tb.Sizes[0]) != len(want) {
			t.Fatalf("%s: size %d for %d members", label, tb.Sizes[0], len(want))
		}
		for k, r := range reads {
			if !reflect.DeepEqual(r.list, r.want) {
				t.Fatalf("%s: list read before batch %d changed to %v, was %v", label, k, r.list, r.want)
			}
		}
		if !reflect.DeepEqual(tb.Members[1], []int32{1, 4}) {
			t.Fatalf("%s: the neighbouring class changed to %v", label, tb.Members[1])
		}
		keep()
	}
	keep()
	batch("append past a partition class", []int32{9}, nil, []int32{2, 5, 8, 9})
	batch("append in place", []int32{11, 10}, nil, []int32{2, 5, 8, 9, 10, 11})
	batch("insert in the middle and at the front", []int32{3, 0}, nil, []int32{0, 2, 3, 5, 8, 9, 10, 11})
	batch("remove the last row", nil, []int32{11}, []int32{0, 2, 3, 5, 8, 9, 10})
	batch("append after a remove", []int32{11}, nil, []int32{0, 2, 3, 5, 8, 9, 10, 11})
	batch("remove and insert in one batch", []int32{6}, []int32{5, 0, 11}, []int32{2, 3, 6, 8, 9, 10})
	if !reflect.DeepEqual(tb.Members[1], []int32{1, 4}) {
		t.Fatalf("the neighbouring class changed to %v", tb.Members[1])
	}
}

// TestClassIndexTrackerOps drives a table without member lists: birth
// allocates sequential class ids, leave shrinks, and Replace(to, from)
// exactly undoes Replace(from, to).
func TestClassIndexTrackerOps(t *testing.T) {
	rel := testRel(t, []string{"X", "A"}, [][]string{
		{"k1", "v1"}, {"k1", "v2"}, {"k2", "v3"}, {"k2", "v3"},
	})
	tb := NewTable(rel, []int{0}, false)
	joinAll(tb, rel)
	if len(tb.Sizes) != 2 || tb.Sizes[0] != 2 || tb.Sizes[1] != 2 || tb.Members != nil {
		t.Fatalf("sizes = %v, members %v", tb.Sizes, tb.Members)
	}
	counts := CountClasses(tb, rel.Column(1))
	before := append([]ValCount(nil), counts[0]...)
	counts[0] = Replace(counts[0], rel.Value(1, 1), rel.Value(0, 1))
	if reflect.DeepEqual(counts[0], before) {
		t.Fatal("Replace must change the multiset")
	}
	counts[0] = Replace(counts[0], rel.Value(0, 1), rel.Value(1, 1))
	if !reflect.DeepEqual(counts[0], before) {
		t.Fatalf("the inverse Replace does not restore: %v vs %v", counts[0], before)
	}
	if size := tb.leave(2); size != 1 || tb.RowClass[2] != -1 {
		t.Fatalf("leave = %d, row→class %v", size, tb.RowClass)
	}
	if !reflect.DeepEqual(CountClasses(tb, rel.Column(1))[1], []ValCount{{rel.Value(3, 1), 1}}) {
		t.Fatalf("after leave: %v", CountClasses(tb, rel.Column(1))[1])
	}
}

// TestIndexKeysFromRowClasses rebuilds a joined table's key map from its
// row→class array, from both the current and a write log's source state,
// and checks that a class emptied by Leave gets no key.
func TestIndexKeysFromRowClasses(t *testing.T) {
	rel := testRel(t, []string{"X", "Y", "A"}, [][]string{
		{"a", "1", "p"}, {"a", "1", "q"}, {"b", "2", "p"}, {"c", "1", "r"}, {"c", "1", "s"}, {"a", "1", "p"},
	})
	tb := NewTable(rel, []int{0, 1}, false)
	joinAll(tb, rel)
	// Rows 3 and 4 move out of class (c,1) to fresh keys in one batch:
	// the emptied class drops its key, and a rebuild keys it no more.
	emptied := tb.RowClass[3]
	var writes []CellWrite
	for k, tt := range []int{3, 4} {
		old := rel.Value(tt, 0)
		rel.SetString(tt, 0, fmt.Sprintf("moved%d", k))
		writes = append(writes, CellWrite{Row: tt, Col: 0, Old: old, New: rel.Value(tt, 0)})
	}
	tb.Apply(rel, writes)
	if n := tb.NumKeys(); n != 4 {
		t.Fatalf("%d keys, want class (a,1), lone (b,2) and the two moved rows", n)
	}
	back := &Table{Cols: tb.Cols, RowClass: tb.RowClass, Sizes: tb.Sizes}
	back.index(rel, nil)
	if n := back.NumKeys(); n != 4 {
		t.Fatalf("rebuilt %d keys, want 4: the emptied class %d keeps none", n, emptied)
	}
	for r := 0; r < rel.NumRows(); r++ {
		want, _ := tb.Lookup(rel, r)
		if got, ok := back.Lookup(rel, r); !ok || got != want {
			t.Fatalf("row %d: rebuilt key maps to (%d, %v), want %d", r, got, ok, want)
		}
	}
	// From a write log's source state: the relation holds a batch's
	// writes that no row has moved for yet, and a rebuild from the log
	// keys every row as the pre-batch build did.
	pre := &Table{Cols: back.Cols, RowClass: back.RowClass, Sizes: back.Sizes}
	pre.index(rel, nil)
	writes = writes[:0]
	for _, r := range []int{0, 2, 5} {
		old := rel.Value(r, 1)
		rel.SetString(r, 1, fmt.Sprint("written", r))
		writes = append(writes, CellWrite{Row: r, Col: 1, Old: old, New: rel.Value(r, 1)})
	}
	src := &Table{Cols: back.Cols, RowClass: back.RowClass, Sizes: back.Sizes}
	src.index(rel, writes)
	for _, wr := range writes {
		rel.SetValue(wr.Row, wr.Col, wr.Old)
	}
	if src.NumKeys() != pre.NumKeys() {
		t.Fatalf("source-state rebuild holds %d keys, the pre-batch build %d", src.NumKeys(), pre.NumKeys())
	}
	for r := 0; r < rel.NumRows(); r++ {
		want, _ := pre.Lookup(rel, r)
		if got, ok := src.Lookup(rel, r); !ok || got != want {
			t.Fatalf("row %d: source-state key maps to (%d, %v), want %d", r, got, ok, want)
		}
	}
}

// TestTableRelayout outgrows a packed table's lane between batches: with
// lanes of radix 8, code 8 of the first column would carry into the
// second, so (8, 0) would pack as (0, 1) does. Apply must drop the keys
// and re-index under wider lanes, reading the written row's old code from
// the log, before the row moves.
func TestTableRelayout(t *testing.T) {
	rel := testRel(t, []string{"A", "B"}, [][]string{
		{"a0", "b1"}, {"a1", "b0"}, {"a2", "b2"},
	})
	tb := NewTable(rel, []int{0, 1}, false)
	joinAll(tb, rel)
	if !tb.Packed() || tb.radix[0] != 8 {
		t.Fatalf("laid out as packed %v with lanes %v, want radix 8 for three values", tb.Packed(), tb.radix)
	}
	for v := 3; v <= 8; v++ {
		rel.Dict(0).Intern(fmt.Sprint("a", v))
	}
	writes := []CellWrite{{Row: 1, Col: 0, Old: rel.Value(1, 0)}}
	rel.SetString(1, 0, "a8")
	writes[0].New = rel.Value(1, 0)
	tb.Apply(rel, writes)
	if !tb.Packed() || tb.radix[0] != 20 {
		t.Fatalf("re-laid out as packed %v with lanes %v, want radix 20 for nine values", tb.Packed(), tb.radix)
	}
	if kind := tb.joined[0].Kind; kind != JoinLone {
		t.Fatalf("row (a8, b0) joined as %v; its key collided with (a0, b1)'s", kind)
	}
	if n := tb.NumKeys(); n != 3 {
		t.Fatalf("%d keys after the move, want the three lone rows", n)
	}
}

// TestTableUndoRestores drives random batches of antecedent and
// consequent writes, with appends between them, through a member-list
// table and one dependency's multisets: after each batch the folded
// multisets equal a fresh CountClasses, and a batch that is unfolded and
// undone leaves the row→class array, sizes, member lists, key map and
// multisets deep-equal to their pre-batch values.
func TestTableUndoRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rows := make([][]string, 12+rng.Intn(12))
		for r := range rows {
			rows[r] = []string{fmt.Sprint("x", rng.Intn(4)), fmt.Sprint("y", rng.Intn(2)), fmt.Sprint("a", rng.Intn(3))}
		}
		rel := testRel(t, []string{"X", "Y", "A"}, rows)
		tb := NewTable(rel, []int{0, 1}, true)
		joinAll(tb, rel)
		counts := CountClasses(tb, rel.Column(2))
		for step := 0; step < 12; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			if rng.Intn(4) == 0 {
				t0 := rel.NumRows()
				rel.AppendRow([]string{fmt.Sprint("x", rng.Intn(6)), fmt.Sprint("y", rng.Intn(2)), fmt.Sprint("a", rng.Intn(4))})
				tb.Append(rel, t0, rel.NumRows())
				counts, _ = Fold(tb, rel, 2, nil, counts, nil)
			}
			rowClass, sizes, members := slices.Clone(tb.RowClass), slices.Clone(tb.Sizes), make([][]int32, len(tb.Members))
			for ci, l := range tb.Members {
				members[ci] = slices.Clone(l)
			}
			before := make([][]ValCount, len(counts))
			for ci, pairs := range counts {
				before[ci] = slices.Clone(pairs)
			}
			lookup := make([]int32, rel.NumRows())
			for r := range lookup {
				lookup[r], _ = tb.Lookup(rel, r)
			}
			// One write per written cell, sorted by (row, col), each
			// changing its cell: the substrate's effective write log.
			var writes []CellWrite
			for _, r := range rng.Perm(rel.NumRows())[:1+rng.Intn(6)] {
				for c := 0; c < 3; c++ {
					if rng.Intn(2) == 0 {
						continue
					}
					old := rel.Value(r, c)
					rel.SetString(r, c, fmt.Sprint([]string{"x", "y", "a"}[c], rng.Intn(6)))
					if nv := rel.Value(r, c); nv != old {
						writes = append(writes, CellWrite{Row: r, Col: c, Old: old, New: nv})
					} else {
						rel.SetValue(r, c, old)
					}
				}
			}
			slices.SortFunc(writes, func(a, b CellWrite) int { return (a.Row-b.Row)*4 + a.Col - b.Col })
			tb.Apply(rel, writes)
			counts, _ = Fold(tb, rel, 2, writes, counts, nil)
			if want := CountClasses(tb, rel.Column(2)); !reflect.DeepEqual(counts, want) {
				t.Fatalf("%s: folded multisets %v, the classes hold %v", label, counts, want)
			}
			if rng.Intn(2) == 0 {
				continue
			}
			counts, _ = Unfold(tb, rel, 2, writes, counts, nil)
			tb.Undo(rel, writes)
			for _, wr := range writes {
				rel.SetValue(wr.Row, wr.Col, wr.Old)
			}
			if !reflect.DeepEqual(tb.RowClass, rowClass) || !reflect.DeepEqual(tb.Sizes, sizes) || !reflect.DeepEqual(tb.Members, members) {
				t.Fatalf("%s: undo left row→class %v sizes %v members %v, want %v %v %v", label, tb.RowClass, tb.Sizes, tb.Members, rowClass, sizes, members)
			}
			if !reflect.DeepEqual(counts, before) {
				t.Fatalf("%s: unfold left multisets %v, want %v", label, counts, before)
			}
			for r, want := range lookup {
				if got, ok := tb.Lookup(rel, r); !ok || got != want {
					t.Fatalf("%s: row %d's key maps to (%d, %v) after the undo, want %d", label, r, got, ok, want)
				}
			}
			keys := slices.Clone(lookup)
			slices.Sort(keys)
			if n := tb.NumKeys(); n != len(slices.Compact(keys)) {
				t.Fatalf("%s: %d keys after the undo for %v", label, n, lookup)
			}
		}
	}
}
