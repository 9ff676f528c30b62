package live

import (
	"fmt"
	"reflect"
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
	// Dropping a count to zero swap-deletes the pair.
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

// TestClassIndexJoinCases drives the three JoinKey cases on the monitor
// shape (member lists, consequent multisets, no sizes) and checks every
// side effect: key map transitions, class membership, multisets.
func TestClassIndexJoinCases(t *testing.T) {
	rel := testRel(t, []string{"X", "A"}, [][]string{
		{"k1", "v1"}, {"k1", "v2"}, {"k2", "v1"}, {"k1", "v1"},
	})
	// Start with no classes: every class is born through the index.
	ix := NewClassIndex([]int{0}, 1)
	ix.Members = [][]int32{}

	ci, partner, kind := ix.Join(rel, 0)
	if kind != JoinLone || ci != -1 || partner != -1 {
		t.Fatalf("row 0: got (%d,%d,%v), want lone", ci, partner, kind)
	}
	ci, partner, kind = ix.Join(rel, 1)
	if kind != JoinBirth || partner != 0 {
		t.Fatalf("row 1: got (%d,%d,%v), want birth with partner 0", ci, partner, kind)
	}
	born := ci
	if got := ix.Members[born]; !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("born class = %v", got)
	}
	if !reflect.DeepEqual(ix.Counts[born], []ValCount{{rel.Value(0, 1), 1}, {rel.Value(1, 1), 1}}) {
		t.Fatalf("born multiset = %v", ix.Counts[born])
	}
	ci, _, kind = ix.Join(rel, 2)
	if kind != JoinLone {
		t.Fatalf("row 2: got %v, want lone (fresh key)", kind)
	}
	_ = ci
	ci, partner, kind = ix.Join(rel, 3)
	if kind != JoinExisting || ci != born || partner != -1 {
		t.Fatalf("row 3: got (%d,%d,%v), want existing class %d", ci, partner, kind, born)
	}
	if got := ix.Members[born]; !reflect.DeepEqual(got, []int32{0, 1, 3}) {
		t.Fatalf("grown class = %v", got)
	}
	if !reflect.DeepEqual(ix.Counts[born], []ValCount{{rel.Value(0, 1), 2}, {rel.Value(1, 1), 1}}) {
		t.Fatalf("grown multiset = %v", ix.Counts[born])
	}
	if len(ix.Sizes) != 0 {
		t.Fatalf("member-list index tracked sizes %v", ix.Sizes)
	}
}

// TestClassIndexMembersCopyOnWrite pins the member lists' rules: every
// class stays ascending whichever row joins or leaves, Leave reports the
// list's length, and a list read before an edit never changes — not a
// class a partition supplied with cap == len, not a list grown by
// appends, not one edited in the middle.
func TestClassIndexMembersCopyOnWrite(t *testing.T) {
	rows := make([][]string, 12)
	for r := range rows {
		rows[r] = []string{"k", fmt.Sprint("v", r%3)}
	}
	rel := testRel(t, []string{"X", "A"}, rows)
	// Two classes back to back in one flat array, as a cached partition
	// holds them.
	p := &relation.Partition{Tuples: []int32{2, 5, 8, 1, 4}, Offsets: []int32{0, 3, 5}, N: rel.NumRows(), Stripped: true}
	ix := NewClassIndex([]int{0}, 1)
	ix.Members = [][]int32{p.Class(0), p.Class(1)}
	for ci, class := range ix.Members {
		ix.Counts = append(ix.Counts, nil)
		for _, r := range class {
			ix.Counts[ci] = Bump(ix.Counts[ci], rel.Value(int(r), 1), 1)
		}
	}
	key := string(ix.EncodeRow(rel, 0))
	ix.Keys[key] = 0

	type read struct {
		list, want []int32
	}
	var reads []read
	keep := func() {
		l := ix.Members[0]
		reads = append(reads, read{l, append([]int32(nil), l...)})
	}
	step := func(label string, want []int32) {
		t.Helper()
		if got := ix.Members[0]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: class = %v, want %v", label, got, want)
		}
		for k, r := range reads {
			if !reflect.DeepEqual(r.list, r.want) {
				t.Fatalf("%s: list read before edit %d changed to %v, was %v", label, k, r.list, r.want)
			}
		}
		if !reflect.DeepEqual(p.Tuples, []int32{2, 5, 8, 1, 4}) {
			t.Fatalf("%s: the partition's flat array changed to %v", label, p.Tuples)
		}
		keep()
	}
	keep()
	ix.JoinKey(rel, []byte(key), 9) // first append copies the clipped class
	step("append past a partition class", []int32{2, 5, 8, 9})
	ix.JoinKey(rel, []byte(key), 11) // appends in place past the length
	step("append in place", []int32{2, 5, 8, 9, 11})
	ix.JoinKey(rel, []byte(key), 3)
	step("insert in the middle", []int32{2, 3, 5, 8, 9, 11})
	ix.JoinKey(rel, []byte(key), 0)
	step("insert at the front", []int32{0, 2, 3, 5, 8, 9, 11})
	if n := ix.Leave(0, 11, rel.Value(11, 1)); n != 6 {
		t.Fatalf("Leave of the last row left %d rows, want 6", n)
	}
	step("remove the last row", []int32{0, 2, 3, 5, 8, 9})
	ix.JoinKey(rel, []byte(key), 10)
	step("append after a remove", []int32{0, 2, 3, 5, 8, 9, 10})
	if n := ix.Leave(0, 5, rel.Value(5, 1)); n != 6 {
		t.Fatalf("Leave of a middle row left %d rows, want 6", n)
	}
	step("remove in the middle", []int32{0, 2, 3, 8, 9, 10})
	if !reflect.DeepEqual(ix.Members[1], []int32{1, 4}) {
		t.Fatalf("the neighbouring class changed to %v", ix.Members[1])
	}
}

// TestClassIndexTrackerOps drives the maintainer shape (Members nil, so
// sizes are tracked): birth allocates sequential class ids, Leave
// shrinks, and BumpVal(ci, to, from) exactly undoes BumpVal(ci, from, to).
func TestClassIndexTrackerOps(t *testing.T) {
	rel := testRel(t, []string{"X", "A"}, [][]string{
		{"k1", "v1"}, {"k1", "v2"}, {"k2", "v3"}, {"k2", "v3"},
	})
	ix := NewClassIndex([]int{0}, 1)
	for tt := int32(0); tt < 4; tt++ {
		ix.Join(rel, tt)
	}
	if len(ix.Counts) != 2 || ix.Sizes[0] != 2 || ix.Sizes[1] != 2 {
		t.Fatalf("classes = %d sizes = %v", len(ix.Counts), ix.Sizes)
	}
	before := append([]ValCount(nil), ix.Counts[0]...)
	ix.BumpVal(0, rel.Value(1, 1), rel.Value(0, 1))
	if reflect.DeepEqual(ix.Counts[0], before) {
		t.Fatal("BumpVal must change the multiset")
	}
	ix.BumpVal(0, rel.Value(0, 1), rel.Value(1, 1))
	if !reflect.DeepEqual(ix.Counts[0], before) {
		t.Fatalf("inverse BumpVal does not restore: %v vs %v", ix.Counts[0], before)
	}
	if sz := ix.Leave(1, 2, rel.Value(2, 1)); sz != 1 {
		t.Fatalf("Leave size = %d, want 1", sz)
	}
	if !reflect.DeepEqual(ix.Counts[1], []ValCount{{rel.Value(2, 1), 1}}) {
		t.Fatalf("after leave: %v", ix.Counts[1])
	}
}

// TestIndexKeysFromRowClasses rebuilds a joined index's key map from its
// row→class table and checks that a class emptied by Leave gets no key.
func TestIndexKeysFromRowClasses(t *testing.T) {
	rel := testRel(t, []string{"X", "Y", "A"}, [][]string{
		{"a", "1", "p"}, {"a", "1", "q"}, {"b", "2", "p"}, {"c", "1", "r"}, {"c", "1", "s"}, {"a", "1", "p"},
	})
	ix := NewClassIndex([]int{0, 1}, 2)
	rowClass := make([]int32, rel.NumRows())
	for tt := range rowClass {
		ci, partner, _ := ix.Join(rel, int32(tt))
		rowClass[tt] = ci
		if partner >= 0 {
			rowClass[partner] = ci
		}
	}
	// Rows 3 and 4 move out of class (c,1) to fresh keys, the way a
	// tracker moves them: the emptied class keeps its key, which a
	// rebuild drops.
	emptied := rowClass[3]
	for k, tt := range []int32{3, 4} {
		ix.Leave(rowClass[tt], tt, rel.Value(int(tt), 2))
		rel.SetString(int(tt), 0, fmt.Sprintf("moved%d", k))
		rowClass[tt], _, _ = ix.Join(rel, tt)
	}
	want := map[string]int32{}
	for k, v := range ix.Keys {
		if v != emptied {
			want[k] = v
		}
	}
	if len(want) != len(ix.Keys)-1 {
		t.Fatalf("keys %v hold no key of the emptied class %d", ix.Keys, emptied)
	}
	appendKey := func(blob []byte, tt int) []byte { return AppendKey(blob, rel, ix.Cols, tt) }

	back := &ClassIndex{Cols: ix.Cols, RHS: ix.RHS, Counts: ix.Counts}
	IndexKeys(back, rowClass, appendKey)
	if !reflect.DeepEqual(back.Keys, want) {
		t.Fatalf("rebuilt keys = %v, want %v", back.Keys, want)
	}
}
