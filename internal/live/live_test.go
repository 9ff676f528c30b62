package live

import (
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
// shape (Part overlay, consequent multisets, no sizes) and checks every
// side effect: key map transitions, overlay class membership, multisets.
func TestClassIndexJoinCases(t *testing.T) {
	rel := testRel(t, []string{"X", "A"}, [][]string{
		{"k1", "v1"}, {"k1", "v2"}, {"k2", "v1"}, {"k1", "v1"},
	})
	// Start from an overlay over an empty base: every class is born
	// through the index.
	empty := &relation.Partition{N: rel.NumRows(), Stripped: true}
	ov := relation.NewPartitionOverlayShard(empty, nil)
	ix := NewClassIndex([]int{0}, 1)
	ix.Part = ov

	ci, partner, kind := ix.Join(rel, 0)
	if kind != JoinLone || ci != -1 || partner != -1 {
		t.Fatalf("row 0: got (%d,%d,%v), want lone", ci, partner, kind)
	}
	ci, partner, kind = ix.Join(rel, 1)
	if kind != JoinBirth || partner != 0 {
		t.Fatalf("row 1: got (%d,%d,%v), want birth with partner 0", ci, partner, kind)
	}
	born := ci
	if got := ov.StableView(int(born)); !reflect.DeepEqual(got, []int32{0, 1}) {
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
	if got := ov.StableView(int(born)); !reflect.DeepEqual(got, []int32{0, 1, 3}) {
		t.Fatalf("grown class = %v", got)
	}
	if !reflect.DeepEqual(ix.Counts[born], []ValCount{{rel.Value(0, 1), 2}, {rel.Value(1, 1), 1}}) {
		t.Fatalf("grown multiset = %v", ix.Counts[born])
	}
}

// TestClassIndexTrackerOps drives the maintainer shape (no Part, tracked
// sizes): birth allocates sequential class ids, Leave shrinks, and
// BumpVal(ci, to, from) exactly undoes BumpVal(ci, from, to).
func TestClassIndexTrackerOps(t *testing.T) {
	rel := testRel(t, []string{"X", "A"}, [][]string{
		{"k1", "v1"}, {"k1", "v2"}, {"k2", "v3"}, {"k2", "v3"},
	})
	ix := NewClassIndex([]int{0}, 1)
	ix.TrackSizes = true
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
	if sz := ix.Leave(1, rel.Value(2, 1)); sz != 1 {
		t.Fatalf("Leave size = %d, want 1", sz)
	}
	if !reflect.DeepEqual(ix.Counts[1], []ValCount{{rel.Value(2, 1), 1}}) {
		t.Fatalf("after leave: %v", ix.Counts[1])
	}
}

func TestClassIndexFrozenRoundTrip(t *testing.T) {
	rel := testRel(t, []string{"X", "Y", "A"}, [][]string{
		{"a", "1", "p"}, {"a", "1", "q"}, {"b", "2", "p"}, {"c", "1", "r"},
	})
	ix := NewClassIndex([]int{0, 1}, 2)
	ix.TrackSizes = true
	for tt := int32(0); tt < 4; tt++ {
		ix.Join(rel, tt)
	}
	want := make(map[string]int32, len(ix.Keys))
	var blob []byte
	var vals []int32
	for k, v := range ix.Keys {
		want[k] = v
		blob = append(blob, k...)
		vals = append(vals, v)
	}
	ix.SetFrozen(blob, vals)
	if !ix.NeedsHydrate() {
		t.Fatal("frozen index must report NeedsHydrate")
	}
	ix.Hydrate()
	if ix.NeedsHydrate() || ix.FrozenKeys != nil || ix.FrozenVals != nil {
		t.Fatal("hydrate must drop the frozen arrays")
	}
	if !reflect.DeepEqual(ix.Keys, want) {
		t.Fatalf("hydrated keys = %v, want %v", ix.Keys, want)
	}
}
