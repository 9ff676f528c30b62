package relation

import (
	"reflect"
	"testing"
)

// identityOverlay wraps base as a shard overlay that owns every base
// class, local id k denoting base class k.
func identityOverlay(base *Partition) *PartitionOverlay {
	all := make([]int32, base.NumClasses())
	for k := range all {
		all[k] = int32(k)
	}
	return NewPartitionOverlayShard(base, all)
}

func TestPartitionOverlayViewsAndGrowth(t *testing.T) {
	rel, err := FromRows(MustSchema("A", "B"), [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "3"}, {"y", "4"}, {"z", "5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := SingleColumnPartition(rel, 0).Strip() // classes {0,1}, {2,3}; z stripped
	o := identityOverlay(base)
	if o.NumClasses() != 2 || o.BaseClasses() != 2 {
		t.Fatalf("classes = %d base = %d, want 2/2", o.NumClasses(), o.BaseClasses())
	}

	var scratch []int32
	// Untouched base class: must be a zero-copy view into the flat array.
	v := o.View(0, &scratch)
	if &v[0] != &base.Tuples[0] {
		t.Fatal("delta-free class must alias the base flat array")
	}
	if scratch != nil {
		t.Fatal("scratch must stay untouched for zero-copy views")
	}

	// Add tuples to a base class: the view materializes base + delta.
	o.Add(1, 5)
	o.Add(1, 7)
	got := o.View(1, &scratch)
	if !reflect.DeepEqual(got, []int32{2, 3, 5, 7}) {
		t.Fatalf("view = %v, want [2 3 5 7]", got)
	}
	if o.Len(1) != 4 {
		t.Fatalf("Len(1) = %d, want 4", o.Len(1))
	}

	// Overlay-born class: zero-copy view of the delta itself.
	ci := o.AddClass(4, 6)
	if ci != 2 || o.NumClasses() != 3 {
		t.Fatalf("AddClass id = %d classes = %d", ci, o.NumClasses())
	}
	if got := o.View(ci, &scratch); !reflect.DeepEqual(got, []int32{4, 6}) {
		t.Fatalf("new class view = %v", got)
	}
	o.Add(ci, 8)
	if got := o.View(ci, &scratch); !reflect.DeepEqual(got, []int32{4, 6, 8}) {
		t.Fatalf("grown new class view = %v", got)
	}
	if o.Len(ci) != 3 {
		t.Fatalf("Len(%d) = %d, want 3", ci, o.Len(ci))
	}
	if o.Base() != base {
		t.Fatal("Base must return the wrapped partition")
	}
}

func TestPartitionOverlayScratchReuse(t *testing.T) {
	rel, err := FromRows(MustSchema("A"), [][]string{
		{"x"}, {"x"}, {"y"}, {"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := SingleColumnPartition(rel, 0).Strip()
	o := identityOverlay(base)
	o.Add(0, 9)
	o.Add(1, 11)
	var scratch []int32
	a := o.View(0, &scratch)
	if !reflect.DeepEqual(a, []int32{0, 1, 9}) {
		t.Fatalf("a = %v", a)
	}
	b := o.View(1, &scratch)
	if !reflect.DeepEqual(b, []int32{2, 3, 11}) {
		t.Fatalf("b = %v", b)
	}
	// The scratch grew once and was reused; capacity must satisfy both.
	if cap(scratch) < 3 {
		t.Fatalf("scratch cap = %d", cap(scratch))
	}
}

// TestPartitionOverlayShard covers the mapped-base view the sharded
// monitor uses: a shard overlay over a subset of base classes exposes
// local ids over exactly those classes, and overlay-born classes stack on
// top.
func TestPartitionOverlayShard(t *testing.T) {
	rel, err := FromRows(MustSchema("A"), [][]string{
		{"x"}, {"x"}, {"y"}, {"y"}, {"z"}, {"z"}, {"w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := SingleColumnPartition(rel, 0).Strip() // {0,1}, {2,3}, {4,5}
	o := NewPartitionOverlayShard(base, []int32{0, 2})
	if o.NumClasses() != 2 || o.BaseClasses() != 2 {
		t.Fatalf("classes = %d base = %d, want 2/2", o.NumClasses(), o.BaseClasses())
	}
	var scratch []int32
	if got := o.View(0, &scratch); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("local 0 = %v, want base class 0", got)
	}
	if got := o.View(1, &scratch); !reflect.DeepEqual(got, []int32{4, 5}) {
		t.Fatalf("local 1 = %v, want base class 2", got)
	}
	o.Add(1, 8)
	if got := o.View(1, &scratch); !reflect.DeepEqual(got, []int32{4, 5, 8}) {
		t.Fatalf("grown local 1 = %v", got)
	}
	if o.Len(0) != 2 || o.Len(1) != 3 {
		t.Fatalf("lens = %d,%d", o.Len(0), o.Len(1))
	}
	ci := o.AddClass(6, 9)
	if ci != 2 {
		t.Fatalf("overlay-born id = %d, want 2", ci)
	}
	if got := o.View(ci, &scratch); !reflect.DeepEqual(got, []int32{6, 9}) {
		t.Fatalf("overlay-born view = %v", got)
	}
}

// TestPartitionOverlayStableView pins StableView's immutability contract:
// the returned slices keep their contents across later Add/AddClass calls
// (View's results may alias scratch or in-place-growing deltas).
func TestPartitionOverlayStableView(t *testing.T) {
	rel, err := FromRows(MustSchema("A"), [][]string{
		{"x"}, {"x"}, {"y"}, {"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := SingleColumnPartition(rel, 0).Strip()
	o := identityOverlay(base)

	// Pure base class: aliasing the frozen base is fine.
	pure := o.StableView(0)
	if !reflect.DeepEqual(pure, []int32{0, 1}) {
		t.Fatalf("pure = %v", pure)
	}

	// Mixed class: the stable view is a copy, untouched by later growth.
	o.Add(1, 9)
	mixed := o.StableView(1)
	if !reflect.DeepEqual(mixed, []int32{2, 3, 9}) {
		t.Fatalf("mixed = %v", mixed)
	}
	// Overlay-born class grown after taking the stable view: the earlier
	// slice must not change even though Add may extend deltas in place.
	ci := o.AddClass(5)
	born := o.StableView(ci)
	o.Add(ci, 7)
	o.Add(ci, 11)
	if !reflect.DeepEqual(born, []int32{5}) {
		t.Fatalf("stable view mutated by later Add: %v", born)
	}
	o.Add(1, 13)
	if !reflect.DeepEqual(mixed, []int32{2, 3, 9}) {
		t.Fatalf("mixed stable view mutated: %v", mixed)
	}
	if got := o.StableView(ci); !reflect.DeepEqual(got, []int32{5, 7, 11}) {
		t.Fatalf("fresh stable view = %v", got)
	}
}

// TestPartitionOverlayShardEmpty pins the degenerate shard: a shard that
// owns no base classes starts with zero classes and still accepts
// overlay-born classes (ids starting at 0).
func TestPartitionOverlayShardEmpty(t *testing.T) {
	rel, err := FromRows(MustSchema("A"), [][]string{
		{"x"}, {"x"}, {"y"}, {"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := SingleColumnPartition(rel, 0).Strip()
	o := NewPartitionOverlayShard(base, nil)
	if o.NumClasses() != 0 || o.BaseClasses() != 0 {
		t.Fatalf("empty shard: classes=%d base=%d", o.NumClasses(), o.BaseClasses())
	}
	// Overlay-born-only: every class lives in the deltas.
	ci := o.AddClass(1, 3)
	if ci != 0 || o.NumClasses() != 1 {
		t.Fatalf("born id = %d classes = %d", ci, o.NumClasses())
	}
	var scratch []int32
	if got := o.View(ci, &scratch); !reflect.DeepEqual(got, []int32{1, 3}) {
		t.Fatalf("born view = %v", got)
	}
	if got := o.StableView(ci); !reflect.DeepEqual(got, []int32{1, 3}) {
		t.Fatalf("born stable view = %v", got)
	}
}

// TestPartitionOverlayMidIDEdits pins the edits antecedent moves make:
// a tuple that joins below a class's largest id or leaves it detaches a
// base class once (its base-map entry becomes Detached) and is inserted
// or deleted in place, every class stays ascending, stable views taken
// before an edit keep their contents, and a class can empty and refill.
func TestPartitionOverlayMidIDEdits(t *testing.T) {
	rel, err := FromRows(MustSchema("A"), [][]string{
		{"x"}, {"y"}, {"x"}, {"y"}, {"x"}, {"z"}, {"z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := SingleColumnPartition(rel, 0).Strip() // {0,2,4}, {1,3}, {5,6}
	o := identityOverlay(base)
	var scratch []int32
	view := func(ci int) []int32 { return append([]int32(nil), o.View(ci, &scratch)...) }

	pure := o.StableView(0)
	o.Add(0, 9) // past the largest id: the append path keeps the base
	if b, _ := o.Parts(0); b == nil || o.BaseMap()[0] == Detached {
		t.Fatal("an append must not detach a base class")
	}
	before := o.StableView(0)
	o.Add(0, 3) // mid-id: detaches and inserts
	if got := view(0); !reflect.DeepEqual(got, []int32{0, 2, 3, 4, 9}) {
		t.Fatalf("after a mid-id add: %v", got)
	}
	if b, _ := o.Parts(0); b != nil || o.BaseMap()[0] != Detached {
		t.Fatal("a mid-id add must detach the base class")
	}
	if n := o.Remove(0, 2); n != 4 || !reflect.DeepEqual(view(0), []int32{0, 3, 4, 9}) {
		t.Fatalf("after removing 2: len %d, %v", n, view(0))
	}
	if !reflect.DeepEqual(pure, []int32{0, 2, 4}) || !reflect.DeepEqual(before, []int32{0, 2, 4, 9}) {
		t.Fatalf("stable views changed under edits: %v, %v", pure, before)
	}

	// Removing from an undetached base class detaches it; the class can
	// empty, keep its id, and take tuples again.
	if n := o.Remove(1, 3); n != 1 || o.BaseMap()[1] != Detached {
		t.Fatalf("remove from a base class: len %d, base map %v", n, o.BaseMap())
	}
	if n := o.Remove(1, 1); n != 0 || o.Len(1) != 0 || o.NumClasses() != 3 {
		t.Fatalf("emptied class: len %d, classes %d", o.Len(1), o.NumClasses())
	}
	o.Add(1, 8)
	o.Add(1, 6)
	if got := view(1); !reflect.DeepEqual(got, []int32{6, 8}) {
		t.Fatalf("refilled class: %v", got)
	}

	// Overlay-born classes take mid-id edits the same way, and a tuple
	// that is not in the class is left alone.
	ci := o.AddClass(4, 7)
	o.Add(ci, 5)
	o.Add(ci, 1)
	if n := o.Remove(ci, 6); n != 4 {
		t.Fatalf("removing an absent tuple changed the class: len %d", n)
	}
	if got := view(ci); !reflect.DeepEqual(got, []int32{1, 4, 5, 7}) {
		t.Fatalf("born class: %v", got)
	}
	if got := view(2); !reflect.DeepEqual(got, []int32{5, 6}) {
		t.Fatalf("untouched base class: %v", got)
	}
}
