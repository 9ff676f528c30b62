package relation

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randRelation builds a relation with the given shape and value skew.
func randRelation(t *testing.T, rng *rand.Rand, rows, cols, domain int) *Relation {
	t.Helper()
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("C%d", i)
	}
	rel := New(MustSchema(names...))
	row := make([]string, cols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(domain))
		}
		rel.AppendRow(row)
	}
	return rel
}

// samePartition asserts two stripped partitions are byte-identical in
// canonical form.
func samePartition(t *testing.T, got, want *Partition, msg string) {
	t.Helper()
	if got.N != want.N || got.Stripped != want.Stripped {
		t.Fatalf("%s: shape differs: N=%d/%d stripped=%v/%v",
			msg, got.N, want.N, got.Stripped, want.Stripped)
	}
	if !reflect.DeepEqual(got.ClassesAsInts(), want.ClassesAsInts()) {
		t.Fatalf("%s: classes differ\n got %v\nwant %v",
			msg, got.ClassesAsInts(), want.ClassesAsInts())
	}
}

// TestProductMatchesPartitionOf cross-checks the probe-table product against
// direct grouping: Π*_X · Π*_Y must equal Π*_{X∪Y} in canonical form. A
// single buffer serves every trial, covering reuse across relations of
// varying row counts in passing.
func TestProductMatchesPartitionOf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf ProductBuffer
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rng.Intn(300)
		cols := 2 + rng.Intn(4)
		rel := randRelation(t, rng, rows, cols, 1+rng.Intn(8))
		x := Single(rng.Intn(cols))
		y := Single(rng.Intn(cols))
		if rng.Intn(2) == 0 && cols > 2 {
			x = x.With(rng.Intn(cols))
		}
		pa := PartitionOf(rel, x).Strip()
		pb := PartitionOf(rel, y).Strip()
		want := PartitionOf(rel, x.Union(y)).Strip()
		got := buf.Product(pa, pb)
		samePartition(t, got, want, fmt.Sprintf("trial %d (%v·%v, %d rows)", trial, x, y, rows))
		// The product is symmetric in canonical form.
		samePartition(t, buf.Product(pb, pa), want, fmt.Sprintf("trial %d reversed", trial))
	}
}

// TestProductBufferReuseAcrossRowCounts drives one buffer through relations
// whose row counts shrink and then grow, which exercises both the
// probe-array reuse (larger than needed) and regrowth paths.
func TestProductBufferReuseAcrossRowCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var buf ProductBuffer
	for _, rows := range []int{500, 17, 3, 977, 1, 250} {
		rel := randRelation(t, rng, rows, 3, 4)
		pa := SingleColumnPartition(rel, 0).Strip()
		pb := SingleColumnPartition(rel, 1).Strip()
		want := PartitionOf(rel, Single(0).With(1)).Strip()
		got := buf.Product(pa, pb)
		samePartition(t, got, want, fmt.Sprintf("rows=%d", rows))
	}
}

// TestProductEmptyAndSingletonInputs covers the degenerate shapes: an empty
// stripped partition (a key) as either operand, and inputs whose product
// strips to nothing.
func TestProductEmptyAndSingletonInputs(t *testing.T) {
	rel, err := FromRows(MustSchema("K", "G", "H"), [][]string{
		{"k0", "g0", "h0"},
		{"k1", "g0", "h1"},
		{"k2", "g1", "h0"},
		{"k3", "g1", "h1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf ProductBuffer
	key := SingleColumnPartition(rel, 0).Strip() // every class singleton
	if !key.IsKeyOver() || key.NumClasses() != 0 {
		t.Fatalf("column K should strip to an empty partition, got %v", key.ClassesAsInts())
	}
	grp := SingleColumnPartition(rel, 1).Strip()
	for _, pair := range [][2]*Partition{{key, grp}, {grp, key}, {key, key}} {
		p := buf.Product(pair[0], pair[1])
		if p.NumClasses() != 0 || !p.IsKeyOver() || p.Error() != 0 {
			t.Fatalf("product with a key operand must be empty, got %v", p.ClassesAsInts())
		}
		if p.N != rel.NumRows() {
			t.Fatalf("empty product lost N: %d", p.N)
		}
	}
	// G and H each have 2-tuple classes, but G∧H identifies every row: the
	// product's classes are all singletons and must be stripped away.
	hp := SingleColumnPartition(rel, 2).Strip()
	p := buf.Product(grp, hp)
	if p.NumClasses() != 0 || !p.IsKeyOver() {
		t.Fatalf("all-singleton product should strip to empty, got %v", p.ClassesAsInts())
	}
	// Buffer state must be clean afterwards: an unrelated product still
	// matches a fresh computation.
	want := Product(grp, grp)
	samePartition(t, buf.Product(grp, grp), want, "buffer reuse after empty products")
}

// TestRefineByLUTMatchesProduct cross-checks the lookup-vector refinement
// against the general product: for any Π*_X and single column c,
// RefineByLUT(Π*_X, lut_c) must be byte-identical to Π*_X · Π*_c in
// canonical form — including key columns (empty lut) and relations whose
// canonical reorder path fires. One buffer serves every trial.
func TestRefineByLUTMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf ProductBuffer
	for trial := 0; trial < 80; trial++ {
		rows := 1 + rng.Intn(300)
		cols := 2 + rng.Intn(4)
		// Occasionally a near-key domain so the single strips to (almost)
		// nothing and the lut is mostly −1.
		domain := 1 + rng.Intn(8)
		if trial%7 == 0 {
			domain = rows + 1
		}
		rel := randRelation(t, rng, rows, cols, domain)
		x := Single(rng.Intn(cols))
		if cols > 2 && rng.Intn(2) == 0 {
			x = x.With(rng.Intn(cols))
		}
		c := rng.Intn(cols)
		p := PartitionOf(rel, x).Strip()
		single := SingleColumnPartition(rel, c).Strip()
		lut := make([]int32, rows)
		for i := range lut {
			lut[i] = -1
		}
		for ci := 0; ci < single.NumClasses(); ci++ {
			for _, tt := range single.Class(ci) {
				lut[tt] = int32(ci)
			}
		}
		want := PartitionOf(rel, x.With(c)).Strip()
		got := buf.RefineByLUT(p, lut, single.NumClasses())
		samePartition(t, got, want, fmt.Sprintf("trial %d (%v refined by %d, %d rows)", trial, x, c, rows))
		// Buffer state stays clean for a subsequent general product.
		samePartition(t, buf.Product(p, single), want, fmt.Sprintf("trial %d product after refine", trial))
	}
}

// TestCacheLUTInvalidation pins the lookup-vector staleness contract: an
// in-place update to a column must drop its lut (via InvalidateTouched)
// so derivation chains never group by pre-update values, and an append
// must rebuild luts through the row-count stamp.
func TestCacheLUTInvalidation(t *testing.T) {
	rel, err := FromRows(MustSchema("A", "B", "C"), [][]string{
		{"a0", "b0", "c0"},
		{"a0", "b0", "c1"},
		{"a1", "b1", "c0"},
		{"a1", "b1", "c1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPartitionCache(rel)
	check := func(attrs AttrSet, msg string) {
		t.Helper()
		got := pc.Get(attrs)
		want := PartitionOf(rel, attrs).Strip()
		if !reflect.DeepEqual(got.ClassesAsInts(), want.ClassesAsInts()) {
			t.Fatalf("%s: Get(%v) = %v, want %v", msg, attrs, got.ClassesAsInts(), want.ClassesAsInts())
		}
	}
	abc := Single(0).With(1).With(2)
	check(abc, "cold chain")
	// Rewrite B for row 1 and invalidate: the chain must regroup by the
	// new value, which only happens if B's lut was dropped too.
	rel.SetString(1, 1, "b1")
	pc.InvalidateTouched(Single(1))
	check(abc, "after in-place update")
	check(Single(1).With(2), "fresh pair after update")
	// Appends shift every partition; the row stamp retires old luts.
	rel.AppendRow([]string{"a0", "b0", "c0"})
	pc.InvalidateStale()
	check(abc, "after append")
}

// TestProductCanonicalOrder forces the non-sorted discovery order so the
// bucket-permutation reorder path is exercised: class representatives from
// a later b-class can precede those of an earlier one.
func TestProductCanonicalOrder(t *testing.T) {
	// Column B visits class reps out of ascending order relative to A.
	rel, err := FromRows(MustSchema("A", "B"), [][]string{
		{"a0", "b1"}, // row 0
		{"a0", "b1"},
		{"a1", "b0"},
		{"a1", "b0"},
		{"a0", "b0"},
		{"a0", "b0"},
		{"a1", "b1"},
		{"a1", "b1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf ProductBuffer
	got := buf.Product(SingleColumnPartition(rel, 0).Strip(), SingleColumnPartition(rel, 1).Strip())
	want := PartitionOf(rel, Single(0).With(1)).Strip()
	samePartition(t, got, want, "reordered product")
	// Canonical form: class reps strictly ascending, tuples ascending.
	prev := int32(-1)
	for ci := 0; ci < got.NumClasses(); ci++ {
		class := got.Class(ci)
		if class[0] <= prev {
			t.Fatalf("class reps not ascending: %v", got.ClassesAsInts())
		}
		prev = class[0]
		for j := 1; j < len(class); j++ {
			if class[j] <= class[j-1] {
				t.Fatalf("class %d not ascending: %v", ci, class)
			}
		}
	}
}

// TestPartitionCacheConcurrent hammers one cache from many goroutines with
// mixed Get/Put/Evict/Stats traffic. Run under -race this is the regression
// test for the formerly unguarded cache map; the correctness half checks
// every Get against a direct computation.
func TestPartitionCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := randRelation(t, rng, 200, 5, 3)
	pc, err := NewPartitionCacheContext(context.Background(), rel, 4)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]AttrSet, 0, 24)
	for a := 0; a < 5; a++ {
		for b := a; b < 5; b++ {
			sets = append(sets, Single(a).With(b))
		}
	}
	sets = append(sets, EmptySet, Single(0).With(1).With(2), Single(2).With(3).With(4))

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				s := sets[r.Intn(len(sets))]
				switch r.Intn(10) {
				case 0:
					pc.Put(s, PartitionOf(rel, s))
				case 1:
					pc.Evict(2 + r.Intn(2))
				case 2:
					pc.Stats()
				default:
					got := pc.Get(s)
					want := PartitionOf(rel, s).Strip()
					if !reflect.DeepEqual(got.ClassesAsInts(), want.ClassesAsInts()) {
						select {
						case errs <- fmt.Sprintf("Get(%v) wrong under concurrency", s):
						default:
						}
						return
					}
				}
			}
		}(int64(g) + 100)
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
	st := pc.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats should record both hits and misses: %+v", st)
	}
	if st.Entries == 0 || st.Bytes < 0 {
		t.Fatalf("implausible footprint: %+v", st)
	}
}

// TestPartitionCacheEvictLevels checks the two-level eviction contract:
// Evict(k) removes exactly the size-k sets, leaves other levels intact, and
// keeps the byte counter consistent (0 once everything is gone).
func TestPartitionCacheEvictLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rel := randRelation(t, rng, 120, 4, 3)
	pc := NewPartitionCache(rel)
	pairs := []AttrSet{Single(0).With(1), Single(1).With(2), Single(2).With(3)}
	triples := []AttrSet{Single(0).With(1).With(2), Single(1).With(2).With(3)}
	for _, s := range append(append([]AttrSet{}, pairs...), triples...) {
		pc.Get(s)
	}
	before := pc.Stats()
	pc.Evict(2)
	mid := pc.Stats()
	if got, want := before.Entries-mid.Entries, len(pairs); got != want {
		t.Fatalf("Evict(2) removed %d entries, want %d", got, want)
	}
	for _, s := range triples {
		if _, ok := pc.lookup(s); !ok {
			t.Fatalf("Evict(2) must not touch level 3 (%v)", s)
		}
	}
	for c := 0; c < rel.NumCols(); c++ {
		if _, ok := pc.lookup(Single(c)); !ok {
			t.Fatalf("Evict(2) must not touch singles (%d)", c)
		}
	}
	// Evicting a level twice, or an absent level, is a no-op.
	pc.Evict(2)
	pc.Evict(7)
	if got := pc.Stats(); got.Entries != mid.Entries {
		t.Fatalf("repeat eviction changed entries: %d vs %d", got.Entries, mid.Entries)
	}
	pc.Evict(3)
	pc.Evict(1)
	pc.Evict(0)
	if got := pc.Stats(); got.Entries != 0 || got.Bytes != 0 {
		t.Fatalf("full eviction should zero the footprint: %+v", got)
	}
}
