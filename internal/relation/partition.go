package relation

// Partition is the set of equivalence classes Π_X of tuples agreeing on an
// attribute set X. A stripped partition Π*_X omits singleton classes, which
// can never violate a dependency X → A (Lemma 6 of the paper).
//
// The representation is flat: one tuple array holding every class
// back-to-back plus an offset index, rather than a slice per class. The
// lattice traversal computes millions of partition products; the flat
// layout makes a product cost two allocations (tuples + offsets) instead
// of one per output class, and scans sequentially instead of chasing
// per-class pointers. See DESIGN.md ("Flat partition memory layout").
type Partition struct {
	// Tuples holds the tuple ids of every equivalence class back-to-back.
	// Within a class ids are ascending; classes are ordered by their
	// smallest id (the class representative), giving a canonical form.
	Tuples []int32
	// Offsets indexes Tuples: class i is Tuples[Offsets[i]:Offsets[i+1]],
	// so len(Offsets) is NumClasses+1. A partition with no classes may
	// have a nil or single-element Offsets.
	Offsets []int32
	// N is the number of tuples in the underlying relation (not the number
	// covered by Tuples; stripped partitions cover fewer).
	N int
	// Stripped records whether singleton classes were removed.
	Stripped bool
}

// NumClasses returns the number of equivalence classes.
func (p *Partition) NumClasses() int {
	if len(p.Offsets) < 2 {
		return 0
	}
	return len(p.Offsets) - 1
}

// Class returns the tuple ids of class i as a view into the flat array;
// callers must not modify it. The view's capacity ends at the class, so
// appending to it copies instead of writing into the next class.
func (p *Partition) Class(i int) []int32 {
	lo, hi := p.Offsets[i], p.Offsets[i+1]
	return p.Tuples[lo:hi:hi]
}

// ClassInts materializes class i as []int.
func (p *Partition) ClassInts(i int) []int {
	c := p.Class(i)
	out := make([]int, len(c))
	for j, t := range c {
		out[j] = int(t)
	}
	return out
}

// ClassesAsInts materializes every class as []int — a convenience for
// tests and cold paths; hot paths should iterate Class(i) views.
func (p *Partition) ClassesAsInts() [][]int {
	out := make([][]int, p.NumClasses())
	for i := range out {
		out[i] = p.ClassInts(i)
	}
	return out
}

// Size returns the total number of tuples across classes.
func (p *Partition) Size() int { return len(p.Tuples) }

// Error returns ‖Π‖ − |Π|, the minimum number of tuples to remove so that X
// becomes a key over the covered tuples — TANE's e(X) numerator, used by
// key detection and approximate dependencies. With the flat layout this is
// arithmetic on lengths: Σ_c (|c|−1) = |Tuples| − |classes|.
func (p *Partition) Error() int { return len(p.Tuples) - p.NumClasses() }

// IsKeyOver reports whether the partition certifies X as a (super)key: a
// stripped partition with no classes means every class was a singleton.
func (p *Partition) IsKeyOver() bool {
	if p.Stripped {
		return p.NumClasses() == 0
	}
	return len(p.Tuples) == p.NumClasses()
}

// Strip returns the stripped version of p (no singleton classes). If p is
// already stripped it is returned unchanged.
func (p *Partition) Strip() *Partition {
	if p.Stripped {
		return p
	}
	kept, keptTuples := 0, 0
	for i := 0; i < p.NumClasses(); i++ {
		if sz := int(p.Offsets[i+1] - p.Offsets[i]); sz > 1 {
			kept++
			keptTuples += sz
		}
	}
	out := &Partition{N: p.N, Stripped: true}
	if kept == 0 {
		return out
	}
	out.Tuples = make([]int32, 0, keptTuples)
	out.Offsets = make([]int32, 1, kept+1)
	for i := 0; i < p.NumClasses(); i++ {
		if p.Offsets[i+1]-p.Offsets[i] > 1 {
			out.Tuples = append(out.Tuples, p.Class(i)...)
			out.Offsets = append(out.Offsets, int32(len(out.Tuples)))
		}
	}
	return out
}

// SingleColumnPartition computes Π_{A} for one attribute. Because column
// values are dictionary-encoded, grouping is a counting pass over a dense
// value→class table instead of a hash map; class ids are assigned in order
// of first appearance, which is exactly canonical (representative) order.
func SingleColumnPartition(r *Relation, col int) *Partition {
	n := r.NumRows()
	colVals := r.Column(col)
	// Slot 0 is reserved for NullValue (-1); interned values map to v+1.
	table := make([]int32, r.Dict(col).Size()+1)
	for i := range table {
		table[i] = -1
	}
	sizes := make([]int32, 0, 16)
	for b := 0; b < colVals.NumBlocks(); b++ {
		for _, v := range colVals.Block(b) {
			s := int(v) + 1
			if table[s] < 0 {
				table[s] = int32(len(sizes))
				sizes = append(sizes, 0)
			}
			sizes[table[s]]++
		}
	}
	nc := len(sizes)
	offsets := make([]int32, nc+1)
	for i, sz := range sizes {
		offsets[i+1] = offsets[i] + sz
	}
	tuples := make([]int32, n)
	cursor := sizes // reuse: cursor[i] = next write position of class i
	copy(cursor, offsets[:nc])
	row := 0
	for b := 0; b < colVals.NumBlocks(); b++ {
		for _, v := range colVals.Block(b) {
			ci := table[int(v)+1]
			tuples[cursor[ci]] = int32(row)
			cursor[ci]++
			row++
		}
	}
	return &Partition{Tuples: tuples, Offsets: offsets, N: n}
}

// PartitionOf computes Π_X for an arbitrary attribute set by grouping on the
// concatenation of encoded values. For the empty set it returns a single
// class containing all tuples. Class ids are assigned in first-appearance
// order, which is canonical order.
func PartitionOf(r *Relation, attrs AttrSet) *Partition {
	n := r.NumRows()
	if attrs.IsEmpty() {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return &Partition{Tuples: all, Offsets: []int32{0, int32(n)}, N: n}
	}
	cols := attrs.Attrs()
	groups := make(map[string]int32)
	classOf := make([]int32, n)
	sizes := make([]int32, 0, 16)
	buf := make([]byte, 0, 8*len(cols))
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, c := range cols {
			v := r.Value(i, c)
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), '|')
		}
		ci, ok := groups[string(buf)]
		if !ok {
			ci = int32(len(sizes))
			groups[string(buf)] = ci
			sizes = append(sizes, 0)
		}
		classOf[i] = ci
		sizes[ci]++
	}
	nc := len(sizes)
	offsets := make([]int32, nc+1)
	for i, sz := range sizes {
		offsets[i+1] = offsets[i] + sz
	}
	tuples := make([]int32, n)
	cursor := sizes
	copy(cursor, offsets[:nc])
	for i := 0; i < n; i++ {
		ci := classOf[i]
		tuples[cursor[ci]] = int32(i)
		cursor[ci]++
	}
	return &Partition{Tuples: tuples, Offsets: offsets, N: n}
}

// ProductBuffer holds reusable scratch space for partition products over
// one relation, avoiding the per-product scratch allocations that would
// otherwise dominate lattice traversal. A zero ProductBuffer is usable;
// buffers are not safe for concurrent use but may be reused across
// relations (even of different row counts).
type ProductBuffer struct {
	// probe[t] = index of the a-class containing tuple t, or -1. All slots
	// are -1 between calls; Product resets only the slots it wrote.
	probe []int32
	// counts/cursor are indexed by a-class; counts is all-zero between
	// calls (reset via touched).
	counts  []int32
	cursor  []int32
	touched []int32
	// tuples/starts stage the output classes in discovery order before the
	// canonical reorder.
	tuples []int32
	starts []int32
	// bucket maps representative tuple -> class index + 1 during the
	// canonical reorder; all-zero between calls (the reorder scan clears
	// the slots it reads).
	bucket []int32
}

// Product computes the stripped partition Π*_{X∪Y} = Π*_X · Π*_Y in time
// linear in the sizes of the inputs, using the probe-table method of TANE.
// Both inputs must be partitions over the same relation.
func Product(a, b *Partition) *Partition {
	var buf ProductBuffer
	return buf.Product(a, b)
}

// Product is the buffer-reusing form of the package-level Product.
func (buf *ProductBuffer) Product(a, b *Partition) *Partition {
	a, b = a.Strip(), b.Strip()
	// The probe side costs two passes over its payload (fill + clear), the
	// bucketing side three; giving the probe side the larger payload
	// minimizes the total. It also makes emission follow the smaller —
	// usually already-refined — side's class order, which is the order the
	// sorted fast path below accepts.
	if len(a.Tuples) < len(b.Tuples) {
		a, b = b, a
	}
	if len(buf.probe) < a.N {
		buf.probe = make([]int32, a.N)
		for i := range buf.probe {
			buf.probe[i] = -1
		}
	}
	probe := buf.probe
	for ci := 0; ci < a.NumClasses(); ci++ {
		for _, t := range a.Class(ci) {
			probe[t] = int32(ci)
		}
	}
	if len(buf.counts) < a.NumClasses() {
		buf.counts = make([]int32, a.NumClasses())
		buf.cursor = make([]int32, a.NumClasses())
	}
	counts, cursor := buf.counts, buf.cursor
	if cap(buf.tuples) < len(b.Tuples) {
		buf.tuples = make([]int32, len(b.Tuples))
	}
	scratch := buf.tuples[:cap(buf.tuples)]
	starts := buf.starts[:0]
	touched := buf.touched[:0]
	// For each b-class, bucket its tuples by a-class id in two passes:
	// count per a-class, assign each surviving (size ≥ 2) bucket a
	// contiguous range of the scratch array, then fill. Tuples within a
	// b-class arrive in ascending order, so buckets come out sorted.
	pos := int32(0)
	for bc := 0; bc < b.NumClasses(); bc++ {
		class := b.Class(bc)
		for _, t := range class {
			if ci := probe[t]; ci >= 0 {
				if counts[ci] == 0 {
					touched = append(touched, ci)
				}
				counts[ci]++
			}
		}
		filled := false
		for _, ci := range touched {
			if counts[ci] > 1 {
				cursor[ci] = pos
				starts = append(starts, pos)
				pos += counts[ci]
				filled = true
			} else {
				cursor[ci] = -1
			}
		}
		if filled {
			for _, t := range class {
				if ci := probe[t]; ci >= 0 && cursor[ci] >= 0 {
					scratch[cursor[ci]] = t
					cursor[ci]++
				}
			}
		}
		for _, ci := range touched {
			counts[ci] = 0
		}
		touched = touched[:0]
	}
	buf.touched = touched
	buf.starts = starts
	// Clear the probe slots we wrote so the next call starts clean.
	for ci := 0; ci < a.NumClasses(); ci++ {
		for _, t := range a.Class(ci) {
			probe[t] = -1
		}
	}
	out := &Partition{N: a.N, Stripped: true}
	nc := len(starts)
	if nc == 0 {
		return out
	}
	classEnd := func(k int32) int32 {
		if int(k+1) < nc {
			return starts[k+1]
		}
		return pos
	}
	out.Tuples = make([]int32, pos)
	out.Offsets = make([]int32, nc+1)
	// Classes carry sorted tuples already; order classes canonically by
	// representative. Discovery order is usually close to canonical, so
	// test sortedness before paying for the permutation.
	sorted := true
	for k := 1; k < nc; k++ {
		if scratch[starts[k]] < scratch[starts[k-1]] {
			sorted = false
			break
		}
	}
	if sorted {
		copy(out.Tuples, scratch[:pos])
		copy(out.Offsets, starts)
		out.Offsets[nc] = pos
		return out
	}
	// Canonical reorder without a comparison sort: representatives are
	// distinct tuple ids, so dropping each class index into a bucket keyed
	// by its representative and sweeping the row space in ascending order
	// yields rep-sorted classes in O(nc + max rep) sequential array work —
	// the quicksort this replaces paid a cache-hostile indirect compare
	// per element. The sweep clears every slot it reads, keeping the
	// buffer's all-zero invariant without a separate pass.
	if len(buf.bucket) < a.N {
		buf.bucket = make([]int32, a.N)
	}
	bucket := buf.bucket
	maxRep := int32(0)
	for k := 0; k < nc; k++ {
		rep := scratch[starts[k]]
		bucket[rep] = int32(k) + 1
		if rep > maxRep {
			maxRep = rep
		}
	}
	w := int32(0)
	i := 0
	for t := int32(0); t <= maxRep; t++ {
		k := bucket[t]
		if k == 0 {
			continue
		}
		bucket[t] = 0
		out.Offsets[i] = w
		i++
		w += int32(copy(out.Tuples[w:], scratch[starts[k-1]:classEnd(k-1)]))
	}
	out.Offsets[nc] = w
	return out
}

// RefineByLUT computes Π*_{X∪{c}} = Π*_X · Π*_c with the single column c
// presented as a prebuilt row→class lookup vector (lut[t] = class index
// of tuple t in Π*_c, −1 for stripped singleton rows) instead of a
// partition. The vector is exactly the probe table the general Product
// fills and clears per call — two O(n) passes over the column's ~n-row
// payload — so refining by a column costs three passes over p's stripped
// payload alone: the per-step cost of a repair-time partition chain
// drops from O(n) to O(‖Π*_X‖). lut must cover every tuple of p (same
// relation, same row count) and lutClasses must bound its class ids;
// the output is canonical and byte-identical to Product(p, Π*_c).
func (buf *ProductBuffer) RefineByLUT(p *Partition, lut []int32, lutClasses int) *Partition {
	p = p.Strip()
	if len(buf.counts) < lutClasses {
		buf.counts = make([]int32, lutClasses)
		buf.cursor = make([]int32, lutClasses)
	}
	counts, cursor := buf.counts, buf.cursor
	if cap(buf.tuples) < len(p.Tuples) {
		buf.tuples = make([]int32, len(p.Tuples))
	}
	scratch := buf.tuples[:cap(buf.tuples)]
	starts := buf.starts[:0]
	touched := buf.touched[:0]
	// Bucket each p-class's tuples by their lut id, exactly as Product
	// buckets a b-class by the probe table.
	pos := int32(0)
	for pcl := 0; pcl < p.NumClasses(); pcl++ {
		class := p.Class(pcl)
		for _, t := range class {
			if ci := lut[t]; ci >= 0 {
				if counts[ci] == 0 {
					touched = append(touched, ci)
				}
				counts[ci]++
			}
		}
		filled := false
		for _, ci := range touched {
			if counts[ci] > 1 {
				cursor[ci] = pos
				starts = append(starts, pos)
				pos += counts[ci]
				filled = true
			} else {
				cursor[ci] = -1
			}
		}
		if filled {
			for _, t := range class {
				if ci := lut[t]; ci >= 0 && cursor[ci] >= 0 {
					scratch[cursor[ci]] = t
					cursor[ci]++
				}
			}
		}
		for _, ci := range touched {
			counts[ci] = 0
		}
		touched = touched[:0]
	}
	buf.touched = touched
	buf.starts = starts
	out := &Partition{N: p.N, Stripped: true}
	nc := len(starts)
	if nc == 0 {
		return out
	}
	classEnd := func(k int32) int32 {
		if int(k+1) < nc {
			return starts[k+1]
		}
		return pos
	}
	out.Tuples = make([]int32, pos)
	out.Offsets = make([]int32, nc+1)
	sorted := true
	for k := 1; k < nc; k++ {
		if scratch[starts[k]] < scratch[starts[k-1]] {
			sorted = false
			break
		}
	}
	if sorted {
		copy(out.Tuples, scratch[:pos])
		copy(out.Offsets, starts)
		out.Offsets[nc] = pos
		return out
	}
	if len(buf.bucket) < p.N {
		buf.bucket = make([]int32, p.N)
	}
	bucket := buf.bucket
	maxRep := int32(0)
	for k := 0; k < nc; k++ {
		rep := scratch[starts[k]]
		bucket[rep] = int32(k) + 1
		if rep > maxRep {
			maxRep = rep
		}
	}
	w := int32(0)
	i := 0
	for t := int32(0); t <= maxRep; t++ {
		k := bucket[t]
		if k == 0 {
			continue
		}
		bucket[t] = 0
		out.Offsets[i] = w
		i++
		w += int32(copy(out.Tuples[w:], scratch[starts[k-1]:classEnd(k-1)]))
	}
	out.Offsets[nc] = w
	return out
}
