package relation

import "slices"

// PartitionOverlay extends a base flat Partition with growable per-class
// delta lists, so tuples join and leave their equivalence classes without
// copying (or invalidating) the base partition's flat arrays. It is the
// representation behind incremental detection: the base partition stays
// exactly the PartitionCache's memory, appends accumulate in small
// per-class deltas, and brand-new classes (born after the base was built)
// live entirely in the overlay.
//
// Class ids are stable: ids below BaseClasses() refer to base classes, ids
// at or above it to overlay-born classes, in creation order. Every class
// keeps its tuple ids ascending whatever order tuples join or leave in:
// a tuple past the class's largest id is appended (the append path, where
// new rows get the largest id yet), and the first edit anywhere else
// detaches a base class into a private sorted list (its base-map entry
// becomes Detached), which later edits insert into and delete from in
// place. A class that loses every tuple stays as an empty id.
//
// An overlay is not safe for concurrent mutation; concurrent readers are
// fine between mutations.
type PartitionOverlay struct {
	base  *Partition
	nBase int
	// deltas[ci] holds the tuples added to base class ci after the base
	// was built; for a detached or overlay-born class the slice is the
	// whole class.
	deltas [][]int32
	// baseMap maps local class ids to base class ids: the overlay covers
	// only the listed subset of base classes (the sharded monitor's
	// per-shard view of one PartitionCache base). Detached entries no
	// longer read the base.
	baseMap []int32
}

// Detached is the base-map entry of a base class whose membership moved
// into the overlay's private sorted list.
const Detached int32 = -1

// NewPartitionOverlayShard wraps base restricted to the given base class
// ids: local class id k < len(baseClasses) denotes base class
// baseClasses[k]; ids at or above it denote overlay-born classes. The
// slice is retained (not copied); the overlay itself rewrites an entry to
// Detached, and callers must not mutate it afterwards. This is the
// per-shard view of a shared PartitionCache base: S shard overlays
// partition the base's classes without copying any of its flat arrays.
func NewPartitionOverlayShard(base *Partition, baseClasses []int32) *PartitionOverlay {
	return &PartitionOverlay{
		base:    base,
		nBase:   len(baseClasses),
		deltas:  make([][]int32, len(baseClasses)),
		baseMap: baseClasses,
	}
}

// baseClass returns the base tuple view behind class ci, or nil when ci
// is overlay-born or detached (its deltas are then the whole class).
func (o *PartitionOverlay) baseClass(ci int) []int32 {
	if ci >= o.nBase || o.baseMap[ci] == Detached {
		return nil
	}
	return o.base.Class(int(o.baseMap[ci]))
}

// Base returns the frozen base partition.
func (o *PartitionOverlay) Base() *Partition { return o.base }

// NumClasses returns the total number of classes, base plus overlay-born.
func (o *PartitionOverlay) NumClasses() int { return len(o.deltas) }

// BaseClasses returns the number of classes in the frozen base; class ids
// below this index their delta against the base's flat arrays.
func (o *PartitionOverlay) BaseClasses() int { return o.nBase }

// Add joins tuple t to class ci, keeping the class ascending. A tuple past
// the class's largest id is appended; any other detaches a base class
// (once) and is inserted in place.
func (o *PartitionOverlay) Add(ci int, t int32) {
	b, d := o.Parts(ci)
	last := int32(-1)
	if len(d) > 0 {
		last = d[len(d)-1]
	} else if len(b) > 0 {
		last = b[len(b)-1]
	}
	if t > last {
		o.deltas[ci] = append(d, t)
		return
	}
	if b != nil {
		o.detach(ci)
		d = o.deltas[ci]
	}
	k, _ := slices.BinarySearch(d, t)
	o.deltas[ci] = slices.Insert(d, k, t)
}

// Remove takes tuple t out of class ci (detaching a base class first) and
// returns the class's remaining size. A tuple not in the class is left
// alone.
func (o *PartitionOverlay) Remove(ci int, t int32) int {
	if o.baseClass(ci) != nil {
		o.detach(ci)
	}
	d := o.deltas[ci]
	if k, found := slices.BinarySearch(d, t); found {
		d = slices.Delete(d, k, k+1)
		o.deltas[ci] = d
	}
	return len(d)
}

// detach copies base class ci and its deltas into one private sorted list
// and marks the class Detached.
func (o *PartitionOverlay) detach(ci int) {
	b := o.baseClass(ci)
	d := o.deltas[ci]
	s := make([]int32, 0, len(b)+len(d)+1)
	s = append(s, b...)
	o.deltas[ci] = append(s, d...)
	o.baseMap[ci] = Detached
}

// AddClass creates a new overlay-born class holding the given tuples
// (which must be in ascending order) and returns its class id.
func (o *PartitionOverlay) AddClass(tuples ...int32) int {
	ci := len(o.deltas)
	o.deltas = append(o.deltas, append([]int32(nil), tuples...))
	return ci
}

// Parts returns class ci's tuples as its base part and its overlay part,
// both ascending and the first wholly below the second: the base part is
// nil for a detached or overlay-born class. Neither is copied, so both
// are valid only until the overlay is mutated.
func (o *PartitionOverlay) Parts(ci int) (base, delta []int32) {
	return o.baseClass(ci), o.deltas[ci]
}

// Len returns the number of tuples in class ci.
func (o *PartitionOverlay) Len(ci int) int {
	return len(o.baseClass(ci)) + len(o.deltas[ci])
}

// View returns class ci's tuple ids in ascending order. Classes without
// overlay tuples, detached and overlay-born classes are returned as
// zero-copy views; classes with both base and delta tuples are
// materialized into *scratch, which is grown as needed and reused across
// calls. The result is valid only until scratch is reused or the overlay
// is mutated.
func (o *PartitionOverlay) View(ci int, scratch *[]int32) []int32 {
	b := o.baseClass(ci)
	d := o.deltas[ci]
	if b == nil {
		return d
	}
	if len(d) == 0 {
		return b
	}
	s := (*scratch)[:0]
	s = append(s, b...)
	s = append(s, d...)
	*scratch = s
	return s
}

// StableView returns class ci's tuple ids in ascending order as a slice
// that stays valid and immutable across later Add/Remove/AddClass calls on
// this overlay (unlike View, whose result may alias reusable scratch or a
// delta slice that a later edit changes in place). Pure-base classes
// alias the frozen base arrays; classes touched by the overlay are
// copied. The sharded monitor stages these in epoch snapshots read
// concurrently with subsequent mutations.
func (o *PartitionOverlay) StableView(ci int) []int32 {
	b := o.baseClass(ci)
	d := o.deltas[ci]
	if b == nil {
		return append([]int32(nil), d...)
	}
	if len(d) == 0 {
		return b
	}
	s := make([]int32, 0, len(b)+len(d))
	s = append(s, b...)
	return append(s, d...)
}
