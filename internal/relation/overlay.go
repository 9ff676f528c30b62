package relation

// PartitionOverlay extends a base flat Partition with growable per-class
// delta lists, so appended tuples join their equivalence classes without
// copying (or invalidating) the base partition's flat arrays. It is the
// representation behind incremental detection: the base partition stays
// exactly the PartitionCache's memory, while appends accumulate in small
// per-class overlays and brand-new classes (born after the base was built)
// live entirely in the overlay.
//
// Class ids are stable: ids below BaseClasses() refer to base classes, ids
// at or above it to overlay-born classes, in creation order. Within a
// class, tuple ids stay ascending as long as callers add tuples in
// ascending order (appends always do — new rows get the largest id yet).
//
// An overlay is not safe for concurrent mutation; concurrent readers are
// fine between mutations.
type PartitionOverlay struct {
	base  *Partition
	nBase int
	// deltas[ci] holds the tuples added to class ci after the base was
	// built; for ci >= nBase the slice is the whole class.
	deltas [][]int32
	// baseMap maps local class ids to base class ids: the overlay covers
	// only the listed subset of base classes (the sharded monitor's
	// per-shard view of one PartitionCache base).
	baseMap []int32
	// added counts the tuples added across all classes (monitoring).
	added int
}

// NewPartitionOverlayShard wraps base restricted to the given base class
// ids: local class id k < len(baseClasses) denotes base class
// baseClasses[k]; ids at or above it denote overlay-born classes. The
// slice is retained (not copied) and must not be mutated afterwards. This
// is the per-shard view of a shared PartitionCache base: S shard overlays
// partition the base's classes without copying any of its flat arrays.
func NewPartitionOverlayShard(base *Partition, baseClasses []int32) *PartitionOverlay {
	return &PartitionOverlay{
		base:    base,
		nBase:   len(baseClasses),
		deltas:  make([][]int32, len(baseClasses)),
		baseMap: baseClasses,
	}
}

// baseClass returns the base tuple view behind local class ci (< nBase).
func (o *PartitionOverlay) baseClass(ci int) []int32 {
	return o.base.Class(int(o.baseMap[ci]))
}

// Base returns the frozen base partition.
func (o *PartitionOverlay) Base() *Partition { return o.base }

// NumClasses returns the total number of classes, base plus overlay-born.
func (o *PartitionOverlay) NumClasses() int { return len(o.deltas) }

// BaseClasses returns the number of classes in the frozen base; class ids
// below this index their delta against the base's flat arrays.
func (o *PartitionOverlay) BaseClasses() int { return o.nBase }

// Added returns the number of tuples added since the base was built.
func (o *PartitionOverlay) Added() int { return o.added }

// Add appends tuple t to class ci. Callers must add tuples in ascending id
// order per class to keep the class canonically sorted.
func (o *PartitionOverlay) Add(ci int, t int32) {
	o.deltas[ci] = append(o.deltas[ci], t)
	o.added++
}

// AddClass creates a new overlay-born class holding the given tuples
// (which must be in ascending order) and returns its class id.
func (o *PartitionOverlay) AddClass(tuples ...int32) int {
	ci := len(o.deltas)
	o.deltas = append(o.deltas, append([]int32(nil), tuples...))
	o.added += len(tuples)
	return ci
}

// Len returns the number of tuples in class ci.
func (o *PartitionOverlay) Len(ci int) int {
	if ci < o.nBase {
		return len(o.baseClass(ci)) + len(o.deltas[ci])
	}
	return len(o.deltas[ci])
}

// View returns class ci's tuple ids in ascending order. Classes without
// overlay tuples (and overlay-born classes) are returned as zero-copy
// views; classes with both base and delta tuples are materialized into
// *scratch, which is grown as needed and reused across calls. The result
// is valid only until scratch is reused or the overlay is mutated.
func (o *PartitionOverlay) View(ci int, scratch *[]int32) []int32 {
	if ci >= o.nBase {
		return o.deltas[ci]
	}
	b := o.baseClass(ci)
	d := o.deltas[ci]
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
// that stays valid and immutable across later Add/AddClass calls on this
// overlay (unlike View, whose result may alias reusable scratch or a
// delta slice that a later Add extends in place). Pure-base classes alias
// the frozen base arrays; classes touched by the overlay are copied. The
// sharded monitor stages these in epoch snapshots read concurrently with
// subsequent mutations.
func (o *PartitionOverlay) StableView(ci int) []int32 {
	if ci >= o.nBase {
		return append([]int32(nil), o.deltas[ci]...)
	}
	b := o.baseClass(ci)
	d := o.deltas[ci]
	if len(d) == 0 {
		return b
	}
	s := make([]int32, 0, len(b)+len(d))
	s = append(s, b...)
	return append(s, d...)
}
