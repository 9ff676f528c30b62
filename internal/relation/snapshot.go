package relation

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"

	"github.com/fastofd/fastofd/internal/wire"
)

// This file is the relation substrate's side of the snapshot format:
// encode/decode of relations (schema + dictionaries + column block
// chains), partitions, partition caches, and partition overlays. The
// encoding is private to the repo's snapshot sections — stability across
// versions is handled by the section header in internal/snapshot, not
// here.
//
// Decoding is zero-copy where it matters: column blocks, partition arrays,
// and overlay deltas alias the reader's buffer (see the wire package for
// the lifetime and mutation contract), and dictionary domains decode as
// slices of one shared string slab with the string→id maps hydrated only
// if the relation is written to again.

// AppendRelation encodes r.
func AppendRelation(w *wire.Writer, r *Relation) {
	w.StringSlab(r.schema.names)
	w.Int(r.n)
	for c := range r.cols {
		w.StringSlab(r.dicts[c].byID)
		col := r.cols[c]
		w.Int(col.NumBlocks())
		for b := 0; b < col.NumBlocks(); b++ {
			w.Int32s(valuesToInt32s(col.Block(b)))
		}
	}
}

// DecodeRelation decodes a relation written by AppendRelation.
func DecodeRelation(r *wire.Reader) (*Relation, error) {
	names := r.StringSlab()
	if r.Err() != nil {
		return nil, r.Err()
	}
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	rel.n = r.Int()
	for c := 0; c < schema.Len(); c++ {
		rel.dicts[c] = restoreDict(r.StringSlab())
		nBlocks := r.Int()
		for b := 0; b < nBlocks; b++ {
			blk := int32sToValues(r.Int32s())
			if r.Err() != nil {
				return nil, r.Err()
			}
			rel.cols[c].appendBlock(blk)
		}
		if rel.cols[c].Len() != rel.n {
			return nil, fmt.Errorf("relation: snapshot column %d has %d codes, want %d", c, rel.cols[c].Len(), rel.n)
		}
	}
	return rel, r.Err()
}

// valuesToInt32s reinterprets a []Value as []int32 without copying: Value
// is a defined int32, so the element layouts are identical and only the
// slice header changes. Keeping the reinterpretation (rather than a copy
// loop) preserves the zero-copy decode path end to end — a restored
// column block is a view of the snapshot buffer.
func valuesToInt32s(vs []Value) []int32 {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&vs[0])), len(vs))[:len(vs):len(vs)]
}

// int32sToValues is the inverse reinterpretation of valuesToInt32s.
func int32sToValues(xs []int32) []Value {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*Value)(unsafe.Pointer(&xs[0])), len(xs))[:len(xs):len(xs)]
}

// AppendPartition encodes p.
func AppendPartition(w *wire.Writer, p *Partition) {
	w.Int32s(p.Tuples)
	w.Int32s(p.Offsets)
	w.Int(p.N)
	w.Bool(p.Stripped)
}

// DecodePartition decodes a partition written by AppendPartition. Tuples
// and Offsets alias the reader's buffer.
func DecodePartition(r *wire.Reader) *Partition {
	return &Partition{
		Tuples:   r.Int32s(),
		Offsets:  r.Int32s(),
		N:        r.Int(),
		Stripped: r.Bool(),
	}
}

// DefaultCacheBudget is the byte budget every live engine's partition
// cache carries: core.NewSubstrate arms it on the cache it builds, and
// DecodePartitionCache on the cache it restores. Generous enough that
// update streams over mid-size instances never evict, small enough that a
// long-lived engine cannot grow without bound.
const DefaultCacheBudget int64 = 256 << 20

// AppendTo encodes the cache's current entries, sorted by attribute set so
// the encoding is deterministic. Counters (hits, misses, evictions, peak)
// are runtime telemetry and are not persisted; neither is the budget,
// which is always DefaultCacheBudget on restore.
// Row-stale entries (stored before an append, resident but never served)
// are skipped: the decoder stamps every restored entry with the restored
// relation's row count, so persisting a stale partition would launder it
// into a servable one covering fewer rows than the relation has.
// Not safe to call concurrently with cache mutation.
func (pc *PartitionCache) AppendTo(w *wire.Writer) {
	type entry struct {
		attrs AttrSet
		p     *Partition
	}
	rows := pc.r.NumRows()
	var entries []entry
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.RLock()
		for attrs, e := range s.m {
			if e.rows != rows {
				continue
			}
			entries = append(entries, entry{attrs, e.p})
		}
		s.mu.RUnlock()
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].attrs < entries[b].attrs })
	w.Int(len(entries))
	for _, e := range entries {
		w.Uvarint(uint64(e.attrs))
		AppendPartition(w, e.p)
	}
}

// DecodePartitionCache decodes a cache written by AppendTo, rebinding it
// to rel. DefaultCacheBudget is armed before the entries are inserted, so
// the restored cache enforces the same bound the saved one did. Cached
// partitions alias the reader's buffer; no single-column partitions are
// recomputed — entries absent from the snapshot (evicted before the save)
// rebuild on first Get exactly as they would have in the saved process.
func DecodePartitionCache(r *wire.Reader, rel *Relation) (*PartitionCache, error) {
	pc := &PartitionCache{r: rel, luts: make([]atomic.Pointer[colLUT], rel.NumCols())}
	for i := range pc.shards {
		pc.shards[i].m = make(map[AttrSet]*cacheEntry)
		pc.shards[i].levels = make(map[int][]AttrSet)
	}
	pc.budget.Store(DefaultCacheBudget)
	n := r.Int()
	for k := 0; k < n; k++ {
		attrs := AttrSet(r.Uvarint())
		p := DecodePartition(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		pc.store(attrs, p)
	}
	// store() counted budget enforcement work; reset telemetry so the
	// restored cache starts with clean counters (entries/bytes reflect the
	// restored payload, which Stats derives live).
	pc.hits.Store(0)
	pc.misses.Store(0)
	pc.evictions.Store(0)
	pc.peakBytes.Store(pc.bytes.Load())
	return pc, r.Err()
}

// Delta returns class ci's overlay-added tuples (snapshot encode hook;
// callers must not mutate the slice).
func (o *PartitionOverlay) Delta(ci int) []int32 { return o.deltas[ci] }

// BaseMap returns the overlay's base-class mapping. Snapshot encode hook;
// callers must not mutate it.
func (o *PartitionOverlay) BaseMap() []int32 { return o.baseMap }

// RestoreOverlayShard rebuilds an overlay from its serialized parts: the
// shared frozen base, the shard's base-class mapping, and the per-class
// delta lists (len(deltas) ≥ len(baseMap); classes at or past the mapping
// are overlay-born). The slices are retained, not copied.
func RestoreOverlayShard(base *Partition, baseMap []int32, deltas [][]int32) *PartitionOverlay {
	o := &PartitionOverlay{
		base:    base,
		nBase:   len(baseMap),
		deltas:  deltas,
		baseMap: baseMap,
	}
	for _, d := range deltas {
		o.added += len(d)
	}
	return o
}
