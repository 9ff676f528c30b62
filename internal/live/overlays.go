package live

import (
	"sync"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/relation"
)

// Overlays is the reference-counted registry of live partition overlays
// behind the merged pipeline: one PartitionOverlay plus a keys-only
// ClassIndex per registered attribute set. Registered overlays absorb
// appended tuples by key routing (O(|X|) per row, no partition rebuild)
// and are conservatively invalidated — dropped, then rebuilt on the next
// append batch from an adopted base (a partition the cache computed for
// the set in the meantime, see Offer) or, failing that, from the cache —
// when an update touches any of their attributes. The registry
// implements relation.OverlayProvider, so a PartitionCache miss on a
// registered set materializes the live overlay instead of recomputing
// the partition product; the materialized form is byte-identical to a
// fresh computation (canonical class order), which the substrate tests
// assert.
//
// References come from the engines on the substrate (core.Substrate),
// each acquiring what it consults: each live cover element and each
// monitored OFD holds one reference on its antecedent set (plus one per
// single column, so appends never force full single-partition rebuilds).
// Release drops the entry at refcount zero.
//
// Mutations (Acquire, Release, RouteAppends, InvalidateTouched) are
// single-writer, like the engines; LiveOverlay, Offer, and OverlayBytes
// may be called concurrently with each other (the repair verifier fans
// out, and the cache offers from its miss path) but not with a mutation
// in flight.
type Overlays struct {
	rel *relation.Relation
	pc  *relation.PartitionCache
	mu  sync.RWMutex
	m   map[relation.AttrSet]*overlayEntry
}

// overlayEntry is one registered attribute set: its refcount and, when
// fresh, the live overlay with its append router. A stale entry (updates
// touched the set, or never built) holds neither; the next RouteAppends
// rebuilds it from the cache — but only when demand showed up, see
// consults. rows is the relation row count the overlay covers —
// LiveOverlay only serves entries whose rows match the relation, so a
// cache miss mid-append can never materialize an overlay that has not
// absorbed the new rows yet.
//
// consults counts LiveOverlay requests for the set since its last build
// (atomic: requests arrive under the registry's read lock, concurrently
// from the verifier's fan-out). Rebuilds are demand-driven: RouteAppends
// skips a stale entry nobody asked about — the cache computes those
// partitions itself when (and if) they are next needed — so a batch that
// invalidates many registered sets doesn't buy an O(rows) key pass per
// set per append batch for overlays no engine is reading.
//
// base is an adopted pending overlay base: when the cache computes a
// partition for a stale registered set (a real demand miss — typically
// the repair verifier re-reading a set the batch invalidated), Offer
// hands the result over, and the next RouteAppends promotes it with one
// key pass instead of recomputing the partition from scratch — by then
// the cached copy is row-stale again (the appends landed), so without
// adoption the rebuild would pay the full product a second time.
// baseRows is the row count base covers; promotion key-routes any rows
// appended since.
type overlayEntry struct {
	refs     int
	stale    bool
	rows     int
	consults atomic.Int64
	ov       *relation.PartitionOverlay
	ix       *ClassIndex
	base     *relation.Partition
	baseRows int
}

// NewOverlays builds an empty registry over the relation and its cache.
// Install it with pc.SetOverlayProvider to serve cache misses.
func NewOverlays(rel *relation.Relation, pc *relation.PartitionCache) *Overlays {
	return &Overlays{rel: rel, pc: pc, m: make(map[relation.AttrSet]*overlayEntry)}
}

// Acquire adds one reference to attrs, registering it if absent. A new
// entry starts stale and unconsulted: the first RouteAppends after a
// LiveOverlay request builds its overlay from the cache (which is warm at
// pipeline construction, so the build is a lookup plus one key pass).
func (os *Overlays) Acquire(attrs relation.AttrSet) {
	os.mu.Lock()
	e := os.m[attrs]
	if e == nil {
		e = &overlayEntry{stale: true}
		os.m[attrs] = e
	}
	e.refs++
	os.mu.Unlock()
}

// Release drops one reference to attrs, deleting the entry at zero.
func (os *Overlays) Release(attrs relation.AttrSet) {
	os.mu.Lock()
	if e := os.m[attrs]; e != nil {
		e.refs--
		if e.refs <= 0 {
			delete(os.m, attrs)
		}
	}
	os.mu.Unlock()
}

// Refs returns the current reference count for attrs (0 when absent).
func (os *Overlays) Refs(attrs relation.AttrSet) int {
	os.mu.RLock()
	defer os.mu.RUnlock()
	if e := os.m[attrs]; e != nil {
		return e.refs
	}
	return 0
}

// InvalidateTouched marks every registered set intersecting touched as
// stale, dropping its overlay. Safe to call before a batch that may roll
// back: staleness is conservative — a rebuilt overlay over the restored
// relation is identical to what the dropped one held.
func (os *Overlays) InvalidateTouched(touched relation.AttrSet) {
	if touched.IsEmpty() {
		return
	}
	os.mu.Lock()
	for attrs, e := range os.m {
		if !attrs.Intersect(touched).IsEmpty() {
			e.stale = true
			e.ov = nil
			e.ix = nil
			e.base = nil
			e.baseRows = 0
		}
	}
	os.mu.Unlock()
}

// RouteAppends absorbs rows [t0, t1) — already appended to the relation —
// into the registered overlays: fresh entries route each row by its
// encoded key; stale entries rebuild, cheapest source first — an adopted
// base (a partition the cache computed for the set since it went stale,
// handed over by Offer) promotes with one key pass, and failing that, an
// entry consulted since its last build rebuilds from the cache over the
// current relation. Stale entries with neither stay stale — demand-driven
// rebuilds keep append batches from paying an O(rows) key pass per
// registered set that no engine reads.
//
// Fresh entries route FIRST, rebuilds second: a cache-path rebuild reads
// partitions through the cache, whose product path may serve another
// registered set's live overlay — which must already cover the appended
// rows, or the rebuild would cache a partition missing them. (The
// per-entry row stamp guards the same hazard for any other mid-append
// cache read.)
func (os *Overlays) RouteAppends(t0, t1 int) {
	os.mu.RLock()
	type pending struct {
		attrs relation.AttrSet
		e     *overlayEntry
	}
	todo := make([]pending, 0, len(os.m))
	for attrs, e := range os.m {
		todo = append(todo, pending{attrs, e})
	}
	os.mu.RUnlock()
	for _, p := range todo {
		if p.e.stale || p.e.ov == nil {
			continue
		}
		for t := t0; t < t1; t++ {
			p.e.ix.Join(os.rel, int32(t))
		}
		os.mu.Lock()
		p.e.rows = t1
		os.mu.Unlock()
	}
	for _, p := range todo {
		if !p.e.stale && p.e.ov != nil {
			continue
		}
		os.mu.Lock()
		base, baseRows := p.e.base, p.e.baseRows
		os.mu.Unlock()
		var ov *relation.PartitionOverlay
		var ix *ClassIndex
		switch {
		case base != nil:
			ov, ix = os.promote(p.attrs, base, baseRows)
		case p.e.consults.Load() > 0:
			ov, ix = os.build(p.attrs)
		default:
			continue
		}
		os.mu.Lock()
		p.e.ov, p.e.ix, p.e.stale, p.e.rows = ov, ix, false, os.rel.NumRows()
		p.e.base, p.e.baseRows = nil, 0
		p.e.consults.Store(0)
		os.mu.Unlock()
	}
}

// build constructs a fresh overlay + router for attrs over the current
// relation, reading the base partition through the cache (recomputed
// there if its copy is row-stale).
func (os *Overlays) build(attrs relation.AttrSet) (*relation.PartitionOverlay, *ClassIndex) {
	return os.promote(attrs, os.pc.Get(attrs), os.rel.NumRows())
}

// promote constructs the overlay + router for attrs from a known base
// partition covering rows [0, baseRows): the base's classes keyed by
// representative in base order (class ids equal base ids), every
// uncovered base row as a lone-row entry, and any rows appended since
// baseRows key-routed on top. Rows below baseRows must hold the values
// the base was computed from — InvalidateTouched drops adopted bases
// whenever an update touches their columns, and appends never rewrite
// existing rows, so an adopted base always qualifies.
func (os *Overlays) promote(attrs relation.AttrSet, base *relation.Partition, baseRows int) (*relation.PartitionOverlay, *ClassIndex) {
	ov := relation.NewPartitionOverlay(base)
	cols := attrs.Attrs()
	ix := &ClassIndex{Cols: cols, RHS: -1, Keys: make(map[string]int32, base.NumClasses()), Part: ov}
	inClass := make([]bool, baseRows)
	var buf []byte
	for ci := 0; ci < base.NumClasses(); ci++ {
		class := base.Class(ci)
		buf = EncodeKey(os.rel, cols, int(class[0]), buf)
		ix.Keys[string(buf)] = int32(ci)
		for _, t := range class {
			inClass[t] = true
		}
	}
	for t := 0; t < baseRows; t++ {
		if !inClass[t] {
			buf = EncodeKey(os.rel, cols, t, buf)
			ix.Keys[string(buf)] = LoneRow(int32(t))
		}
	}
	for t := baseRows; t < os.rel.NumRows(); t++ {
		ix.Join(os.rel, int32(t))
	}
	return ov, ix
}

// LiveOverlay implements relation.OverlayProvider: it returns the fresh
// live overlay for attrs, or nil when the set is unregistered, stale, or
// lagging the relation's row count (the cache then computes the partition
// itself). Every request for a registered set is counted as demand, which
// is what entitles a stale entry to a rebuild on the next RouteAppends.
func (os *Overlays) LiveOverlay(attrs relation.AttrSet) *relation.PartitionOverlay {
	os.mu.RLock()
	defer os.mu.RUnlock()
	e := os.m[attrs]
	if e == nil {
		return nil
	}
	e.consults.Add(1)
	if !e.stale && e.ov != nil && e.rows == os.rel.NumRows() {
		return e.ov
	}
	return nil
}

// Offer implements relation.OverlayProvider: the cache hands over every
// partition it stores, and a stale registered entry adopts it as its
// pending overlay base — proof of real demand (the cache only computes
// what something asked for) and a free rebuild source for the next
// RouteAppends, which would otherwise recompute the partition from
// scratch because the cached copy goes row-stale the moment the appends
// land. Fresh entries and unregistered sets ignore the offer. Safe for
// concurrent use (the cache's miss path fans out).
func (os *Overlays) Offer(attrs relation.AttrSet, p *relation.Partition) {
	os.mu.Lock()
	if e := os.m[attrs]; e != nil && e.stale {
		e.base = p
		e.baseRows = os.rel.NumRows()
	}
	os.mu.Unlock()
}

// OverlayBytes implements relation.OverlayProvider: the delta bytes
// resident across registered overlays, charged against the cache's byte
// budget so long-lived overlays can't silently exceed it.
func (os *Overlays) OverlayBytes() int64 {
	os.mu.RLock()
	defer os.mu.RUnlock()
	var n int64
	for _, e := range os.m {
		if e.ov != nil {
			n += e.ov.Bytes()
		}
	}
	return n
}
