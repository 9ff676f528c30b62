package relation

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/exec"
)

// cacheShardCount is the number of independently locked shards of a
// PartitionCache. A power of two so the shard pick is a mask; 16 keeps
// contention negligible for the worker counts lattice traversal uses
// without bloating small caches.
const cacheShardCount = 16

// cacheEntry is one cached partition with its accounting: exact payload
// bytes, the logical time of its last hit, and its hit count — the inputs
// of the cost-model eviction score. lastUse and hits are atomics because
// lookups touch them under the shard's read lock. rows is the relation's
// row count when the entry was stored: a lookup finding a different count
// treats the entry as a miss (appended tuples changed every partition),
// so live engines never read a partition from before an append.
type cacheEntry struct {
	p       *Partition
	bytes   int64
	rows    int
	lastUse atomic.Uint64
	hits    atomic.Uint64
}

// colLUT is one column's row→class lookup vector: v[t] is tuple t's
// class index in Π*_c (−1 for stripped singleton rows), classes bounds
// the ids, and rows is the relation's row count at build time — the
// same staleness stamp cache entries carry. Immutable once published.
type colLUT struct {
	rows    int
	classes int
	v       []int32
}

// cacheShard is one lock domain of the cache. levels records, per
// attribute-set cardinality, the keys inserted at that cardinality, so
// Evict(k) walks only the level-k entries instead of the whole map.
type cacheShard struct {
	mu     sync.RWMutex
	m      map[AttrSet]*cacheEntry
	levels map[int][]AttrSet
}

// PartitionCache memoizes stripped partitions by attribute set, computing
// single columns directly and larger sets via Product of cached parts.
//
// The cache is safe for concurrent use: it is sharded by a mixed hash of
// the attribute set, each shard guarded by its own RWMutex. Lookups take a
// shard read lock; inserts take the shard write lock. Partition
// computation happens outside any lock, so two goroutines missing on the
// same set may both compute it — the canonical form makes the duplicate
// insert idempotent.
//
// Memory is bounded two ways: lattice traversals still drive the two-level
// Evict sweeps, and SetBudget arms a global byte budget enforced on every
// insert — when the payload exceeds it, the cost model sheds entries until
// the cache fits again, leaving at most the one in-flight partition over
// budget. Both are observable through Stats.
type PartitionCache struct {
	r         *Relation
	shards    [cacheShardCount]cacheShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	bytes     atomic.Int64
	peakBytes atomic.Int64
	evictions atomic.Uint64
	budget    atomic.Int64  // 0 = unbounded
	clock     atomic.Uint64 // logical time: ticks once per lookup
	evictMu   sync.Mutex    // serializes budget enforcement passes
	// luts holds one lazily built row→class vector per column, the probe
	// side of RefineByLUT — the derivation chain in GetWith refines by
	// these instead of multiplying by ~n-payload single-column
	// partitions. Rebuilt when the row stamp trails the relation and
	// dropped by InvalidateTouched for rewritten columns; the few
	// int32-per-row vectors are deliberately outside the byte budget
	// (they are the cost of making every other entry cheap to derive).
	luts []atomic.Pointer[colLUT]
}

// CacheStats is a snapshot of cache effectiveness and footprint counters.
type CacheStats struct {
	Hits      uint64 // lookups answered from the cache
	Misses    uint64 // lookups that had to compute a partition
	Entries   int    // partitions currently cached
	Bytes     int64  // exact payload bytes of cached partitions
	PeakBytes int64  // high-water payload bytes since construction
	Evictions uint64 // entries dropped (Evict sweeps + budget enforcement)
	Budget    int64  // configured byte budget (0 = unbounded)
	// OverlayBytes is always 0. The cache no longer serves live partition
	// overlays (appended rows reach cached entries only through the row
	// stamp and InvalidateStale); the field stays because the benchmark
	// harness still reports it as relation.overlay_mb.
	OverlayBytes int64
}

// Since returns the per-field change from prev to s: monotone counters
// (Hits, Misses, Evictions) and the gauges (Entries, Bytes) subtract —
// gauges may go negative across an eviction — while PeakBytes and Budget
// carry s's current values. This is the quantity bench reports and
// per-stage exec.Stats spans want, replacing hand-subtraction at every
// call site.
func (s CacheStats) Since(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Entries:   s.Entries - prev.Entries,
		Bytes:     s.Bytes - prev.Bytes,
		PeakBytes: s.PeakBytes,
		Evictions: s.Evictions - prev.Evictions,
		Budget:    s.Budget,
	}
}

// partitionBytes reports the exact heap payload of one cached partition.
func partitionBytes(p *Partition) int64 {
	return int64(4 * (len(p.Tuples) + len(p.Offsets)))
}

// shardOf picks the shard for an attribute set. AttrSets of one lattice
// level differ in few bits, so mix before masking (splitmix64 finalizer).
func (pc *PartitionCache) shardOf(a AttrSet) *cacheShard {
	x := uint64(a)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return &pc.shards[x&(cacheShardCount-1)]
}

// NewPartitionCache creates a cache over r and precomputes all
// single-attribute stripped partitions.
func NewPartitionCache(r *Relation) *PartitionCache {
	pc, _ := NewPartitionCacheContext(context.Background(), r, 1)
	return pc
}

// NewPartitionCacheContext is NewPartitionCache with the single-attribute
// partition construction spread over up to workers goroutines (on the
// shared exec substrate rather than a private pool) and with cooperative
// cancellation: a cancelled context stops the single-column builds between
// columns and returns the wrapped context error. The cache returned on
// cancellation is still safe to use — columns not yet built are simply not
// pre-warmed and will be computed on first Get.
func NewPartitionCacheContext(ctx context.Context, r *Relation, workers int) (*PartitionCache, error) {
	pc := &PartitionCache{r: r, luts: make([]atomic.Pointer[colLUT], r.NumCols())}
	for i := range pc.shards {
		pc.shards[i].m = make(map[AttrSet]*cacheEntry)
		pc.shards[i].levels = make(map[int][]AttrSet)
	}
	nCols := r.NumCols()
	parts := make([]*Partition, nCols)
	err := exec.For(ctx, nCols, exec.Workers(workers), func(_, c int) {
		parts[c] = SingleColumnPartition(r, c).Strip()
	})
	for c, p := range parts {
		if p != nil {
			pc.store(Single(c), p)
		}
	}
	return pc, err
}

// Relation returns the underlying relation.
func (pc *PartitionCache) Relation() *Relation { return pc.r }

// SetBudget arms (or, with 0, disarms) the global byte budget. Enforcement
// happens on the insert path: the cache may transiently exceed the budget
// by the one partition being inserted, never by more. Safe to call
// concurrently with cache traffic.
func (pc *PartitionCache) SetBudget(bytes int64) {
	pc.budget.Store(bytes)
	if bytes > 0 {
		pc.enforceBudget(EmptySet)
	}
}

// Budget returns the configured byte budget (0 = unbounded).
func (pc *PartitionCache) Budget() int64 { return pc.budget.Load() }

// lookup returns the cached partition for attrs, if present and current,
// stamping the entry's recency and hit counters. An entry stored before
// an append (its row stamp trails the relation) is reported as a miss —
// it stays resident until the recompute's store replaces it or eviction
// claims it, and is never returned.
func (pc *PartitionCache) lookup(attrs AttrSet) (*Partition, bool) {
	now := pc.clock.Add(1)
	rows := pc.r.NumRows()
	s := pc.shardOf(attrs)
	s.mu.RLock()
	e, ok := s.m[attrs]
	var p *Partition
	if ok && e.rows != rows {
		ok = false
		e = nil
	}
	if ok {
		p = e.p
		e.lastUse.Store(now)
		e.hits.Add(1)
	}
	s.mu.RUnlock()
	return p, ok
}

// store inserts (or replaces) the partition for attrs, maintaining the
// per-level eviction index and the byte counter, then enforces the budget
// (the just-inserted entry is protected, so the cache never thrashes the
// partition it is about to return).
func (pc *PartitionCache) store(attrs AttrSet, p *Partition) {
	s := pc.shardOf(attrs)
	nb := partitionBytes(p)
	e := &cacheEntry{p: p, bytes: nb, rows: pc.r.NumRows()}
	e.lastUse.Store(pc.clock.Load())
	s.mu.Lock()
	if old, present := s.m[attrs]; present {
		pc.bytes.Add(-old.bytes)
	} else {
		k := attrs.Len()
		s.levels[k] = append(s.levels[k], attrs)
	}
	s.m[attrs] = e
	total := pc.bytes.Add(nb)
	s.mu.Unlock()
	for {
		peak := pc.peakBytes.Load()
		if total <= peak || pc.peakBytes.CompareAndSwap(peak, total) {
			break
		}
	}
	if b := pc.budget.Load(); b > 0 && total > b {
		pc.enforceBudget(attrs)
	}
}

// evictLocked removes attrs from shard s (whose write lock the caller
// holds), keeping the byte counter and the per-level index exact.
func (pc *PartitionCache) evictLocked(s *cacheShard, attrs AttrSet) bool {
	e, present := s.m[attrs]
	if !present {
		return false
	}
	delete(s.m, attrs)
	pc.bytes.Add(-e.bytes)
	pc.evictions.Add(1)
	k := attrs.Len()
	lv := s.levels[k]
	for i, a := range lv {
		if a == attrs {
			lv[i] = lv[len(lv)-1]
			s.levels[k] = lv[:len(lv)-1]
			break
		}
	}
	return true
}

// rebuildCost estimates what recomputing the entry would cost on a miss:
// level-k sets reassemble through k−1 partition products, each linear in
// the partition payload; single columns are one counting pass over the
// relation. The estimate only needs to rank entries, not predict
// nanoseconds.
func rebuildCost(attrs AttrSet, bytes int64, nRows int) float64 {
	k := attrs.Len()
	if k <= 1 {
		return float64(nRows) + 1
	}
	return float64(k-1)*float64(bytes) + float64(nRows) + 1
}

// evictCandidate is one entry considered by a budget-enforcement pass.
type evictCandidate struct {
	attrs AttrSet
	shard *cacheShard
	bytes int64
	score float64
}

// enforceBudget sheds entries until the payload fits the budget again,
// protecting the just-inserted set. The cost model scores every entry by
// bytes × coldness ÷ (rebuild cost × hit frequency) — the
// greedy-dual-size-frequency family — and evicts the highest scores first:
// large, long-unused, rarely-hit partitions that are cheap to recompute go
// before small, hot, expensive ones. One pass runs at a time (evictMu);
// concurrent inserts that find the budget exceeded either run the next
// pass or are covered by the one in flight. The scan takes each shard's
// read lock briefly, scores outside any lock, then evicts per shard under
// its write lock, re-checking the running total so a pass never over-evicts
// after concurrent deletes.
func (pc *PartitionCache) enforceBudget(protect AttrSet) {
	pc.evictMu.Lock()
	defer pc.evictMu.Unlock()
	budget := pc.budget.Load()
	if budget <= 0 {
		return
	}
	if pc.bytes.Load() <= budget {
		return
	}
	// Row-stale entries are free evictions — lookup will never serve
	// them again — so shed those before touching anything live.
	pc.invalidateStaleLocked()
	if pc.bytes.Load() <= budget {
		return
	}
	// Evict past the line by a 1/16 slack: each enforcement pass scans and
	// scores the whole cache, so stopping exactly at the budget would make
	// a stream of at-budget inserts pay that scan per store.
	target := budget - budget/16
	now := pc.clock.Load()
	nRows := pc.r.NumRows()
	var cands []evictCandidate
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.RLock()
		for attrs, e := range s.m {
			if attrs == protect {
				continue
			}
			coldness := float64(now-e.lastUse.Load()) + 1
			freq := float64(e.hits.Load()) + 1
			score := float64(e.bytes) * coldness / (rebuildCost(attrs, e.bytes, nRows) * freq)
			cands = append(cands, evictCandidate{attrs: attrs, shard: s, bytes: e.bytes, score: score})
		}
		s.mu.RUnlock()
	}
	// Highest score evicts first: big, cold, rarely-hit, cheap-to-rebuild.
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	for _, c := range cands {
		if pc.bytes.Load() <= target {
			return
		}
		c.shard.mu.Lock()
		pc.evictLocked(c.shard, c.attrs)
		c.shard.mu.Unlock()
	}
}

// Get returns the stripped partition Π*_X, computing and caching it if
// absent. Supersets are derived by multiplying a cached subset with the
// missing single columns. Safe for concurrent use; concurrent misses on
// one set may compute it twice but converge on the canonical result.
func (pc *PartitionCache) Get(attrs AttrSet) *Partition {
	return pc.GetWith(attrs, nil)
}

// GetWith is Get with a caller-supplied ProductBuffer for any partition
// products a miss needs, so hot probe loops (the FD baselines' holdsFD
// tests) stop paying per-call scratch allocations. buf may be nil, in
// which case a transient buffer is used. Safe for concurrent use as long
// as each goroutine passes its own buffer.
func (pc *PartitionCache) GetWith(attrs AttrSet, buf *ProductBuffer) *Partition {
	if p, ok := pc.lookup(attrs); ok {
		pc.hits.Add(1)
		return p
	}
	pc.misses.Add(1)
	if buf == nil {
		buf = &ProductBuffer{}
	}
	var p *Partition
	switch {
	case attrs.IsEmpty():
		p = PartitionOf(pc.r, attrs).Strip()
	case attrs.Len() == 1:
		// Rebuilt directly: under a byte budget single columns are
		// evictable like anything else, and recursing through subsets
		// would bottom out here anyway.
		p = SingleColumnPartition(pc.r, attrs.First()).Strip()
	default:
		// Find a cached subset obtained by dropping one attribute;
		// recurse (depth ≤ |attrs|), then multiply the gap back in.
		var best AttrSet
		found := false
		for _, i := range attrs.Attrs() {
			sub := attrs.Without(i)
			if _, ok := pc.lookup(sub); ok {
				best = sub
				found = true
				break
			}
		}
		if !found {
			// Build from the first attribute upward.
			best = Single(attrs.First())
		}
		p = pc.GetWith(best, buf)
		cur := best
		for _, i := range attrs.Minus(best).Attrs() {
			l := pc.lutFor(i, buf)
			p = buf.RefineByLUT(p, l.v, l.classes)
			// Cache the intermediate too: chains across a repair level
			// share ascending prefixes, so the next miss finds a longer
			// drop-one subset and pays one refine instead of re-deriving
			// the prefix. The budget bounds the extra residency.
			if cur = cur.With(i); cur != attrs {
				pc.store(cur, p)
			}
		}
	}
	pc.store(attrs, p)
	return p
}

// lutFor returns column c's row→class vector, building it from the
// cached (or recomputed) single-column partition when absent or stamped
// with a stale row count. Concurrent builders may race; the duplicate
// publish is idempotent because the vector is a pure function of the
// column's current contents.
func (pc *PartitionCache) lutFor(c int, buf *ProductBuffer) *colLUT {
	rows := pc.r.NumRows()
	if l := pc.luts[c].Load(); l != nil && l.rows == rows {
		return l
	}
	p := pc.GetWith(Single(c), buf)
	v := make([]int32, rows)
	for i := range v {
		v[i] = -1
	}
	for ci := 0; ci < p.NumClasses(); ci++ {
		for _, t := range p.Class(ci) {
			v[t] = int32(ci)
		}
	}
	l := &colLUT{rows: rows, classes: p.NumClasses(), v: v}
	pc.luts[c].Store(l)
	return l
}

// InvalidateTouched evicts every cached partition whose attribute set
// intersects touched — the update-batch counterpart of the row-stamp
// staleness appends get for free. Live engines call it with a batch's
// touched column set before re-reading partitions, so a long-lived cache
// never serves pre-batch partitions of rewritten columns. Returns the
// number of entries dropped.
func (pc *PartitionCache) InvalidateTouched(touched AttrSet) int {
	if touched.IsEmpty() {
		return 0
	}
	// Rewritten columns invalidate their row→class vectors too: the row
	// stamp only catches appends, not in-place updates.
	for c := range pc.luts {
		if touched.Has(c) {
			pc.luts[c].Store(nil)
		}
	}
	n := 0
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.Lock()
		for a := range s.m {
			if !a.Intersect(touched).IsEmpty() && pc.evictLocked(s, a) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// InvalidateStale evicts every cached partition whose row stamp trails
// the relation — entries stored before an append. They are already
// unservable (lookup reports them as misses), but left resident they are
// dead weight: they hold budget hostage and stall every enforcement pass.
// Engines that grow the relation call this right after appending, so the
// resident set stays answerable. Returns the number of entries dropped.
func (pc *PartitionCache) InvalidateStale() int {
	pc.evictMu.Lock()
	defer pc.evictMu.Unlock()
	return pc.invalidateStaleLocked()
}

// invalidateStaleLocked is InvalidateStale under evictMu.
func (pc *PartitionCache) invalidateStaleLocked() int {
	rows := pc.r.NumRows()
	n := 0
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.Lock()
		for a, e := range s.m {
			if e.rows != rows && pc.evictLocked(s, a) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Put stores a partition for attrs, typically one computed level-by-level
// during lattice traversal. Safe for concurrent use.
func (pc *PartitionCache) Put(attrs AttrSet, p *Partition) { pc.store(attrs, p.Strip()) }

// Evict removes cached partitions whose attribute sets have exactly size k;
// lattice traversals call this to bound memory to two levels. Cost is
// proportional to the number of level-k entries (via the per-level index),
// not the cache size.
func (pc *PartitionCache) Evict(k int) {
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.Lock()
		for _, a := range s.levels[k] {
			if e, present := s.m[a]; present {
				pc.bytes.Add(-e.bytes)
				pc.evictions.Add(1)
				delete(s.m, a)
			}
		}
		delete(s.levels, k)
		s.mu.Unlock()
	}
}

// Levels returns the attribute-set sizes with at least one resident
// entry, ascending — how many lattice levels a traversal holds at once.
func (pc *PartitionCache) Levels() []int {
	seen := make(map[int]bool)
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.RLock()
		for a := range s.m {
			seen[a.Len()] = true
		}
		s.mu.RUnlock()
	}
	levels := make([]int, 0, len(seen))
	for k := range seen {
		levels = append(levels, k)
	}
	sort.Ints(levels)
	return levels
}

// Stats returns a snapshot of the cache counters. Counters are updated
// atomically, so a snapshot taken while other goroutines use the cache is
// internally consistent enough for monitoring and tests.
func (pc *PartitionCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      pc.hits.Load(),
		Misses:    pc.misses.Load(),
		Bytes:     pc.bytes.Load(),
		PeakBytes: pc.peakBytes.Load(),
		Evictions: pc.evictions.Load(),
		Budget:    pc.budget.Load(),
	}
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.RLock()
		st.Entries += len(s.m)
		s.mu.RUnlock()
	}
	return st
}
