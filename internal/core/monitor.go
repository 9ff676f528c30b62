package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// Monitor is the incremental detection engine: it maintains OFD violation
// state under single-cell updates, batched updates, and appended tuples —
// the "data evolves" scenario of the paper's introduction — without ever
// rebuilding partitions or re-verifying untouched classes.
//
// The state is sharded by LHS-key hash: for each OFD, every equivalence
// class (and lone row) is routed to one of NumShards() independent shards,
// each owning its own relation.PartitionOverlay view of the cached base
// partition, LHS-key index, consequent-value multisets, and violation
// maps. ApplyBatch partitions the validated cell writes by (OFD, shard)
// and fans the multiset maintenance and re-verification out over
// exec.For with no shared write state — the three stages are observable
// as monitor.route / monitor.apply / monitor.merge spans. Because a
// tuple's antecedent never changes (antecedent updates are rejected), its
// shard per OFD is fixed for its lifetime and routing is a table lookup.
//
// Violation state is published as epoch-stamped immutable snapshots:
// every mutating operation materializes the affected classes' Violation
// records eagerly and swaps in a fresh snapshot, so Report (and
// ReportAt) read only frozen data and may run concurrently with a
// subsequent Update/AppendRow/ApplyBatch on the owner goroutine. The
// cross-shard merge is canonical — for any shard count and any Workers
// value, Report is byte-identical to running Detect from scratch on the
// current instance.
//
// A Monitor is single-writer: mutating methods must be called from one
// goroutine at a time. Report, ReportAt, Epoch, Satisfied, and
// ViolationCount are safe to call concurrently with the writer.
type Monitor struct {
	rel   *relation.Relation
	v     *Verifier
	sigma Set
	// Workers bounds the parallel fan-out of ApplyBatch's apply/merge
	// stages and the initial index build (0 selects all CPUs, as
	// everywhere on the exec substrate).
	Workers int
	// Stats, when non-nil, receives monitor.build, monitor.route,
	// monitor.apply, and monitor.merge stage spans.
	Stats *exec.Stats

	nShards int
	shards  []*monitorShard
	// lhsCols[i] = sigma[i].LHS.Attrs(), cached for key encoding.
	lhsCols [][]int
	// byRHS[col] lists the dependency indexes whose consequent is col.
	byRHS [][]int32
	// classOf[i][t] = shard-local class id of tuple t within shard
	// rowShard[i][t] under sigma[i], or -1 when the tuple is (still) in a
	// singleton class.
	classOf [][]int32
	// rowShard[i][t] = shard owning tuple t's antecedent key under
	// sigma[i]. Fixed for the tuple's lifetime (antecedents never change).
	rowShard [][]uint8
	lhsAttrs relation.AttrSet

	epoch   uint64
	history historyPtr

	// needHydrate marks a snapshot-restored monitor whose LHS-key index
	// maps are still in frozen array form; the first AppendRow hydrates
	// them (no other operation consults the indexes).
	needHydrate bool

	keyBuf    []byte           // LHS-key encoding scratch (AppendRow)
	vals      []relation.Value // distinct-value scratch for sequential paths
	snapDirty []bool           // per-shard "snapshot stale" scratch
	log       WriteLog         // batch cell-write dedup scratch

	// relaxed, set by NewMonitorLive, skips the global LHS∩RHS
	// disjointness requirement across dependencies (a discovered cover
	// routinely chains A→B, B→C). Per-update validation is unchanged:
	// updates touching any monitored antecedent are still rejected — the
	// merged pipeline routes those through AbsorbBatch, which re-routes
	// the affected dependencies instead.
	relaxed bool
}

// CellWrite is one deduplicated effective cell write of a batch, with the
// pre-batch value retained for rollback. Both incremental engines speak
// it: the monitor's batch protocol produces them, and the maintainer
// exposes its effective batch as []CellWrite so the merged pipeline can
// feed one engine's writes to the other without re-validating.
type CellWrite struct {
	Row, Col int
	Old, New relation.Value
}

// CellUpdate is one cell write of a batched update: set cell (Row, Col) to
// Value.
type CellUpdate struct {
	Row, Col int
	Value    string
}

// WriteLog is the reusable scratch behind both engines' batch dedup.
type WriteLog struct {
	seen   map[int64]int // (row, col) → index into writes
	writes []CellWrite
}

// Fold reduces a batch of updates to its effective writes: each value is
// interned into rel's column dictionary, same-cell writes collapse to the
// last one (keeping the pre-batch value as Old), and writes that leave a
// cell at its current value are dropped. The writes come back in order of
// each cell's first write, alias the log's buffer, and stay valid until
// the next Fold. rel is not modified beyond interning.
func (l *WriteLog) Fold(rel *relation.Relation, updates []CellUpdate) []CellWrite {
	if l.seen == nil {
		l.seen = make(map[int64]int, len(updates))
	}
	clear(l.seen)
	l.writes = l.writes[:0]
	for _, u := range updates {
		id := rel.Dict(u.Col).Intern(u.Value)
		key := int64(u.Row)<<32 | int64(u.Col)
		if k, ok := l.seen[key]; ok {
			l.writes[k].New = id
			continue
		}
		l.seen[key] = len(l.writes)
		l.writes = append(l.writes, CellWrite{u.Row, u.Col, rel.Value(u.Row, u.Col), id})
	}
	eff := l.writes[:0]
	for _, wr := range l.writes {
		if wr.New != wr.Old {
			eff = append(eff, wr)
		}
	}
	l.writes = eff
	return eff
}

// class verification outcome; ordered so "worse" states are larger.
const (
	classOK        uint8 = iota // consequent syntactically constant
	classFDOnly                 // an FD would flag it; the ontology clears it
	classViolating              // no common interpretation
)

// maxShards bounds the shard count: rowShard stores shard ids as uint8.
const maxShards = 256

// resolveShards maps a requested shard count to the effective one:
// positive counts are clamped to maxShards, zero selects the smallest
// power of two covering the resolved worker count (capped at 64), and
// negative counts fall back to a single shard.
func resolveShards(shards, workers int) int {
	if shards > 0 {
		if shards > maxShards {
			return maxShards
		}
		return shards
	}
	if shards < 0 {
		return 1
	}
	w := exec.Workers(workers)
	s := 1
	for s < w && s < 64 {
		s <<= 1
	}
	return s
}

// NewMonitor builds a monitor over the instance and Σ on a private
// partition cache, computing the initial violation state. shards > 0 uses
// that many LHS-key shards (clamped to 256), shards == 0 derives the
// count from the worker count; more shards widen ApplyBatch's parallel
// fan-out. The index build and ApplyBatch spread over up to workers
// goroutines (0 = all CPUs), and stats, when non-nil, receives the
// monitor's stage spans. Reports are byte-identical for every shard and
// worker count. Σ must keep antecedents and consequents disjoint, so that
// single-cell Update stays sound. A cancelled build returns a nil Monitor
// — a partially indexed monitor would report wrong violation counts —
// together with an error satisfying errors.Is(err, ctx.Err()).
func NewMonitor(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, sigma Set, shards, workers int, stats *exec.Stats) (*Monitor, error) {
	return buildMonitor(ctx, rel, ont, sigma, shards, workers, stats, nil)
}

// buildMonitor is the shared constructor body. v, when non-nil, is the
// merged pipeline's partition-cache-backed verifier to share, and the
// monitor is relaxed: a discovered cover routinely chains dependencies
// (A→B, B→C), which standalone monitoring rejects. nil builds a private
// cache and verifier.
func buildMonitor(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, sigma Set, shards, workers int, stats *exec.Stats, v *Verifier) (*Monitor, error) {
	relaxed := v != nil
	var lhs, rhs relation.AttrSet
	for _, d := range sigma {
		lhs = lhs.Union(d.LHS)
		rhs = rhs.With(d.RHS)
	}
	if inter := lhs.Intersect(rhs); !inter.IsEmpty() && !relaxed {
		return nil, fmt.Errorf("core: monitor requires disjoint antecedents and consequents; %s overlaps", inter.Format(rel.Schema()))
	}
	w := exec.Workers(workers)
	nShards := resolveShards(shards, workers)
	span := stats.Span("monitor.build")
	span.Workers(w)
	span.Shards(nShards)
	span.Items(len(sigma))
	defer span.End()
	if v == nil {
		pc, err := relation.NewPartitionCacheContext(ctx, rel, w)
		if err != nil {
			return nil, err
		}
		v = NewVerifier(rel, ont, pc)
	}
	m := &Monitor{
		rel:       rel,
		v:         v,
		sigma:     sigma.Clone(),
		relaxed:   relaxed,
		Workers:   workers,
		Stats:     stats,
		nShards:   nShards,
		shards:    make([]*monitorShard, nShards),
		lhsCols:   make([][]int, len(sigma)),
		byRHS:     make([][]int32, rel.NumCols()),
		classOf:   make([][]int32, len(sigma)),
		rowShard:  make([][]uint8, len(sigma)),
		lhsAttrs:  lhs,
		snapDirty: make([]bool, nShards),
	}
	for i, d := range m.sigma {
		m.byRHS[d.RHS] = append(m.byRHS[d.RHS], int32(i))
	}
	for s := range m.shards {
		m.shards[s] = newMonitorShard(len(sigma))
	}
	// Phase 1 — route: each dependency's classes and lone rows are hashed
	// to shards. Iteration i writes only index-i slots of per-shard
	// slices/maps, so the fan-out over dependencies is race-free.
	if err := exec.For(ctx, len(m.sigma), w, func(_, i int) {
		m.routeIndex(i)
	}); err != nil {
		return nil, err
	}
	// Phase 2 — per-shard state: multisets, initial class states, and
	// materialized violation records, fully shard-local.
	if err := exec.For(ctx, nShards, w, func(_, s int) {
		m.shards[s].buildState(m)
	}); err != nil {
		return nil, err
	}
	m.publishInit()
	st := m.v.Partitions().Stats()
	span.Cache(st.Hits, st.Misses)
	return m, nil
}

// checkUpdate validates one cell write against the monitor's scope.
func (m *Monitor) checkUpdate(row, col int) error {
	if row < 0 || row >= m.rel.NumRows() || col < 0 || col >= m.rel.NumCols() {
		return fmt.Errorf("core: cell (%d,%d) out of range", row, col)
	}
	if m.lhsAttrs.Has(col) {
		return fmt.Errorf("core: attribute %s is an antecedent; monitored updates must touch consequents only", m.rel.Schema().Name(col))
	}
	return nil
}

// Update writes value into cell (row, col) and incrementally re-verifies
// the equivalence classes containing the row for every OFD whose
// consequent is col. Writing the value the cell already holds is a no-op:
// it reports changed = false and skips re-verification entirely. Updating
// an antecedent attribute is an error.
func (m *Monitor) Update(row, col int, value string) (changed bool, err error) {
	if err := m.checkUpdate(row, col); err != nil {
		return false, err
	}
	id := m.rel.Dict(col).Intern(value)
	old := m.rel.Value(row, col)
	if id == old {
		return false, nil
	}
	m.rel.SetValue(row, col, id)
	for _, i := range m.byRHS[col] {
		ci := m.classOf[i][row]
		if ci < 0 {
			continue
		}
		s := m.rowShard[i][row]
		sh := m.shards[s]
		sh.idx[i].BumpVal(ci, old, id)
		if sh.reverifyOne(m, int(i), ci) {
			m.snapDirty[s] = true
		}
	}
	m.refreshSnaps()
	m.publish()
	return true, nil
}

// AppendRow appends one tuple (strings in schema order) to the monitored
// relation and joins it to its equivalence class under every OFD via the
// owning shard's LHS-key index — O(|X|) per dependency, no partition
// rebuild. A tuple whose antecedent key matches a formerly-singleton row
// births a new two-tuple class in that shard's overlay; a fresh key
// records a new singleton. Only the joined classes are re-verified.
// Returns the new row id.
func (m *Monitor) AppendRow(row []string) (int, error) {
	if len(row) != m.rel.NumCols() {
		return 0, fmt.Errorf("core: append of %d cells into %d attributes", len(row), m.rel.NumCols())
	}
	if m.needHydrate {
		m.hydrateIndexes()
	}
	t := int32(m.rel.NumRows())
	m.rel.AppendRow(row)
	m.absorbRow(t)
	m.refreshSnaps()
	m.publish()
	return int(t), nil
}

// absorbRow joins already-appended row t to its equivalence class under
// every OFD via the owning shard's live class index, re-verifying only the
// joined classes and marking their shards' snapshots dirty. The caller
// refreshes snapshots and publishes (AppendRow per row; AbsorbAppends once
// per batch).
func (m *Monitor) absorbRow(t int32) {
	for i := range m.sigma {
		m.keyBuf = EncodeLHSKey(m.rel, m.lhsCols[i], int(t), m.keyBuf)
		s := shardOfKey(m.keyBuf, m.nShards)
		sh := m.shards[s]
		m.rowShard[i] = append(m.rowShard[i], s)
		ci, partner, kind := sh.idx[i].JoinKey(m.rel, m.keyBuf, t)
		switch kind {
		case live.JoinLone:
			m.classOf[i] = append(m.classOf[i], -1)
			continue
		case live.JoinBirth:
			m.classOf[i][partner] = ci
		}
		m.classOf[i] = append(m.classOf[i], ci)
		if sh.reverifyOne(m, i, ci) {
			m.snapDirty[s] = true
		}
	}
}

// ApplyBatch applies a batch of cell updates and re-verifies every
// affected equivalence class exactly once. See ApplyBatchContext.
func (m *Monitor) ApplyBatch(updates []CellUpdate) error {
	return m.ApplyBatchContext(context.Background(), updates)
}

// ApplyBatchContext applies the updates in three stages. Route
// (sequential) validates every update before any write, dedups same-cell
// writes to their last value, applies the effective writes, and assigns
// each dirtied (OFD, class) pair to its owning shard. Apply (parallel
// over shards, up to m.Workers goroutines) replays the multiset deltas
// and re-verifies each shard's dirty classes with no shared write state,
// staging materialized violation records. Merge commits the staged state,
// rebuilds the changed shards' snapshots, and publishes a new epoch. The
// result is byte-identical for every worker and shard count.
//
// The batch is atomic: a cancelled apply stage rolls the cell writes and
// multiset deltas back and leaves the violation state — and the published
// snapshot — exactly as before the call, returning an error satisfying
// errors.Is(err, ctx.Err()). Updates that rewrite a cell's current value
// are skipped and dirty no classes.
func (m *Monitor) ApplyBatchContext(ctx context.Context, updates []CellUpdate) error {
	for _, u := range updates {
		if err := m.checkUpdate(u.Row, u.Col); err != nil {
			return err
		}
	}
	routeSpan := m.Stats.Span("monitor.route")
	routeSpan.Items(len(updates))
	// Last-write-wins cell dedup, keeping the pre-batch value for
	// rollback; then apply the effective writes and route their multiset
	// deltas and dirty classes to the owning shards.
	writes := m.log.Fold(m.rel, updates)
	for _, wr := range writes {
		m.rel.SetValue(wr.Row, wr.Col, wr.New)
		for _, i := range m.byRHS[wr.Col] {
			ci := m.classOf[i][wr.Row]
			if ci < 0 {
				continue
			}
			sh := m.shards[m.rowShard[i][wr.Row]]
			sh.bumps = append(sh.bumps, shardBump{ofd: i, class: ci, from: wr.Old, to: wr.New})
			sh.dirty = append(sh.dirty, int64(i)<<32|int64(uint32(ci)))
		}
	}
	var active []int
	for s, sh := range m.shards {
		if len(sh.bumps) > 0 || len(sh.dirty) > 0 {
			active = append(active, s)
		}
	}
	routeSpan.End()
	if len(writes) == 0 {
		return nil
	}
	rollback := func() {
		// Multiset deltas were staged per shard, not yet applied (or have
		// been reversed shard-locally); only the cell writes need undoing.
		// Interned strings stay in the dictionaries and memoized names
		// tables, which is harmless — both are monotone.
		for k := len(writes) - 1; k >= 0; k-- {
			wr := writes[k]
			m.rel.SetValue(wr.Row, wr.Col, wr.Old)
		}
		for _, s := range active {
			m.shards[s].clearBatch()
		}
	}
	// The one cancellation point between the cell writes and the shard
	// fan-out: a context cancelled here (or before the call) rolls back
	// with no multiset applied anywhere.
	if err := exec.Interrupted(ctx, "monitor.apply"); err != nil {
		rollback()
		return err
	}
	if len(active) == 0 {
		// Writes landed only on singleton classes: nothing to re-verify,
		// but the instance changed, so publish a fresh epoch.
		m.publish()
		return nil
	}

	w := exec.Workers(m.Workers)
	applySpan := m.Stats.Span("monitor.apply")
	applySpan.Workers(w)
	applySpan.Shards(len(active))
	applied := make([]bool, len(active))
	err := exec.For(ctx, len(active), w, func(_, k int) {
		sh := m.shards[active[k]]
		sh.applyBatch(m)
		applySpan.Items(len(sh.dirty))
		applied[k] = true
	})
	applySpan.End()
	if err != nil {
		// Shards whose task ran to completion reverse their multiset
		// deltas (exec.For finishes started items, and its WaitGroup
		// ordering makes applied[k] safe to read here); the rest never
		// applied anything.
		for k, s := range active {
			if applied[k] {
				m.shards[s].rollbackBatch()
			} else {
				m.shards[s].clearBatch()
			}
		}
		rollback()
		return err
	}

	// Commit is not cancellable: every staged state lands, per shard in
	// parallel, then one snapshot publish makes the epoch visible.
	mergeSpan := m.Stats.Span("monitor.merge")
	mergeSpan.Workers(w)
	mergeSpan.Shards(len(active))
	_ = exec.For(context.Background(), len(active), w, func(_, k int) {
		sh := m.shards[active[k]]
		mergeSpan.Items(len(sh.dirty))
		sh.commitBatch()
	})
	m.publish()
	mergeSpan.End()
	return nil
}

// Satisfied reports whether the instance currently satisfies every OFD.
// Safe to call concurrently with a writer (reads the latest snapshot).
func (m *Monitor) Satisfied() bool {
	return m.latest().violations() == 0
}

// ViolationCount returns the current number of violating equivalence
// classes across all OFDs. Safe to call concurrently with a writer.
func (m *Monitor) ViolationCount() int {
	return m.latest().violations()
}

// Reverified returns the number of class re-verifications performed since
// construction — the monitor's unit of incremental work (a no-op update
// leaves it unchanged). Not synchronized with a concurrent writer.
func (m *Monitor) Reverified() int {
	n := 0
	for _, sh := range m.shards {
		n += sh.reverified
	}
	return n
}

// NumRows returns the current number of monitored tuples.
func (m *Monitor) NumRows() int { return m.rel.NumRows() }

// NumShards returns the effective LHS-key shard count.
func (m *Monitor) NumShards() int { return m.nShards }

// CacheStats returns the partition cache counters behind the monitor's
// base partitions (hits/misses/entries/bytes), for benchmark reports.
func (m *Monitor) CacheStats() relation.CacheStats {
	return m.v.Partitions().Stats()
}

// ViolatingClasses returns, for each OFD index, the violating classes'
// tuple lists ordered by first tuple id — a canonical order independent
// of the shard count. Not safe to call concurrently with a writer.
func (m *Monitor) ViolatingClasses() map[int][][]int {
	out := make(map[int][][]int)
	for _, sh := range m.shards {
		for i := range sh.viol {
			for ci := range sh.viol[i] {
				class := sh.idx[i].Part.StableView(int(ci))
				tuples := make([]int, len(class))
				for j, t := range class {
					tuples[j] = int(t)
				}
				out[i] = append(out[i], tuples)
			}
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a][0] < out[i][b][0] })
	}
	return out
}
