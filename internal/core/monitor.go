package core

import (
	"context"
	"sort"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// Monitor is the incremental detection engine: it maintains OFD violation
// state under single-cell updates, batched updates, and appended tuples —
// the "data evolves" scenario of the paper's introduction — without ever
// rebuilding partitions or re-verifying untouched classes.
//
// The monitor runs on a Substrate, which owns every write: ApplyBatch and
// AppendRows have the substrate apply the batch and then Absorb it, and
// the merged pipeline absorbs the batch its maintainer applied. Cell
// writes and appended rows are one kind of batch — AppendRow is a batch
// of one. Any Σ is accepted — a discovered cover routinely chains
// dependencies (A→B, B→C) — and any cell may be written.
//
// The state is sharded by LHS-key hash: for each OFD, every equivalence
// class (and lone row) is routed to one of NumShards() independent shards,
// each owning its own relation.PartitionOverlay view of the cached base
// partition, LHS-key index, consequent-value multisets, and violation
// maps. Absorbing a batch joins its appended rows and routes its
// consequent writes by (OFD, shard), then fans the multiset maintenance
// and the re-verification of each dirty class out over exec.For with no
// shared write state — the three stages are observable as
// monitor.route / monitor.apply / monitor.merge spans. A dependency whose
// antecedent the batch rewrote is re-routed wholesale instead, so between
// such writes a tuple's shard per OFD is fixed and routing is a table
// lookup.
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
	sub   *Substrate
	rel   *relation.Relation // sub's relation
	v     *Verifier          // sub's verifier
	sigma Set
	// Workers bounds the parallel fan-out of a batch's apply/merge stages
	// and the initial index build (0 selects all CPUs, as everywhere on
	// the exec substrate).
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
	// sigma[i]. Fixed until a write to the antecedent re-routes sigma[i].
	rowShard [][]uint8

	// absorbed is the number of rows Absorb has joined (the length of the
	// classOf/rowShard tables, kept apart so an empty Σ counts too).
	absorbed int

	epoch   uint64
	history historyPtr

	// needHydrate marks a snapshot-restored monitor whose LHS-key index
	// maps are still in frozen array form; the first append hydrates them
	// (no other operation consults the indexes).
	needHydrate bool

	keyBuf    []byte // LHS-key encoding scratch (joins)
	snapDirty []bool // per-shard "snapshot stale" scratch
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

// NewMonitor builds a monitor over sub and Σ, computing the initial
// violation state. shards > 0 uses that many LHS-key shards (clamped to
// 256), shards == 0 derives the count from the worker count; more shards
// widen a batch's parallel fan-out. The index build and every batch spread
// over up to workers goroutines (0 = all CPUs), and stats, when non-nil,
// receives the monitor's stage spans. Reports are byte-identical for every
// shard and worker count. A cancelled build returns a nil Monitor — a
// partially indexed monitor would report wrong violation counts — together
// with an error satisfying errors.Is(err, ctx.Err()).
func NewMonitor(ctx context.Context, sub *Substrate, sigma Set, shards, workers int, stats *exec.Stats) (*Monitor, error) {
	w := exec.Workers(workers)
	nShards := resolveShards(shards, workers)
	span := stats.Span("monitor.build")
	span.Workers(w)
	span.Shards(nShards)
	span.Items(len(sigma))
	defer span.End()
	m := newMonitor(sub, sigma.Clone(), nShards, workers, stats)
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

// newMonitor allocates a monitor's tables for sigma (taken as is) over
// sub with nShards shards; the caller fills the shards.
func newMonitor(sub *Substrate, sigma Set, nShards, workers int, stats *exec.Stats) *Monitor {
	rel := sub.Relation()
	m := &Monitor{
		sub:       sub,
		rel:       rel,
		v:         sub.Verifier(),
		sigma:     sigma,
		Workers:   workers,
		Stats:     stats,
		nShards:   nShards,
		shards:    make([]*monitorShard, nShards),
		lhsCols:   make([][]int, len(sigma)),
		byRHS:     make([][]int32, rel.NumCols()),
		classOf:   make([][]int32, len(sigma)),
		rowShard:  make([][]uint8, len(sigma)),
		absorbed:  rel.NumRows(),
		snapDirty: make([]bool, nShards),
	}
	for i, d := range sigma {
		m.lhsCols[i] = d.LHS.Attrs()
		m.byRHS[d.RHS] = append(m.byRHS[d.RHS], int32(i))
	}
	return m
}

// Update writes value into cell (row, col) as a batch of one, reporting
// whether the cell changed. See ApplyBatchContext.
func (m *Monitor) Update(row, col int, value string) (changed bool, err error) {
	err = m.ApplyBatch([]CellUpdate{{Row: row, Col: col, Value: value}})
	return err == nil && len(m.sub.Writes()) > 0, err
}

// AppendRow appends one tuple (strings in schema order) as a batch of one
// and returns its row id. See AppendRows.
func (m *Monitor) AppendRow(row []string) (int, error) {
	t := m.rel.NumRows()
	if err := m.AppendRows([][]string{row}); err != nil {
		return 0, err
	}
	return t, nil
}

// AppendRows appends tuples (strings in schema order) through the
// substrate and absorbs them as one batch (Absorb): each tuple joins its
// equivalence class under every OFD via the owning shard's LHS-key index
// — O(|X|) per dependency, no partition rebuild. A tuple whose antecedent
// key matches a formerly-singleton row births a new two-tuple class in
// that shard's overlay; a fresh key records a new singleton. Every joined
// class is re-verified once for the whole batch, and one epoch is
// published. A row of the wrong width rejects the batch before anything
// is appended.
func (m *Monitor) AppendRows(rows [][]string) error {
	if err := m.sub.Append(rows); err != nil {
		return err
	}
	m.Absorb()
	return nil
}

// joinRow joins already-appended row t to its equivalence class under
// every OFD via the owning shard's live class index and marks the joined
// class dirty in that shard; the apply stage re-verifies it.
func (m *Monitor) joinRow(t int32) {
	for i := range m.sigma {
		m.keyBuf = live.EncodeKey(m.rel, m.lhsCols[i], int(t), m.keyBuf)
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
		sh.dirty = append(sh.dirty, int64(i)<<32|int64(uint32(ci)))
	}
}

// ApplyBatch applies a batch of cell updates and re-verifies every
// affected equivalence class exactly once. See ApplyBatchContext.
func (m *Monitor) ApplyBatch(updates []CellUpdate) error {
	return m.ApplyBatchContext(context.Background(), updates)
}

// ApplyBatchContext has the substrate validate, fold and apply the
// updates (Substrate.Apply), then absorbs the effective write log
// (Absorb) and publishes one epoch. The result is byte-identical for
// every worker and shard count. Updates that rewrite a cell's current
// value are skipped and dirty no classes; an all-no-op batch publishes
// nothing.
//
// The batch is atomic: ctx is polled once, after the writes and before any
// index moves, and a cancelled batch is undone (Substrate.Undo), leaving
// the violation state — and the published snapshot — exactly as before the
// call, with an error satisfying errors.Is(err, ctx.Err()).
func (m *Monitor) ApplyBatchContext(ctx context.Context, updates []CellUpdate) error {
	if err := m.sub.Apply(updates); err != nil {
		return err
	}
	if len(m.sub.Writes()) == 0 {
		return nil
	}
	if err := exec.Interrupted(ctx, "monitor.apply"); err != nil {
		m.sub.Undo()
		return err
	}
	m.Absorb()
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
	return m.sub.Cache().Stats()
}

// Substrate returns the live substrate the monitor runs on.
func (m *Monitor) Substrate() *Substrate { return m.sub }

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
