package core

import (
	"context"
	"sort"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/exec"
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
// The state is kept per dependency on top of the substrate, as OFD
// verification works on the classes of Π_X whatever the consequent: the
// table over X (live.Table) holds the LHS-key map of classes and lone
// rows, the row→class array and the classes' copy-on-write member lists,
// and the substrate's state of each dependency X → A (DepState) holds
// its consequent-value multisets and class verdicts on top of it. The
// substrate moves each table's rows and folds each state once per batch,
// for both engines, re-verifying each dirty class once; absorbing the
// batch fans the dependencies whose state the batch dirtied out over
// exec.For with no shared write state, and each worker re-materializes
// its dirty classes' violation records. A batch costs what it touched,
// not the instance: no write rebuilds a table or a multiset.
//
// Violation state is published as epoch-stamped immutable snapshots:
// every mutating operation materializes the affected classes' Violation
// records eagerly and swaps in a fresh snapshot, so Report (and
// ReportAt) read only frozen data and may run concurrently with a
// subsequent Update/AppendRow/ApplyBatch on the owner goroutine. The
// cross-dependency merge is canonical — for any Workers value, Report is
// byte-identical to running Detect from scratch on the current instance.
//
// A Monitor is single-writer: mutating methods must be called from one
// goroutine at a time. Report, ReportAt, Epoch, Satisfied, and
// ViolationCount are safe to call concurrently with the writer.
type Monitor struct {
	sub   *Substrate
	rel   *relation.Relation // sub's relation
	v     *Verifier          // sub's verifier
	sigma Set
	// Workers bounds the parallel fan-out of a batch over its
	// dependencies and of the initial build (0 selects all CPUs, as
	// everywhere on the exec substrate).
	Workers int
	// Stats, when non-nil, receives monitor.build, monitor.fold,
	// monitor.apply, and monitor.merge stage spans.
	Stats *exec.Stats

	// deps[i] is sigma[i]'s live state.
	deps []*monitorDep

	// absorbed is the number of rows the monitor has absorbed, so Absorb
	// tells an append from a batch of writes (an empty Σ counts too).
	absorbed int

	reverified atomic.Int64 // classes re-verified since construction

	epoch   uint64
	history historyPtr
}

// NewMonitor builds a monitor over sub and Σ, computing the initial
// violation state. Each dependency holds the substrate's state of it and
// the table over its antecedent, with member lists (Substrate.Hold: each
// built unless an engine holds it already). The build spreads over up
// to workers goroutines (0 = all CPUs), every batch too, and stats, when
// non-nil, receives the monitor's stage spans. Reports are byte-identical
// for every worker count. A cancelled build returns a nil Monitor — a
// partially indexed monitor would report wrong violation counts — holds
// no state, and returns an error satisfying errors.Is(err, ctx.Err()).
func NewMonitor(ctx context.Context, sub *Substrate, sigma Set, workers int, stats *exec.Stats) (*Monitor, error) {
	w := exec.Workers(workers)
	span := stats.Span("monitor.build")
	span.Workers(w)
	span.Items(len(sigma))
	defer span.End()
	m := newMonitor(sub, sigma.Clone(), workers, stats)
	sts, err := sub.Hold(ctx, m.sigma, true)
	if err != nil {
		return nil, err
	}
	// Iteration i writes only deps[i], so the fan-out is race-free.
	if err := exec.For(ctx, len(m.sigma), w, func(_, i int) {
		m.deps[i] = &monitorDep{d: m.sigma[i], st: sts[i]}
		m.deps[i].buildRecords(m)
	}); err != nil {
		sub.Release(m.sigma, true)
		return nil, err
	}
	m.publishInit()
	st := m.v.Partitions().Stats()
	span.Cache(st.Hits, st.Misses)
	return m, nil
}

// newMonitor allocates a monitor for sigma (taken as is) over sub; the
// caller fills deps.
func newMonitor(sub *Substrate, sigma Set, workers int, stats *exec.Stats) *Monitor {
	return &Monitor{
		sub:      sub,
		rel:      sub.Relation(),
		v:        sub.Verifier(),
		sigma:    sigma,
		Workers:  workers,
		Stats:    stats,
		deps:     make([]*monitorDep, len(sigma)),
		absorbed: sub.Relation().NumRows(),
	}
}

// State returns the substrate's state of dependency d, which the monitor
// reads, or nil when d is not monitored.
func (m *Monitor) State(d OFD) *DepState {
	if i := m.indexOf(d); i >= 0 {
		return m.deps[i].st
	}
	return nil
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
// substrate and absorbs them as one batch (Absorb): the substrate joins
// each tuple to its equivalence class under every antecedent via that
// antecedent's class table — O(|X|) per table, no partition rebuild —
// and folds the joins into every dependency's state, timed as
// monitor.fold. A tuple whose antecedent key matches a formerly-singleton
// row births a new two-tuple class; a fresh key records a new singleton.
// Every joined class is re-verified once for the whole batch, and one
// epoch is published. A row of the wrong width rejects the batch before
// anything is appended.
func (m *Monitor) AppendRows(rows [][]string) error {
	span := m.Stats.Span("monitor.fold")
	err := m.sub.Append(rows)
	span.End()
	if err != nil {
		return err
	}
	m.Absorb()
	return nil
}

// ApplyBatch applies a batch of cell updates and re-verifies every
// affected equivalence class exactly once. See ApplyBatchContext.
func (m *Monitor) ApplyBatch(updates []CellUpdate) error {
	return m.ApplyBatchContext(context.Background(), updates)
}

// ApplyBatchContext has the substrate validate, fold and apply the
// updates, move the tables and fold the dependencies' states
// (Substrate.Apply, timed as monitor.fold), then absorbs the batch
// (Absorb) and publishes one epoch. The result is byte-identical for
// every worker count. Updates that rewrite a cell's current value are
// skipped and dirty no classes; an all-no-op batch publishes nothing.
//
// The batch is atomic: ctx is polled once, after the substrate applied the
// batch and before the monitor absorbs it, and a cancelled batch is
// undone (Substrate.Undo, which also restores the tables and states),
// leaving the violation state — and the published snapshot — exactly as
// before the call, with an error satisfying errors.Is(err, ctx.Err()).
func (m *Monitor) ApplyBatchContext(ctx context.Context, updates []CellUpdate) error {
	span := m.Stats.Span("monitor.fold")
	err := m.sub.Apply(updates)
	span.End()
	if err != nil {
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
	return int(m.reverified.Load())
}

// NumRows returns the current number of monitored tuples.
func (m *Monitor) NumRows() int { return m.rel.NumRows() }

// CacheStats returns the partition cache counters behind the monitor's
// base partitions (hits/misses/entries/bytes), for benchmark reports.
func (m *Monitor) CacheStats() relation.CacheStats {
	return m.sub.Cache().Stats()
}

// Substrate returns the live substrate the monitor runs on.
func (m *Monitor) Substrate() *Substrate { return m.sub }

// ViolatingClasses returns, for each OFD index, the violating classes'
// tuple lists ordered by first tuple id — a canonical order independent
// of internal class ids. Not safe to call concurrently with a writer.
func (m *Monitor) ViolatingClasses() map[int][][]int {
	out := make(map[int][][]int)
	for i, dep := range m.deps {
		for ci := range dep.viol {
			class := dep.st.tab.Members[ci]
			tuples := make([]int, len(class))
			for j, t := range class {
				tuples[j] = int(t)
			}
			out[i] = append(out[i], tuples)
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a][0] < out[i][b][0] })
	}
	return out
}
