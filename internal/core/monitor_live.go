package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// This file is the monitor's live surface: registration of dependencies
// as a followed cover drifts, and absorption of the writes and appends
// the substrate has already applied. Every mutation — the monitor's own
// ApplyBatch and AppendRows, and the merged pipeline's — ends here, so
// reports remain byte-identical to a fresh Detect either way.

// Register adds dependency d to the monitored set and builds its live
// state — multisets and violation records — exactly as construction
// would have. A dependency over an antecedent the substrate already holds
// a table for (for either engine) reuses it: it needs no partition and no
// key build, only one pass over the table's row→class array for its
// multisets, plus one for the member lists if no monitored dependency
// read them yet. The new dependency's violations appear in the next
// published epoch.
func (m *Monitor) Register(d OFD) error {
	if m.indexOf(d) >= 0 {
		return fmt.Errorf("core: dependency already monitored")
	}
	tabs, _ := m.sub.Hold(context.Background(), []relation.AttrSet{d.LHS}, true)
	dep := &monitorDep{d: d, tab: tabs[0]}
	dep.fill(m)
	m.sigma = append(m.sigma, d)
	m.deps = append(m.deps, dep)
	m.publish()
	return nil
}

// Unregister removes dependency d from the monitored set, dropping its
// live state and violation records, and releases its hold of the
// substrate's table (which goes when neither engine holds it any more).
// Epochs already published keep reporting it (snapshots are immutable);
// the next epoch no longer does. The removed state is not pinned:
// slices.Delete clears the vacated tail slots.
func (m *Monitor) Unregister(d OFD) error {
	at := m.indexOf(d)
	if at < 0 {
		return fmt.Errorf("core: dependency not monitored")
	}
	m.sigma = slices.Delete(m.sigma, at, at+1)
	m.deps = slices.Delete(m.deps, at, at+1)
	m.sub.Release([]relation.AttrSet{d.LHS}, true)
	m.publish()
	return nil
}

// indexOf returns d's position in the monitored set, or -1.
func (m *Monitor) indexOf(d OFD) int {
	for i, e := range m.sigma {
		if e.LHS == d.LHS && e.RHS == d.RHS {
			return i
		}
	}
	return -1
}

// Absorb folds everything the substrate changed since the monitor last
// absorbed into its live state and publishes one epoch. Its inputs are
// the substrate's current batch: the write log (Substrate.Writes) or the
// rows appended (Substrate.Append clears the log, so one call sees new
// rows or writes, never both), and the move logs the batch left on the
// tables. Absorb runs once per batch, before the substrate's next one.
// Two stages:
//
//   - monitor.apply: the dependencies the batch touches — every one when
//     rows were appended, otherwise those whose antecedent or consequent
//     the log rewrites — each fold the batch (live.Fold) and re-verify
//     the classes it touched on a worker of their own, claimed by work
//     stealing.
//   - monitor.merge: one epoch is published from the dependencies'
//     snapshots.
//
// The substrate already validated and applied the batch, so absorption
// cannot fail; it is not cancellable — the batch's cancellation point lies
// before this call. Nothing new is a no-op that publishes nothing.
func (m *Monitor) Absorb() {
	writes := m.sub.Writes()
	t0, end := m.absorbed, m.rel.NumRows()
	if t0 == end && len(writes) == 0 {
		return
	}
	m.absorbed = end
	touched := Touched(writes)
	m.active = m.active[:0]
	for i, dep := range m.deps {
		if t0 < end || !dep.d.LHS.With(dep.d.RHS).Intersect(touched).IsEmpty() {
			m.active = append(m.active, int32(i))
		}
	}
	w := exec.Workers(m.Workers)
	applySpan := m.Stats.Span("monitor.apply")
	applySpan.Workers(w)
	_ = exec.For(context.Background(), len(m.active), w, func(_, k int) {
		dep := m.deps[m.active[k]]
		dep.counts, dep.dirty = live.Fold(dep.tab, m.rel, dep.d.RHS, writes, dep.counts, dep.dirty)
		n := dep.recheck(m)
		applySpan.Items(n)
		m.reverified.Add(int64(n))
	})
	applySpan.End()

	mergeSpan := m.Stats.Span("monitor.merge")
	m.publish()
	mergeSpan.End()
}
