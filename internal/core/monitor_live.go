package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/fastofd/fastofd/internal/exec"
)

// This file is the monitor's live surface: registration of dependencies
// as a followed cover drifts, and absorption of the writes and appends
// the substrate has already applied. Every mutation — the monitor's own
// ApplyBatch and AppendRows, and the merged pipeline's — ends here, so
// reports remain byte-identical to a fresh Detect either way.

// Register adds dependency d to the monitored set and builds its
// violation records exactly as construction would have. A dependency an
// engine already holds reuses the substrate's state of it (for either
// engine) and needs no partition, no key build and no multiset pass, only
// one for the member lists if no monitored dependency read its table yet;
// one over an antecedent the substrate holds a table for costs one pass
// over the table's row→class array for its multisets. The new
// dependency's violations appear in the next published epoch.
func (m *Monitor) Register(d OFD) error {
	if m.indexOf(d) >= 0 {
		return fmt.Errorf("core: dependency already monitored")
	}
	sts, _ := m.sub.Hold(context.Background(), []OFD{d}, true)
	dep := &monitorDep{d: d, st: sts[0]}
	dep.buildRecords(m)
	m.sigma = append(m.sigma, d)
	m.deps = append(m.deps, dep)
	m.publish()
	return nil
}

// Unregister removes dependency d from the monitored set, dropping its
// violation records, and releases its hold of the substrate's state and
// table (each goes when neither engine holds it any more).
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
	m.sub.Release([]OFD{d}, true)
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

// Absorb brings the violation records up to what the substrate changed
// since the monitor last absorbed and publishes one epoch. Its input is
// the substrate's current batch, which already folded into every state
// it touches and re-verified the dirty classes: the write log
// (Substrate.Writes) or the rows appended (Substrate.Append clears the
// log, so one call sees new rows or writes, never both), and each state's
// dirty classes. Absorb runs once per batch, before the substrate's next
// one. Two stages:
//
//   - monitor.apply: every dependency re-materializes the records of the
//     classes the batch dirtied in its state from their verdicts, on a
//     worker of its own, claimed by work stealing.
//   - monitor.merge: one epoch is published from the dependencies'
//     snapshots.
//
// The substrate already validated, applied and folded the batch, so
// absorption cannot fail; it is not cancellable — the batch's
// cancellation point lies before this call. Nothing new is a no-op that
// publishes nothing.
func (m *Monitor) Absorb() {
	t0, end := m.absorbed, m.rel.NumRows()
	if t0 == end && len(m.sub.Writes()) == 0 {
		return
	}
	m.absorbed = end
	w := exec.Workers(m.Workers)
	applySpan := m.Stats.Span("monitor.apply")
	applySpan.Workers(w)
	_ = exec.For(context.Background(), len(m.deps), w, func(_, i int) {
		n := m.deps[i].recheck(m)
		applySpan.Items(n)
		m.reverified.Add(int64(n))
	})
	applySpan.End()

	mergeSpan := m.Stats.Span("monitor.merge")
	m.publish()
	mergeSpan.End()
}
