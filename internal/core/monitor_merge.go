package core

import (
	"fmt"
	"sync/atomic"
)

// epochRetention is how many published epochs stay readable through
// ReportAt. A small window: snapshots alias materialized records, so
// retained epochs cost only their slice headers, but an unbounded history
// would pin every record ever published.
const epochRetention = 8

// depSnap is one dependency's frozen violation state: the materialized
// records of its violating classes and the stable tuple lists of its
// FD-only classes, in no particular order (the cross-dependency merge
// imposes the canonical one). A depSnap is immutable once built.
type depSnap struct {
	viol     []*Violation
	fdTuples [][]int32
}

// epochSnap is one published monitor state: the epoch stamp and every
// dependency's snapshot at that point. Immutable once published.
type epochSnap struct {
	epoch uint64
	deps  []*depSnap
}

// violations returns the number of violating classes in the snapshot.
func (es *epochSnap) violations() int {
	n := 0
	for _, ds := range es.deps {
		n += len(ds.viol)
	}
	return n
}

// historyPtr is the atomically swapped retention window of published
// epochs, ordered oldest to newest and never mutated in place.
type historyPtr = atomic.Pointer[[]*epochSnap]

// rebuildSnap freezes the dependency's current violation maps into a
// fresh snapshot. The old snapshot is never mutated — epochs already
// published keep aliasing it.
func (dep *monitorDep) rebuildSnap() {
	snap := &depSnap{
		viol:     make([]*Violation, 0, len(dep.viol)),
		fdTuples: make([][]int32, 0, len(dep.fdOnly)),
	}
	for _, v := range dep.viol {
		snap.viol = append(snap.viol, v)
	}
	for _, ts := range dep.fdOnly {
		snap.fdTuples = append(snap.fdTuples, ts)
	}
	dep.snap = snap
}

// current stamps the dependencies' current snapshots with the monitor's
// epoch.
func (m *Monitor) current() *epochSnap {
	snaps := make([]*depSnap, len(m.deps))
	for i, dep := range m.deps {
		snaps[i] = dep.snap
	}
	return &epochSnap{epoch: m.epoch, deps: snaps}
}

// publishInit publishes the state right after construction or restore
// as the monitor's epoch (0 for a new monitor, the saved epoch for a
// restored one), so ReportAt of it answers and the next mutation stamps
// the one after.
func (m *Monitor) publishInit() {
	hist := []*epochSnap{m.current()}
	m.history.Store(&hist)
}

// publish stamps the dependencies' current snapshots with the next epoch
// and swaps them into the retention window (copy-on-write, so concurrent
// readers holding the old window are unaffected).
func (m *Monitor) publish() {
	m.epoch++
	es := m.current()
	hist := *m.history.Load()
	next := make([]*epochSnap, 0, len(hist)+1)
	next = append(next, hist...)
	next = append(next, es)
	if len(next) > epochRetention {
		next = next[len(next)-epochRetention:]
	}
	m.history.Store(&next)
}

// latest returns the newest published epoch (always present).
func (m *Monitor) latest() *epochSnap {
	hist := *m.history.Load()
	return hist[len(hist)-1]
}

// Epoch returns the stamp of the newest published state: 0 right after
// construction, incremented by every mutating operation. Safe to call
// concurrently with the writer.
func (m *Monitor) Epoch() uint64 {
	return m.latest().epoch
}

// Report materializes the current violation state as a Detect-shaped
// report: canonically sorted explained violations, distinct flagged
// tuples, and the FD-only false-positive count. For any sequence of
// updates, batches, and appends — and any worker count — the
// report is byte-identical to running Detect from scratch on the final
// instance; the bench and the equivalence property test assert exactly
// that. Report reads only the latest immutable snapshot, so it is safe to
// call concurrently with a subsequent ApplyBatch and never blocks the
// writer. Cost is proportional to the flagged classes, plus one bit per
// row up to the highest flagged tuple for the counts. The returned record
// slices alias the snapshot and must not be mutated.
func (m *Monitor) Report() *Report {
	return reportFrom(m.latest())
}

// ReportAt materializes the violation state as of the given epoch, which
// must still be inside the retention window (the last 8 published
// epochs). Safe to call concurrently with the writer.
func (m *Monitor) ReportAt(epoch uint64) (*Report, error) {
	hist := *m.history.Load()
	for _, es := range hist {
		if es.epoch == epoch {
			return reportFrom(es), nil
		}
	}
	return nil, fmt.Errorf("core: epoch %d not retained (window [%d, %d])", epoch, hist[0].epoch, hist[len(hist)-1].epoch)
}

// reportFrom merges one epoch's dependency snapshots into the canonical
// report. The snapshots are unordered, but sortViolations' comparator
// (consequent, antecedent, first tuple) is a strict total order over
// distinct classes, and the flagged/FD-only counters are set unions — so
// the merge result is independent of class ids and iteration order. The
// tuple sets grow to the highest id they meet, so an epoch retained from
// before an append counts its own rows only.
func reportFrom(es *epochSnap) *Report {
	rep := &Report{}
	var flagged, fdOnly tupleSet
	for _, ds := range es.deps {
		for _, v := range ds.viol {
			rep.Violations = append(rep.Violations, *v)
			for _, t := range v.Tuples {
				flagged.add(t)
			}
		}
		for _, ts := range ds.fdTuples {
			fdOnly.addClass(ts)
		}
	}
	rep.TuplesFlagged = flagged.count()
	rep.FDOnlyFlagged = fdOnly.count()
	sortViolations(rep.Violations)
	return rep
}
