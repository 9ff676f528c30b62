package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// This file is the monitor's side of the snapshot format, plus the
// verifier tables AppendSubstrate writes. A monitor body captures the
// state a rebuild would recompute from the instance — Σ, the epoch and
// per dependency its consequent multisets — on top of the class tables
// the substrate section already holds (each written once for both
// engines), so reopening costs bulk array reads plus one multiset pass
// per class to re-materialize violation records, instead of partition
// construction and key building over every tuple.
//
// Two deliberately lazy pieces keep reopen latency proportional to the
// flagged state rather than the instance:
//
//   - Key maps are not saved: they hold nothing the row→class arrays and
//     the relation lack. A table rebuilds its map when a batch first
//     appends a row or writes its antecedent; Report and consequent-only
//     batches never consult it.
//   - Dictionary string→id maps hydrate on first intern (relation side).

// AppendSet encodes Σ.
func AppendSet(w *wire.Writer, sigma Set) {
	w.Int(len(sigma))
	for _, d := range sigma {
		w.Uvarint(uint64(d.LHS))
		w.Int(d.RHS)
	}
}

// DecodeSet decodes a dependency set written by AppendSet.
func DecodeSet(r *wire.Reader) Set {
	n := r.Int()
	if r.Err() != nil {
		return nil
	}
	out := make(Set, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, OFD{LHS: relation.AttrSet(r.Uvarint()), RHS: r.Int()})
	}
	return out
}

// appendVerifierTables encodes the verifier's memoized names tables and
// coverage flags, sparsely: only values with at least one ontology
// interpretation are written (most columns of a real schema have none, and
// most values of a covered column still interpret to nothing).
func appendVerifierTables(w *wire.Writer, v *Verifier) {
	w.Int(len(v.names))
	for c := range v.names {
		tbl := *v.names[c].tbl.Load()
		w.Int(len(tbl))
		nonEmpty := 0
		for _, names := range tbl {
			if len(names) > 0 {
				nonEmpty++
			}
		}
		w.Int(nonEmpty)
		for id, names := range tbl {
			if len(names) == 0 {
				continue
			}
			w.Int(id)
			w.Int(len(names))
			for _, cls := range names {
				w.Uvarint(uint64(cls))
			}
		}
		w.Bool(v.covered[c].Load())
	}
}

// decodeVerifier rebuilds a verifier from its serialized names tables,
// skipping the per-value ontology resolution a fresh NewVerifier pays —
// the tables are memoization, so restoring them is exactly as correct as
// recomputing and O(interpreted values) instead of O(distinct values).
func decodeVerifier(r *wire.Reader, rel *relation.Relation, ont *ontology.Ontology, pc *relation.PartitionCache) (*Verifier, error) {
	nCols := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nCols != rel.NumCols() {
		return nil, fmt.Errorf("core: snapshot verifier has %d columns, relation has %d", nCols, rel.NumCols())
	}
	v := &Verifier{
		rel:     rel,
		ont:     ont,
		pc:      pc,
		names:   make([]colNames, nCols),
		covered: make([]atomic.Bool, nCols),
	}
	for c := 0; c < nCols; c++ {
		tbl := make([][]ontology.ClassID, r.Int())
		nonEmpty := r.Int()
		for k := 0; k < nonEmpty; k++ {
			id := r.Int()
			names := make([]ontology.ClassID, r.Int())
			for j := range names {
				names[j] = ontology.ClassID(r.Uvarint())
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
			if id < 0 || id >= len(tbl) {
				return nil, fmt.Errorf("core: snapshot names table id %d out of range", id)
			}
			tbl[id] = names
		}
		v.names[c].tbl.Store(&tbl)
		v.covered[c].Store(r.Bool())
	}
	return v, r.Err()
}

// AppendMonitorBody encodes everything of m except its substrate — the
// pipeline snapshot writes the shared substrate, its class tables
// included, once (AppendSubstrate) and then each engine's body: Σ, the
// epoch, then each dependency's multisets (live.AppendCounts), in Σ
// order.
func AppendMonitorBody(w *wire.Writer, m *Monitor) {
	AppendSet(w, m.sigma)
	w.Uvarint(m.epoch)
	for _, dep := range m.deps {
		live.AppendCounts(w, dep.counts)
	}
}

// DecodeMonitorBody rebuilds a monitor over an already-decoded substrate
// (DecodeSubstrate) from a body written by AppendMonitorBody. Each
// dependency holds the restored table over its antecedent
// (Substrate.Hold), which must exist. Violation
// records are re-materialized dependency-parallel — they are
// deterministic functions of the restored multisets and member lists — so
// the first Report is byte-identical to the saved monitor's. workers and
// stats configure the restored monitor exactly as NewMonitor's parameters
// would.
//
// The restored monitor takes ownership of the bytes r reads: the
// multisets' bulk arrays are read in place, like the substrate's tables.
func DecodeMonitorBody(r *wire.Reader, sub *Substrate, workers int, stats *exec.Stats) (*Monitor, error) {
	rel := sub.Relation()
	all := rel.Schema().All()
	sigma := DecodeSet(r)
	epoch := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	w := exec.Workers(workers)
	span := stats.Span("monitor.restore")
	span.Workers(w)
	span.Items(len(sigma))
	defer span.End()
	m := newMonitor(sub, sigma, workers, stats)
	m.epoch = epoch
	for i, d := range sigma {
		if d.RHS < 0 || d.RHS >= rel.NumCols() {
			return nil, fmt.Errorf("core: snapshot OFD consequent %d out of range", d.RHS)
		}
		if !d.LHS.SubsetOf(all) {
			return nil, fmt.Errorf("core: snapshot OFD antecedent %#x outside the %d-column schema", uint64(d.LHS), rel.NumCols())
		}
		if sub.Table(d.LHS) == nil {
			return nil, fmt.Errorf("core: snapshot holds no table for dependency %d", i)
		}
		tabs, _ := sub.Hold(context.Background(), []relation.AttrSet{d.LHS}, true)
		tab := tabs[0]
		counts, err := live.DecodeCounts(r, tab.Sizes, rel.Dict(d.RHS).Size())
		if err != nil {
			return nil, err
		}
		m.deps[i] = &monitorDep{d: d, tab: tab, counts: counts}
	}
	// Re-materialize each dependency's violation records: the maintained
	// multiset answers OK/FD-only/violating per class without a tuple
	// scan, and only flagged classes pay explain().
	_ = exec.For(context.Background(), len(sigma), w, func(_, i int) {
		m.deps[i].buildRecords(m)
	})
	m.publishInit()
	return m, nil
}

// Relation returns the monitored relation.
func (m *Monitor) Relation() *relation.Relation { return m.rel }

// Ontology returns the monitor's ontology.
func (m *Monitor) Ontology() *ontology.Ontology { return m.v.Ontology() }

// Sigma returns the monitored dependency set (a fresh copy).
func (m *Monitor) Sigma() Set { return m.sigma.Clone() }
