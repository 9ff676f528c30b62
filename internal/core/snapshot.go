package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// This file is the monitor's side of the snapshot format, plus the
// verifier tables AppendSubstrate writes. A monitor body is Σ and the
// epoch: the class tables and every dependency's multisets live in the
// substrate section (each written once for both engines), so reopening
// costs bulk array reads plus one verdict per class and one record per
// flagged class, instead of partition construction and key building over
// every tuple.
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
// pipeline snapshot writes the shared substrate, its class tables and
// dependency states included, once (AppendSubstrate) and then each
// engine's body: Σ and the epoch.
func AppendMonitorBody(w *wire.Writer, m *Monitor) {
	AppendSet(w, m.sigma)
	w.Uvarint(m.epoch)
}

// DecodeMonitorBody rebuilds a monitor over an already-decoded substrate
// (DecodeSubstrate) from a body written by AppendMonitorBody. Each
// dependency holds the restored state of it (Substrate.Hold), which must
// exist, so its consequent and antecedent lie in the schema. Violation
// records are re-materialized dependency-parallel — they are
// deterministic functions of the restored verdicts and member lists — so
// the first Report is byte-identical to the saved monitor's. workers and
// stats configure the restored monitor exactly as NewMonitor's
// parameters would.
func DecodeMonitorBody(r *wire.Reader, sub *Substrate, workers int, stats *exec.Stats) (*Monitor, error) {
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
		// A state exists only for a dependency within the schema.
		if sub.State(d) == nil {
			return nil, fmt.Errorf("core: snapshot holds no state for dependency %d", i)
		}
		sts, _ := sub.Hold(context.Background(), []OFD{d}, true)
		m.deps[i] = &monitorDep{d: d, st: sts[0]}
	}
	// Re-materialize each dependency's violation records: the restored
	// verdicts answer OK/FD-only/violating per class without a tuple
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
