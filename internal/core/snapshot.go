package core

import (
	"context"
	"errors"
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
// state a rebuild would recompute from the instance — Σ and, per
// dependency, its row→class table, class member lists and consequent
// multisets — so reopening costs bulk array reads plus one multiset pass
// per class to re-materialize violation records, instead of partition
// construction and LHS-key hashing over every tuple.
//
// Two deliberately lazy pieces keep reopen latency proportional to the
// flagged state rather than the instance:
//
//   - LHS-key maps are not saved: they hold nothing the row→class tables
//     and the relation lack. A dependency rebuilds its map
//     (monitorDep.restoreKeys) when a batch first appends a row or writes
//     its antecedent; Report and consequent-only batches never consult
//     it.
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
// pipeline snapshot writes the shared substrate once (AppendSubstrate) and
// then each engine's body. After Σ and the epoch, each dependency writes
// its row→class table, its classes' lengths and then their member lists
// back to back as one array, so every class is written once, and its
// multisets (live.AppendCounts). No key map is written, so save → open →
// save round-trips without ever building one.
func AppendMonitorBody(w *wire.Writer, m *Monitor) {
	AppendSet(w, m.sigma)
	w.Uvarint(m.epoch)
	var lens, flat []int32
	for _, dep := range m.deps {
		w.Int32s(dep.classOf)
		lens, flat = lens[:0], flat[:0]
		for _, l := range dep.ix.Members {
			lens = append(lens, int32(len(l)))
			flat = append(flat, l...)
		}
		w.Int32s(lens)
		w.Int32s(flat)
		live.AppendCounts(w, dep.ix.Counts)
	}
}

// DecodeMonitorBody rebuilds a monitor over an already-decoded substrate
// (DecodeSubstrate) from a body written by AppendMonitorBody. Violation
// records are re-materialized dependency-parallel — they are
// deterministic functions of the restored multisets and member lists — so
// the first Report is byte-identical to the saved monitor's. workers and
// stats configure the restored monitor exactly as NewMonitor's parameters
// would. The key maps stay nil until a batch needs them
// (monitorDep.restoreKeys).
//
// The restored monitor takes ownership of the bytes r reads: the
// row→class tables and member lists are views of them, and later
// antecedent moves rewrite the tables in place, so the caller must
// neither reuse nor modify them.
func DecodeMonitorBody(r *wire.Reader, sub *Substrate, workers int, stats *exec.Stats) (*Monitor, error) {
	rel := sub.Relation()
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
	for _, d := range sigma {
		if d.RHS < 0 || d.RHS >= rel.NumCols() {
			return nil, fmt.Errorf("core: snapshot OFD consequent %d out of range", d.RHS)
		}
	}
	m := newMonitor(sub, sigma, workers, stats)
	m.epoch = epoch
	for i, d := range sigma {
		classOf := r.Int32s()
		members, lens, err := decodeMembers(r)
		if err != nil {
			return nil, err
		}
		if len(classOf) != rel.NumRows() {
			return nil, fmt.Errorf("core: snapshot row→class table sized for %d rows, relation has %d", len(classOf), rel.NumRows())
		}
		counts, err := live.DecodeCounts(r, lens, rel.Dict(d.RHS).Size())
		if err != nil {
			return nil, err
		}
		ix := &live.ClassIndex{Cols: d.LHS.Attrs(), RHS: d.RHS, Members: members, Counts: counts}
		m.deps[i] = &monitorDep{d: d, ix: ix, classOf: classOf}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Check each dependency's tables, then re-materialize its violation
	// records: the maintained multiset answers OK/FD-only/violating per
	// class without a tuple scan, and only flagged classes pay explain().
	errs := make([]error, len(sigma))
	_ = exec.For(context.Background(), len(sigma), w, func(_, i int) {
		if errs[i] = m.deps[i].checkRestored(m.rel.NumRows()); errs[i] == nil {
			m.deps[i].buildRecords(m)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	m.publishInit()
	return m, nil
}

// checkRestored fails closed on a restored dependency's tables that no
// monitor can run on, before anything reads them: every row's class is
// -1 or a class; every class lists strictly ascending row ids below n;
// and the classes together list as many rows as the row→class table puts
// in classes. live.DecodeCounts has already checked the multisets against
// the class lengths. Each check reads its arrays in order. That a listed
// row's table entry names its own class goes unchecked: a wrong one costs
// correctness, not safety, and checking it reads the table at random
// once per listed row, which on a 50K-row reopen cost more than the other
// checks together.
func (dep *monitorDep) checkRestored(n int) error {
	nc := int32(len(dep.ix.Members))
	members := 0
	for t, ci := range dep.classOf {
		if ci < -1 || ci >= nc {
			return fmt.Errorf("core: snapshot puts row %d in class %d of %d", t, ci, nc)
		}
		if ci >= 0 {
			members++
		}
	}
	for ci, class := range dep.ix.Members {
		members -= len(class)
		prev := int32(-1)
		for _, t := range class {
			if t <= prev || int(t) >= n {
				return fmt.Errorf("core: snapshot class %d is not ascending row ids below %d", ci, n)
			}
			prev = t
		}
	}
	if members != 0 {
		return fmt.Errorf("core: snapshot row→class table puts %d more rows in classes than the classes list", members)
	}
	return nil
}

// decodeMembers reads one dependency's member lists, written by
// AppendMonitorBody as class lengths plus one flat row array, and slices
// the array into the lists without copying; it returns the lengths too.
// Each list's capacity ends at its class, so the first append copies it
// instead of writing into the next class or the snapshot buffer. The
// result is non-nil even with no classes (a nil Members selects size
// tracking).
func decodeMembers(r *wire.Reader) ([][]int32, []int32, error) {
	lens := r.Int32s()
	flat := r.Int32s()
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	members := make([][]int32, len(lens))
	pos := 0
	for ci, l := range lens {
		n := int(l)
		if n < 0 || n > len(flat)-pos {
			return nil, nil, fmt.Errorf("core: snapshot class %d has length %d with %d listed rows left", ci, n, len(flat)-pos)
		}
		members[ci] = flat[pos : pos+n : pos+n]
		pos += n
	}
	if pos != len(flat) {
		return nil, nil, fmt.Errorf("core: snapshot classes list %d of %d rows", pos, len(flat))
	}
	return members, lens, nil
}

// Relation returns the monitored relation.
func (m *Monitor) Relation() *relation.Relation { return m.rel }

// Ontology returns the monitor's ontology.
func (m *Monitor) Ontology() *ontology.Ontology { return m.v.Ontology() }

// Sigma returns the monitored dependency set (a fresh copy).
func (m *Monitor) Sigma() Set { return m.sigma.Clone() }
