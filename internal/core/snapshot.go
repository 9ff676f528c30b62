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
// state a rebuild would recompute from the instance — Σ, per antecedent
// its row→class array and class member lists, and per dependency its
// consequent multisets — so reopening costs bulk array reads plus one
// multiset pass per class to re-materialize violation records, instead of
// partition construction and key building over every tuple.
//
// Two deliberately lazy pieces keep reopen latency proportional to the
// flagged state rather than the instance:
//
//   - Key maps are not saved: they hold nothing the row→class arrays and
//     the relation lack. A table rebuilds its map (live.Table.Prepare)
//     when a batch first appends a row or writes its antecedent; Report
//     and consequent-only batches never consult it.
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
// then each engine's body. After Σ and the epoch come the tables, each
// its antecedent, its row→class array, its classes' lengths and then their
// member lists back to back as one array, so every class is written once;
// then each dependency's multisets (live.AppendCounts), in Σ order. No key
// map is written, so save → open → save round-trips without ever building
// one.
func AppendMonitorBody(w *wire.Writer, m *Monitor) {
	AppendSet(w, m.sigma)
	w.Uvarint(m.epoch)
	w.Int(len(m.tables))
	var lens, flat []int32
	for _, mt := range m.tables {
		w.Uvarint(uint64(mt.lhs))
		w.Int32s(mt.tab.RowClass)
		lens, flat = lens[:0], flat[:0]
		for _, l := range mt.tab.Members {
			lens = append(lens, int32(len(l)))
			flat = append(flat, l...)
		}
		w.Int32s(lens)
		w.Int32s(flat)
	}
	for _, dep := range m.deps {
		live.AppendCounts(w, dep.counts)
	}
}

// DecodeMonitorBody rebuilds a monitor over an already-decoded substrate
// (DecodeSubstrate) from a body written by AppendMonitorBody. Violation
// records are re-materialized dependency-parallel — they are
// deterministic functions of the restored multisets and member lists — so
// the first Report is byte-identical to the saved monitor's. workers and
// stats configure the restored monitor exactly as NewMonitor's parameters
// would. The key maps stay unbuilt until a batch needs them
// (live.Table.Prepare). Every antecedent must lie in the schema, every
// dependency's antecedent must have exactly one table, and every table
// must serve a dependency.
//
// The restored monitor takes ownership of the bytes r reads: the
// row→class arrays, class sizes and member lists are views of them, and
// later antecedent moves rewrite the arrays in place, so the caller must
// neither reuse nor modify them.
func DecodeMonitorBody(r *wire.Reader, sub *Substrate, workers int, stats *exec.Stats) (*Monitor, error) {
	rel := sub.Relation()
	all := rel.Schema().All()
	sigma := DecodeSet(r)
	epoch := r.Uvarint()
	nTables := r.Int()
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
		if !d.LHS.SubsetOf(all) {
			return nil, fmt.Errorf("core: snapshot OFD antecedent %#x outside the %d-column schema", uint64(d.LHS), rel.NumCols())
		}
	}
	m := newMonitor(sub, sigma, workers, stats)
	m.epoch = epoch
	if nTables < 0 || nTables > len(sigma) {
		return nil, fmt.Errorf("core: snapshot holds %d tables for %d dependencies", nTables, len(sigma))
	}
	for k := 0; k < nTables; k++ {
		x := relation.AttrSet(r.Uvarint())
		rowClass := r.Int32s()
		members, lens, err := decodeMembers(r)
		if err != nil {
			return nil, err
		}
		if !x.SubsetOf(all) {
			return nil, fmt.Errorf("core: snapshot table antecedent %#x outside the %d-column schema", uint64(x), rel.NumCols())
		}
		if m.tableOf(x) != nil {
			return nil, fmt.Errorf("core: snapshot holds two tables over one antecedent")
		}
		if len(rowClass) != rel.NumRows() {
			return nil, fmt.Errorf("core: snapshot row→class array sized for %d rows, relation has %d", len(rowClass), rel.NumRows())
		}
		m.tables = append(m.tables, &monitorTable{lhs: x, scope: x, tab: &live.Table{Cols: x.Attrs(), RowClass: rowClass, Sizes: lens, Members: members}})
	}
	for i, d := range sigma {
		mt := m.tableOf(d.LHS)
		if mt == nil {
			return nil, fmt.Errorf("core: snapshot holds no table for dependency %d", i)
		}
		counts, err := live.DecodeCounts(r, mt.tab.Sizes, rel.Dict(d.RHS).Size())
		if err != nil {
			return nil, err
		}
		m.deps[i] = &monitorDep{d: d, counts: counts}
		mt.attach(m.deps[i])
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	for _, mt := range m.tables {
		if len(mt.deps) == 0 {
			return nil, fmt.Errorf("core: snapshot table serves no dependency")
		}
	}
	// Check each table, then re-materialize each dependency's violation
	// records: the maintained multiset answers OK/FD-only/violating per
	// class without a tuple scan, and only flagged classes pay explain().
	errs := make([]error, len(m.tables))
	_ = exec.For(context.Background(), len(m.tables), w, func(_, i int) {
		errs[i] = checkRestored(m.tables[i].tab, m.rel.NumRows())
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	_ = exec.For(context.Background(), len(sigma), w, func(_, i int) {
		m.deps[i].buildRecords(m)
	})
	m.publishInit()
	return m, nil
}

// checkRestored fails closed on a restored table that no monitor can run
// on, before anything reads it: every row's class is -1 or a class; every
// class lists strictly ascending row ids below n; and the classes
// together list as many rows as the row→class array puts in classes.
// live.DecodeCounts has already checked the multisets against the class
// lengths. Each check reads its arrays in order. That a listed row's
// array entry names its own class goes unchecked: a wrong one costs
// correctness, not safety, and checking it reads the array at random once
// per listed row, which on a 50K-row reopen cost more than the other
// checks together.
func checkRestored(tab *live.Table, n int) error {
	nc := int32(len(tab.Members))
	members := 0
	for t, ci := range tab.RowClass {
		if ci < -1 || ci >= nc {
			return fmt.Errorf("core: snapshot puts row %d in class %d of %d", t, ci, nc)
		}
		if ci >= 0 {
			members++
		}
	}
	for ci, class := range tab.Members {
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
		return fmt.Errorf("core: snapshot row→class array puts %d more rows in classes than the classes list", members)
	}
	return nil
}

// decodeMembers reads one dependency's member lists, written by
// AppendMonitorBody as class lengths plus one flat row array, and slices
// the array into the lists without copying; it returns the lengths too.
// Each list's capacity ends at its class, so the first append copies it
// instead of writing into the next class or the snapshot buffer. The
// result is non-nil even with no classes (a nil Members selects a table
// without member lists).
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
