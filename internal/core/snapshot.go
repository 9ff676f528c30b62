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
// state a rebuild would recompute from the instance — Σ, the per-OFD
// routing tables, each shard's class member lists and consequent
// multisets — so reopening costs bulk array reads plus one multiset pass
// per class to re-materialize violation records, instead of partition
// construction and LHS-key hashing over every tuple.
//
// Two deliberately lazy pieces keep reopen latency proportional to the
// flagged state rather than the instance:
//
//   - LHS-key maps are not saved: they hold nothing the routing tables
//     and the relation lack. Absorb rebuilds them (Monitor.restoreKeys)
//     when a batch first appends a row or writes an antecedent cell;
//     Report and consequent-only batches never consult them.
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
// then each engine's body. Each (shard, OFD) writes its classes' lengths
// and then their member lists back to back as one array, so every class
// is written once. No key map is written, so save → open → save
// round-trips without ever building one.
func AppendMonitorBody(w *wire.Writer, m *Monitor) {
	AppendSet(w, m.sigma)
	w.Int(m.nShards)
	w.Uvarint(m.epoch)
	for i := range m.sigma {
		w.Int32s(m.classOf[i])
		w.Uint8s(m.rowShard[i])
	}
	var lens, flat []int32
	for _, sh := range m.shards {
		for i := range m.sigma {
			ix := sh.idx[i]
			lens, flat = lens[:0], flat[:0]
			for _, l := range ix.Members {
				lens = append(lens, int32(len(l)))
				flat = append(flat, l...)
			}
			w.Int32s(lens)
			w.Int32s(flat)
			appendCounts(w, ix.Counts)
		}
	}
}

// appendCounts encodes one OFD's per-class consequent multisets as three
// bulk arrays: pairs-per-class, then the flattened values and
// multiplicities.
func appendCounts(w *wire.Writer, counts [][]live.ValCount) {
	lens := make([]int32, len(counts))
	total := 0
	for ci, pairs := range counts {
		lens[ci] = int32(len(pairs))
		total += len(pairs)
	}
	vals := make([]int32, 0, total)
	ns := make([]int32, 0, total)
	for _, pairs := range counts {
		for _, p := range pairs {
			vals = append(vals, int32(p.Val))
			ns = append(ns, p.N)
		}
	}
	w.Int32s(lens)
	w.Int32s(vals)
	w.Int32s(ns)
}

// decodeCounts is the inverse of appendCounts. The per-class pair slices
// are freshly allocated (bump mutates them in place and appends), but the
// three bulk reads are zero-copy, so the copy loop touches each pair once.
func decodeCounts(r *wire.Reader) [][]live.ValCount {
	lens := r.Int32s()
	vals := r.Int32s()
	ns := r.Int32s()
	if len(vals) != len(ns) {
		return nil
	}
	counts := make([][]live.ValCount, len(lens))
	pos := 0
	for ci, l := range lens {
		n := int(l)
		if n < 0 || pos+n > len(vals) {
			return nil
		}
		pairs := make([]live.ValCount, n)
		for k := 0; k < n; k++ {
			pairs[k] = live.ValCount{Val: relation.Value(vals[pos+k]), N: ns[pos+k]}
		}
		counts[ci] = pairs
		pos += n
	}
	return counts
}

// DecodeMonitorBody rebuilds a monitor over an already-decoded substrate
// (DecodeSubstrate) from a body written by AppendMonitorBody. Violation
// records are re-materialized shard-parallel — they are deterministic
// functions of the restored multisets and member lists — so the first
// Report is byte-identical to the saved monitor's. workers and stats
// configure the restored monitor exactly as NewMonitor's parameters would.
// The key maps stay nil until a batch needs them (Monitor.restoreKeys).
//
// The restored monitor takes ownership of the bytes r reads: the routing
// tables and member lists are views of them, and later antecedent moves
// rewrite the routing tables in place, so the caller must neither reuse
// nor modify them.
func DecodeMonitorBody(r *wire.Reader, sub *Substrate, workers int, stats *exec.Stats) (*Monitor, error) {
	rel := sub.Relation()
	sigma := DecodeSet(r)
	nShards := r.Int()
	epoch := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("core: snapshot shard count %d out of range", nShards)
	}
	w := exec.Workers(workers)
	span := stats.Span("monitor.restore")
	span.Workers(w)
	span.Shards(nShards)
	span.Items(len(sigma))
	defer span.End()
	for _, d := range sigma {
		if d.RHS < 0 || d.RHS >= rel.NumCols() {
			return nil, fmt.Errorf("core: snapshot OFD consequent %d out of range", d.RHS)
		}
	}
	m := newMonitor(sub, sigma, nShards, workers, stats)
	m.epoch = epoch
	m.needKeys = true
	for i := range sigma {
		m.classOf[i] = r.Int32s()
		m.rowShard[i] = r.Uint8s()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(m.classOf[i]) != rel.NumRows() || len(m.rowShard[i]) != rel.NumRows() {
			return nil, fmt.Errorf("core: snapshot routing tables sized for %d rows, relation has %d", len(m.classOf[i]), rel.NumRows())
		}
	}
	for s := range m.shards {
		sh := newMonitorShard(len(sigma))
		for i := range sigma {
			members, err := decodeMembers(r)
			if err != nil {
				return nil, err
			}
			ix := &live.ClassIndex{Cols: m.lhsCols[i], RHS: sigma[i].RHS, Members: members}
			ix.Counts = decodeCounts(r)
			if ix.Counts == nil || len(ix.Counts) != len(members) {
				if r.Err() != nil {
					return nil, r.Err()
				}
				return nil, fmt.Errorf("core: snapshot multisets inconsistent with the classes")
			}
			sh.idx[i] = ix
		}
		m.shards[s] = sh
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	errs := make([]error, len(sigma))
	_ = exec.For(context.Background(), len(sigma), w, func(_, i int) {
		errs[i] = m.checkRestored(i)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Re-materialize the violation records shard-parallel: the maintained
	// multiset answers OK/FD-only/violating per class without a tuple scan,
	// and only flagged classes pay explain().
	if err := exec.For(context.Background(), nShards, w, func(_, s int) {
		m.shards[s].restoreRecords(m)
	}); err != nil {
		return nil, err
	}
	m.publishInit()
	if m.epoch > 0 {
		// Keep the epoch counter continuous with the saved process: the
		// restored state is republished as the saved epoch, so ReportAt of
		// that epoch answers and the next mutation stamps epoch+1.
		hist := []*epochSnap{{epoch: m.epoch, shards: (*m.history.Load())[0].shards}}
		m.history.Store(&hist)
	}
	return m, nil
}

// checkRestored fails closed on restored tables of dependency i that no
// monitor can run on, before anything reads them: every row's shard is a
// shard and its class is -1 or a class of that shard; every class lists
// strictly ascending row ids, and the classes together list as many rows
// as the routing puts in classes; every multiset holds values of the
// consequent's dictionary with positive counts summing to its class's
// size. Each check reads its arrays in order. That a listed row's routing names its own
// shard and class goes unchecked: a wrong one costs correctness, not
// safety, and checking it reads the routing tables at random once per
// listed row, which on a 50K-row reopen cost more than the other checks
// together.
func (m *Monitor) checkRestored(i int) error {
	n := int32(m.rel.NumRows())
	classOf, rowShard := m.classOf[i], m.rowShard[i]
	ncs := make([]int32, m.nShards)
	for s, sh := range m.shards {
		ncs[s] = int32(len(sh.idx[i].Members))
	}
	members := 0
	for t, ci := range classOf {
		s := int(rowShard[t])
		if s >= len(ncs) || ci < -1 || ci >= ncs[s] {
			return fmt.Errorf("core: snapshot routes row %d to shard %d, class %d", t, s, ci)
		}
		if ci >= 0 {
			members++
		}
	}
	dictSize := relation.Value(m.rel.Dict(m.sigma[i].RHS).Size())
	for s, sh := range m.shards {
		ix := sh.idx[i]
		nc := ncs[s]
		for ci := int32(0); ci < nc; ci++ {
			size := 0
			for _, p := range ix.Counts[ci] {
				if p.N <= 0 || p.Val < relation.NullValue || p.Val >= dictSize {
					return fmt.Errorf("core: snapshot multiset of class %d holds value %d ×%d", ci, p.Val, p.N)
				}
				size += int(p.N)
			}
			class := ix.Members[ci]
			if size != len(class) {
				return fmt.Errorf("core: snapshot multiset of class %d counts %d of %d rows", ci, size, len(class))
			}
			members -= size
			prev := int32(-1)
			for _, t := range class {
				if t <= prev || t >= n {
					return fmt.Errorf("core: snapshot class %d of shard %d is not ascending row ids below %d", ci, s, n)
				}
				prev = t
			}
		}
	}
	if members != 0 {
		return fmt.Errorf("core: snapshot routing puts %d more rows in classes than the classes list", members)
	}
	return nil
}

// decodeMembers reads one (shard, OFD)'s member lists, written by
// AppendMonitorBody as class lengths plus one flat row array, and slices
// the array into the lists without copying. Each list's capacity ends at
// its class, so the first append copies it instead of writing into the
// next class or the snapshot buffer. The result is non-nil even with no
// classes (a nil Members selects size tracking).
func decodeMembers(r *wire.Reader) ([][]int32, error) {
	lens := r.Int32s()
	flat := r.Int32s()
	if r.Err() != nil {
		return nil, r.Err()
	}
	members := make([][]int32, len(lens))
	pos := 0
	for ci, l := range lens {
		n := int(l)
		if n < 0 || n > len(flat)-pos {
			return nil, fmt.Errorf("core: snapshot class %d has length %d with %d listed rows left", ci, n, len(flat)-pos)
		}
		members[ci] = flat[pos : pos+n : pos+n]
		pos += n
	}
	if pos != len(flat) {
		return nil, fmt.Errorf("core: snapshot classes list %d of %d rows", pos, len(flat))
	}
	return members, nil
}

// restoreRecords rebuilds the shard's violation and FD-only maps from the
// restored multisets — buildState minus the multiset construction pass.
func (sh *monitorShard) restoreRecords(m *Monitor) {
	for i := range m.sigma {
		sh.viol[i] = make(map[int32]*Violation)
		sh.fdOnly[i] = make(map[int32][]int32)
		for ci := range sh.idx[i].Counts {
			st := sh.classState(m, i, ci)
			if st == classOK {
				continue
			}
			v, fd := sh.materialize(m, i, int32(ci), st)
			if st == classViolating {
				sh.viol[i][int32(ci)] = v
			} else {
				sh.fdOnly[i][int32(ci)] = fd
			}
		}
	}
	sh.rebuildSnap()
}

// Relation returns the monitored relation.
func (m *Monitor) Relation() *relation.Relation { return m.rel }

// Ontology returns the monitor's ontology.
func (m *Monitor) Ontology() *ontology.Ontology { return m.v.Ontology() }

// Sigma returns the monitored dependency set (a fresh copy).
func (m *Monitor) Sigma() Set { return m.sigma.Clone() }
