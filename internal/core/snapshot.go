package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// This file is the monitor's side of the snapshot format, plus the
// verifier tables AppendSubstrate writes. A monitor body captures exactly
// the state a rebuild would recompute from the instance — Σ, the per-OFD
// routing tables, each shard's overlay of the frozen base partitions,
// LHS-key indexes and consequent multisets — so reopening costs bulk array
// reads plus one multiset pass per class to re-materialize violation
// records, instead of partition construction and LHS-key hashing over
// every tuple.
//
// Two deliberately lazy pieces keep reopen latency proportional to the
// flagged state rather than the instance:
//
//   - LHS-key index maps are restored in frozen key/value array form and
//     hydrated into hash maps only if the monitor appends again (Report,
//     Update, and ApplyBatch never consult them).
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

// AppendLHSIndex encodes one LHS-key index (encoded fixed-width key →
// class id or lone-row entry) as concatenated key-sorted keys plus
// parallel values — the shared frozen form of monitor shard indexes and
// maintainer cover-tracker indexes.
func AppendLHSIndex(w *wire.Writer, idx map[string]int32, width int) {
	appendLHSIndex(w, idx, width)
}

// AppendMonitorBody encodes everything of m except its substrate — the
// pipeline snapshot writes the shared substrate once (AppendSubstrate) and
// then each engine's body. Restored-and-not-yet-hydrated
// index state re-encodes from its frozen form directly, so save → open →
// save round-trips without ever building the maps.
func AppendMonitorBody(w *wire.Writer, m *Monitor) {
	AppendSet(w, m.sigma)
	w.Int(m.nShards)
	w.Uvarint(m.epoch)
	for i := range m.sigma {
		w.Int32s(m.classOf[i])
		w.Uint8s(m.rowShard[i])
		// All shards hold mapped views of one shared base partition per
		// OFD; the overlay's base is the build-time snapshot (appended rows
		// live in the deltas), so it is serialized as-is, never recomputed.
		relation.AppendPartition(w, m.shards[0].idx[i].Part.Base())
	}
	for _, sh := range m.shards {
		for i := range m.sigma {
			ix := sh.idx[i]
			ov := ix.Part
			w.Int32s(ov.BaseMap())
			// Deltas are sparse: most classes never see an append.
			total := ov.NumClasses()
			w.Int(total)
			nonEmpty := 0
			for ci := 0; ci < total; ci++ {
				if len(ov.Delta(ci)) > 0 {
					nonEmpty++
				}
			}
			w.Int(nonEmpty)
			for ci := 0; ci < total; ci++ {
				if d := ov.Delta(ci); len(d) > 0 {
					w.Int(ci)
					w.Int32s(d)
				}
			}
			if ix.NeedsHydrate() {
				w.Int(len(ix.FrozenVals))
				w.Int(ix.Width())
				w.Blob(ix.FrozenKeys)
				w.Int32s(ix.FrozenVals)
			} else {
				appendLHSIndex(w, ix.Keys, ix.Width())
			}
			appendCounts(w, ix.Counts)
		}
	}
}

// appendLHSIndex encodes one LHS-key index as concatenated fixed-width
// keys plus parallel values, key-sorted so the encoding is deterministic.
func appendLHSIndex(w *wire.Writer, idx map[string]int32, width int) {
	w.Int(len(idx))
	w.Int(width)
	ordered := make([]string, 0, len(idx))
	for k := range idx {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	keys := make([]byte, 0, len(idx)*width)
	vals := make([]int32, 0, len(idx))
	for _, k := range ordered {
		keys = append(keys, k...)
		vals = append(vals, idx[k])
	}
	w.Blob(keys)
	w.Int32s(vals)
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
// functions of the restored multisets and overlays — so the first Report
// is byte-identical to the saved monitor's. workers and stats configure
// the restored monitor exactly as NewMonitor's parameters would.
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
	m.needHydrate = true
	bases := make([]*relation.Partition, len(sigma))
	for i := range sigma {
		m.classOf[i] = r.Int32s()
		m.rowShard[i] = r.Uint8s()
		bases[i] = relation.DecodePartition(r)
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
			baseMap := r.Int32s()
			total := r.Int()
			nonEmpty := r.Int()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if total < len(baseMap) || nonEmpty > total {
				return nil, fmt.Errorf("core: snapshot overlay class counts inconsistent (%d classes, %d base, %d non-empty deltas)", total, len(baseMap), nonEmpty)
			}
			deltas := make([][]int32, total)
			for k := 0; k < nonEmpty; k++ {
				ci := r.Int()
				d := r.Int32s()
				if r.Err() != nil {
					return nil, r.Err()
				}
				if ci < 0 || ci >= total {
					return nil, fmt.Errorf("core: snapshot overlay delta class %d out of range", ci)
				}
				deltas[ci] = d
			}
			ix := live.NewClassIndex(m.lhsCols[i], sigma[i].RHS)
			ix.Part = relation.RestoreOverlayShard(bases[i], baseMap, deltas)
			count := r.Int()
			width := r.Int()
			keys, vals := r.Blob(), r.Int32s()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if width != ix.Width() || len(vals) != count || len(keys) != count*width {
				return nil, fmt.Errorf("core: snapshot LHS index shape mismatch (count %d, width %d)", count, width)
			}
			ix.SetFrozen(keys, vals) // hydrated on first append
			ix.Counts = decodeCounts(r)
			if ix.Counts == nil || len(ix.Counts) != total {
				if r.Err() != nil {
					return nil, r.Err()
				}
				return nil, fmt.Errorf("core: snapshot multisets inconsistent with overlay classes")
			}
			sh.idx[i] = ix
		}
		m.shards[s] = sh
	}
	if r.Err() != nil {
		return nil, r.Err()
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

// hydrateIndexes materializes the LHS-key maps from their frozen snapshot
// form — called once, by the first append after a restore (the only
// operation that consults them). One shared string conversion per index
// keeps hydration to a map-insert pass: the map keys slice into that
// backing, so the whole index costs the map plus one slab allocation.
func (m *Monitor) hydrateIndexes() {
	_ = exec.For(context.Background(), m.nShards, exec.Workers(m.Workers), func(_, s int) {
		for _, ix := range m.shards[s].idx {
			if ix.NeedsHydrate() {
				ix.Hydrate()
			}
		}
	})
	m.needHydrate = false
}

// Relation returns the monitored relation.
func (m *Monitor) Relation() *relation.Relation { return m.rel }

// Ontology returns the monitor's ontology.
func (m *Monitor) Ontology() *ontology.Ontology { return m.v.Ontology() }

// Sigma returns the monitored dependency set (a fresh copy).
func (m *Monitor) Sigma() Set { return m.sigma.Clone() }
