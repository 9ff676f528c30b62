package core

import (
	"context"
	"fmt"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/relation"
)

// This file is the merged pipeline's monitor surface: construction over a
// shared verifier, live registration of dependencies as the discovered
// cover drifts, and absorption of writes the co-located maintainer has
// already validated, applied, and committed. Standalone monitoring keeps
// its own entry points (NewMonitor, Update, ApplyBatch, AppendRow);
// everything here reuses the same shard state and publish protocol, so
// reports remain byte-identical to a fresh Detect either way.

// NewMonitorLive builds a sharded monitor on an existing partition-cache-
// backed verifier — the pipeline's single verifier shared with the
// maintainer and the repair search — over the verifier's relation and
// ontology. Shards, workers and stats are as for NewMonitor. It relaxes
// the global LHS∩RHS disjointness requirement across dependencies, which
// a discovered cover routinely violates (chains like A→B, B→C).
// Single-cell Update stays guarded: writes touching any monitored
// antecedent are still rejected, because only AbsorbBatch knows how to
// re-route the affected dependencies.
func NewMonitorLive(ctx context.Context, v *Verifier, sigma Set, shards, workers int, stats *exec.Stats) (*Monitor, error) {
	return buildMonitor(ctx, v.Relation(), v.Ontology(), sigma, shards, workers, stats, v)
}

// Register adds dependency d to the monitored set and builds its live
// index state: routing, shard overlays, multisets, and violation records,
// exactly as construction would have. The new dependency's violations
// appear in the next published epoch. On a non-relaxed monitor the
// combined set must keep antecedents and consequents disjoint.
func (m *Monitor) Register(d OFD) error {
	for _, e := range m.sigma {
		if e.LHS == d.LHS && e.RHS == d.RHS {
			return fmt.Errorf("core: dependency already monitored")
		}
	}
	if !m.relaxed {
		var rhs relation.AttrSet
		for _, e := range m.sigma {
			rhs = rhs.With(e.RHS)
		}
		rhs = rhs.With(d.RHS)
		if inter := m.lhsAttrs.Union(d.LHS).Intersect(rhs); !inter.IsEmpty() {
			return fmt.Errorf("core: monitor requires disjoint antecedents and consequents; %s overlaps", inter.Format(m.rel.Schema()))
		}
	}
	i := len(m.sigma)
	m.sigma = append(m.sigma, d)
	m.lhsCols = append(m.lhsCols, nil)
	m.classOf = append(m.classOf, nil)
	m.rowShard = append(m.rowShard, nil)
	m.byRHS[d.RHS] = append(m.byRHS[d.RHS], int32(i))
	for _, sh := range m.shards {
		sh.idx = append(sh.idx, nil)
		sh.viol = append(sh.viol, nil)
		sh.fdOnly = append(sh.fdOnly, nil)
	}
	m.lhsAttrs = m.lhsAttrs.Union(d.LHS)
	m.routeIndex(i)
	w := exec.Workers(m.Workers)
	_ = exec.For(context.Background(), m.nShards, w, func(_, s int) {
		m.shards[s].buildStateOFD(m, i)
		m.shards[s].rebuildSnap()
	})
	m.publish()
	return nil
}

// Unregister removes dependency d from the monitored set, dropping its
// index state and violation records. Epochs already published keep
// reporting it (snapshots are immutable); the next epoch no longer does.
func (m *Monitor) Unregister(d OFD) error {
	at := -1
	for i, e := range m.sigma {
		if e.LHS == d.LHS && e.RHS == d.RHS {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("core: dependency not monitored")
	}
	m.sigma = append(m.sigma[:at], m.sigma[at+1:]...)
	m.lhsCols = append(m.lhsCols[:at], m.lhsCols[at+1:]...)
	m.classOf = append(m.classOf[:at], m.classOf[at+1:]...)
	m.rowShard = append(m.rowShard[:at], m.rowShard[at+1:]...)
	for c := range m.byRHS {
		m.byRHS[c] = m.byRHS[c][:0]
	}
	for i, e := range m.sigma {
		m.byRHS[e.RHS] = append(m.byRHS[e.RHS], int32(i))
	}
	m.lhsAttrs = 0
	for _, e := range m.sigma {
		m.lhsAttrs = m.lhsAttrs.Union(e.LHS)
	}
	for _, sh := range m.shards {
		sh.idx = append(sh.idx[:at], sh.idx[at+1:]...)
		sh.viol = append(sh.viol[:at], sh.viol[at+1:]...)
		sh.fdOnly = append(sh.fdOnly[:at], sh.fdOnly[at+1:]...)
		sh.rebuildSnap()
	}
	m.publish()
	return nil
}

// AbsorbBatch folds a batch of already-applied cell writes into the
// monitor's live state: the maintainer validated, deduplicated, applied,
// and committed them (writes carry the pre-batch values), so absorption
// cannot fail and is not cancellable — the pipeline's atomicity boundary
// is the maintainer's verify, before this call. Dependencies whose
// antecedents were touched are re-routed wholesale (their class structure
// changed); the rest absorb the consequent deltas exactly as
// ApplyBatch's apply stage would, and one epoch is published.
func (m *Monitor) AbsorbBatch(writes []CellWrite) {
	m.absorbBatch(writes, true)
}

// AbsorbBatchPrewarmed is AbsorbBatch for a monitor sharing its partition
// cache with the engine that applied the writes: the writer already
// evicted every rewritten attribute set at apply time, so all resident
// entries describe the post-batch instance — including any the writer's
// own verification re-warmed — and evicting them again would recompute
// partitions that are already current. The merged pipeline calls this;
// a monitor on a private cache must use AbsorbBatch, whose eviction is
// what keeps its pre-batch entries from being served.
func (m *Monitor) AbsorbBatchPrewarmed(writes []CellWrite) {
	m.absorbBatch(writes, false)
}

func (m *Monitor) absorbBatch(writes []CellWrite, invalidate bool) {
	if len(writes) == 0 {
		return
	}
	if m.needHydrate {
		m.hydrateIndexes()
	}
	var touched relation.AttrSet
	for _, wr := range writes {
		touched = touched.With(wr.Col)
	}
	var reroute []int
	rerouted := make([]bool, len(m.sigma))
	for i, d := range m.sigma {
		if !d.LHS.Intersect(touched).IsEmpty() {
			rerouted[i] = true
			reroute = append(reroute, i)
		}
	}
	w := exec.Workers(m.Workers)
	if len(reroute) > 0 {
		// The cached base partitions of touched attribute sets are stale;
		// evict them so the fresh routing computes over current values
		// (skipped on a shared, already-invalidated cache — see
		// AbsorbBatchPrewarmed).
		if invalidate {
			m.v.Partitions().InvalidateTouched(touched)
		}
		_ = exec.For(context.Background(), len(reroute), w, func(_, k int) {
			m.routeIndex(reroute[k])
		})
		_ = exec.For(context.Background(), m.nShards, w, func(_, s int) {
			for _, i := range reroute {
				m.shards[s].buildStateOFD(m, i)
			}
			m.shards[s].rebuildSnap()
		})
	}
	// Route the consequent deltas of untouched-antecedent dependencies.
	for _, wr := range writes {
		for _, i := range m.byRHS[wr.Col] {
			if rerouted[i] {
				continue
			}
			ci := m.classOf[i][wr.Row]
			if ci < 0 {
				continue
			}
			sh := m.shards[m.rowShard[i][wr.Row]]
			sh.bumps = append(sh.bumps, shardBump{ofd: i, class: ci, from: wr.Old, to: wr.New})
			sh.dirty = append(sh.dirty, int64(i)<<32|int64(uint32(ci)))
		}
	}
	var active []int
	for s, sh := range m.shards {
		if len(sh.bumps) > 0 || len(sh.dirty) > 0 {
			active = append(active, s)
		}
	}
	if len(active) > 0 {
		_ = exec.For(context.Background(), len(active), w, func(_, k int) {
			sh := m.shards[active[k]]
			sh.applyBatch(m)
			sh.commitBatch()
		})
	}
	m.publish()
}

// AbsorbAppends joins rows [t0, NumRows()) — already appended to the
// relation by the co-located maintainer — under every dependency and
// publishes one epoch for the whole batch.
func (m *Monitor) AbsorbAppends(t0 int) {
	end := m.rel.NumRows()
	if t0 >= end {
		return
	}
	if m.needHydrate {
		m.hydrateIndexes()
	}
	for t := t0; t < end; t++ {
		m.absorbRow(int32(t))
	}
	m.refreshSnaps()
	m.publish()
}

// Verifier returns the monitor's verifier (shared across the pipeline's
// engines when built with NewMonitorLive).
func (m *Monitor) Verifier() *Verifier { return m.v }

// Relax waives the global LHS∩RHS disjointness requirement for future
// Register calls, matching NewMonitorLive-built monitors — the pipeline
// restore path calls it on a freshly decoded monitor. Single-cell Update
// stays guarded regardless.
func (m *Monitor) Relax() { m.relaxed = true }
