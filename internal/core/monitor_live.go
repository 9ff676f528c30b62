package core

import (
	"context"
	"fmt"

	"github.com/fastofd/fastofd/internal/exec"
)

// This file is the monitor's live surface: registration of dependencies
// as a followed cover drifts, and absorption of the writes and appends
// the substrate has already applied. Every mutation — the monitor's own
// ApplyBatch and AppendRows, and the merged pipeline's — ends here, so
// reports remain byte-identical to a fresh Detect either way.

// Register adds dependency d to the monitored set and builds its live
// index state: routing, shard overlays, multisets, and violation records,
// exactly as construction would have. The new dependency's violations
// appear in the next published epoch.
func (m *Monitor) Register(d OFD) error {
	for _, e := range m.sigma {
		if e.LHS == d.LHS && e.RHS == d.RHS {
			return fmt.Errorf("core: dependency already monitored")
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
// index state and violation records. Epochs already
// published keep reporting it (snapshots are immutable); the next epoch
// no longer does.
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
	for _, sh := range m.shards {
		sh.idx = append(sh.idx[:at], sh.idx[at+1:]...)
		sh.viol = append(sh.viol[:at], sh.viol[at+1:]...)
		sh.fdOnly = append(sh.fdOnly[:at], sh.fdOnly[at+1:]...)
		sh.rebuildSnap()
	}
	m.publish()
	return nil
}

// Absorb folds everything the substrate changed since the monitor last
// absorbed into its live state and publishes one epoch. Its inputs are
// the rows appended since then (Substrate.Append) and the current write
// log (Substrate.Writes); Append clears the log, so one call sees new rows
// or writes, never both. Both run through the same three stages:
//
//   - monitor.route: every new row joins its class under every dependency
//     in ascending row order, and the joined class is marked dirty in its
//     shard. Dependencies whose antecedents the writes touched are
//     re-routed wholesale (their class structure changed); consequent
//     writes of the rest route to the shards owning their classes.
//   - monitor.apply: each active shard replays its multiset deltas and
//     re-verifies every dirty class once, shard-parallel.
//   - monitor.merge: the stale shard snapshots are rebuilt and one epoch
//     is published.
//
// The substrate already validated and applied the batch, so every
// resident cache entry describes the post-batch instance and absorption
// cannot fail; it is not cancellable — the batch's cancellation point lies
// before this call. Nothing new is a no-op that publishes nothing.
func (m *Monitor) Absorb() {
	writes := m.sub.Writes()
	t0, end := m.absorbed, m.rel.NumRows()
	if t0 == end && len(writes) == 0 {
		return
	}
	m.absorbed = end
	routeSpan := m.Stats.Span("monitor.route")
	routeSpan.Items(end - t0 + len(writes))
	w := exec.Workers(m.Workers)
	if t0 < end && m.needHydrate {
		m.hydrateIndexes()
	}
	for t := t0; t < end; t++ {
		m.joinRow(int32(t))
	}
	touched := Touched(writes)
	var reroute []int
	rerouted := make([]bool, len(m.sigma))
	for i, d := range m.sigma {
		if !d.LHS.Intersect(touched).IsEmpty() {
			rerouted[i] = true
			reroute = append(reroute, i)
		}
	}
	if len(reroute) > 0 {
		_ = exec.For(context.Background(), len(reroute), w, func(_, k int) {
			m.routeIndex(reroute[k])
		})
		_ = exec.For(context.Background(), m.nShards, w, func(_, s int) {
			for _, i := range reroute {
				m.shards[s].buildStateOFD(m, i)
			}
			m.snapDirty[s] = true
		})
	}
	// Route the consequent deltas of untouched-antecedent dependencies to
	// the shards owning their classes.
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
		if len(sh.dirty) > 0 {
			active = append(active, s)
		}
	}
	routeSpan.End()

	applySpan := m.Stats.Span("monitor.apply")
	applySpan.Workers(w)
	applySpan.Shards(len(active))
	_ = exec.For(context.Background(), len(active), w, func(_, k int) {
		s := active[k]
		n, changed := m.shards[s].applyBatch(m)
		applySpan.Items(n)
		if changed {
			m.snapDirty[s] = true
		}
	})
	applySpan.End()

	mergeSpan := m.Stats.Span("monitor.merge")
	mergeSpan.Workers(w)
	mergeSpan.Shards(m.publishDirty())
	mergeSpan.End()
}
