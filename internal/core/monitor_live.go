package core

import (
	"context"
	"fmt"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// This file is the monitor's live surface: registration of dependencies
// as a followed cover drifts, and absorption of the writes and appends
// the substrate has already applied. Every mutation — the monitor's own
// ApplyBatch and AppendRows, and the merged pipeline's — ends here, so
// reports remain byte-identical to a fresh Detect either way.

// Register adds dependency d to the monitored set and builds its live
// index state: routing, member lists, multisets, and violation records,
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
//     shard. A written row whose antecedent under a dependency changed is
//     routed as a move: a leave to the shard owning its source-state key
//     and a join to the shard owning its target-state key. Consequent
//     writes of rows that stay in their class route to the shards owning
//     those classes.
//   - monitor.apply: each active shard runs its leaves, then its joins,
//     then its multiset deltas, and re-verifies every dirty class once,
//     shard-parallel.
//   - monitor.merge: the stale shard snapshots are rebuilt and one epoch
//     is published.
//
// The substrate already validated and applied the batch, so absorption
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
	touched := Touched(writes)
	if m.needKeys && (t0 < end || m.movesRows(touched)) {
		m.restoreKeys(writes)
	}
	m.routeMoves(writes, touched)
	for t := t0; t < end; t++ {
		m.joinRow(int32(t))
	}
	// Route the consequent deltas of rows that stay in their classes; a
	// moved row's class is -1 until its join lands, and its join counts
	// its new consequent.
	for _, wr := range writes {
		for _, i := range m.byRHS[wr.Col] {
			ci := m.classOf[i][wr.Row]
			if ci < 0 {
				continue
			}
			sh := m.shards[m.rowShard[i][wr.Row]]
			sh.bumps = append(sh.bumps, shardBump{ofd: i, class: ci, from: wr.Old, to: wr.New})
			sh.dirty = append(sh.dirty, dirtyKey(i, ci))
		}
	}
	var active []int
	for s, sh := range m.shards {
		if len(sh.dirty) > 0 || len(sh.leaves) > 0 || len(sh.joins) > 0 {
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

// movesRows reports whether writes to the columns touched move a row
// under some dependency.
func (m *Monitor) movesRows(touched relation.AttrSet) bool {
	for _, d := range m.sigma {
		if !d.LHS.Intersect(touched).IsEmpty() {
			return true
		}
	}
	return false
}

// restoreKeys rebuilds the key maps of every dependency restored without
// them (DecodeMonitorBody saves none) from its routing tables
// (live.IndexKeys). Absorb runs it before routeMoves rewrites the tables,
// which then still describe the batch's source state. The relation
// already holds the writes, so a written row's key is encoded from the
// log's Old values (AppendSourceKey), found by a cursor: the log and
// IndexKeys's requests both ascend by row.
func (m *Monitor) restoreKeys(writes []CellWrite) {
	_ = exec.For(context.Background(), len(m.sigma), exec.Workers(m.Workers), func(_, i int) {
		if m.shards[0].idx[i].Keys != nil {
			return // registered after the restore
		}
		idx := make([]*live.ClassIndex, m.nShards)
		for s, sh := range m.shards {
			idx[s] = sh.idx[i]
		}
		cols, lo := m.lhsCols[i], 0
		live.IndexKeys(idx, m.classOf[i], m.rowShard[i], func(blob []byte, t int) []byte {
			for lo < len(writes) && writes[lo].Row < t {
				lo++
			}
			hi := lo
			for hi < len(writes) && writes[hi].Row == t {
				hi++
			}
			return AppendSourceKey(blob, m.rel, cols, writes[lo:hi], t)
		})
	})
	m.needKeys = false
}

// routeMoves routes the write log's antecedent moves. For every
// dependency whose antecedent a written row changed, the row's leave goes
// to the shard owning its source-state key, with its pre-batch class (or
// -1 for a lone row), its pre-batch consequent and that key, built from
// the log's Old values. Its join goes to the shard owning its
// target-state key. The row's routing entry then names the new shard and
// no class until the join lands. touched is Touched(writes).
func (m *Monitor) routeMoves(writes []CellWrite, touched relation.AttrSet) {
	for i, d := range m.sigma {
		if d.LHS.Intersect(touched).IsEmpty() {
			continue
		}
		i32, cols := int32(i), m.lhsCols[i]
		for lo := 0; lo < len(writes); {
			t := writes[lo].Row
			hi := lo + 1
			for hi < len(writes) && writes[hi].Row == t {
				hi++
			}
			seg := writes[lo:hi]
			lo = hi
			xChanged, preA := false, m.rel.Value(t, d.RHS)
			for _, wr := range seg {
				if d.LHS.Has(wr.Col) {
					xChanged = true
				}
				if wr.Col == d.RHS {
					preA = wr.Old
				}
			}
			if !xChanged {
				continue
			}
			from := m.shards[m.rowShard[i][t]]
			from.leaves = append(from.leaves, shardMove{ofd: i32, row: int32(t), class: m.classOf[i][t], preA: preA, key: int32(len(from.moveKeys))})
			from.moveKeys = AppendSourceKey(from.moveKeys, m.rel, cols, seg, t)
			m.keyBuf = live.EncodeKey(m.rel, cols, t, m.keyBuf)
			s := shardOfKey(m.keyBuf, m.nShards)
			to := m.shards[s]
			to.joins = append(to.joins, shardMove{ofd: i32, row: int32(t), key: int32(len(to.moveKeys))})
			to.moveKeys = append(to.moveKeys, m.keyBuf...)
			m.rowShard[i][t] = s
			m.classOf[i][t] = -1
		}
	}
}
