package core

import (
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// shardOfKey hashes an encoded LHS key to its owning shard: FNV-1a over
// the key bytes, finished with an avalanche mix so dictionary ids that
// differ only in low bits still spread across shards.
func shardOfKey(key []byte, nShards int) uint8 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint8(h % uint64(nShards))
}

// routeIndex routes dependency i's equivalence classes and lone rows to
// their shards: every base class (keyed by its representative's
// antecedent values) and every singleton row is hashed to a shard, which
// records it in its LHS-key index and receives a mapped overlay view of
// the shared base partition. Iteration i writes only index-i slots of the
// per-shard slices and maps, so the monitor build fans routeIndex out
// over dependencies race-free.
func (m *Monitor) routeIndex(i int) {
	d := m.sigma[i]
	base := m.v.Partitions().Get(d.LHS)
	m.lhsCols[i] = d.LHS.Attrs()

	for s := range m.shards {
		m.shards[s].idx[i] = live.NewClassIndex(m.lhsCols[i], d.RHS)
	}

	n := m.rel.NumRows()
	classOf := make([]int32, n)
	for t := range classOf {
		classOf[t] = -1
	}
	rowShard := make([]uint8, n)

	// Route base classes: ascending base order per shard keeps local ids
	// canonical (first-appearance order within the shard).
	owned := make([][]int32, m.nShards)
	var buf []byte
	for ci := 0; ci < base.NumClasses(); ci++ {
		class := base.Class(ci)
		buf = live.EncodeKey(m.rel, m.lhsCols[i], int(class[0]), buf)
		s := shardOfKey(buf, m.nShards)
		local := int32(len(owned[s]))
		owned[s] = append(owned[s], int32(ci))
		m.shards[s].idx[i].Keys[string(buf)] = local
		for _, t := range class {
			classOf[t] = local
			rowShard[t] = s
		}
	}
	for s := range m.shards {
		m.shards[s].idx[i].Part = relation.NewPartitionOverlayShard(base, owned[s])
	}

	// Route singleton rows: one lone-row index entry each. Two singletons
	// can never share a key — they would be one class — so entries never
	// clash.
	for t := 0; t < n; t++ {
		if classOf[t] >= 0 {
			continue
		}
		buf = live.EncodeKey(m.rel, m.lhsCols[i], t, buf)
		s := shardOfKey(buf, m.nShards)
		m.shards[s].idx[i].Keys[string(buf)] = live.LoneRow(int32(t))
		rowShard[t] = s
	}

	m.classOf[i] = classOf
	m.rowShard[i] = rowShard
}
