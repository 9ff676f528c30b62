package core

import (
	"github.com/fastofd/fastofd/internal/live"
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
// their shards when the dependency enters the monitor (NewMonitor,
// Register; writes move rows in place instead): every base class (keyed
// by its representative's antecedent values) and every singleton row is
// hashed to a shard, which records it in its LHS-key index. A shard's
// member list of a class is the cached base partition's class itself,
// which the list's copy-on-write rule never writes. All keys of the
// dependency go through one live.KeyBuild, so the build allocates no
// string per key and never grows a map.
// Iteration i writes only index-i slots of the per-shard slices and maps,
// so the monitor build fans routeIndex out over dependencies race-free.
func (m *Monitor) routeIndex(i int) {
	d := m.sigma[i]
	base := m.v.Partitions().Get(d.LHS)
	cols := d.LHS.Attrs()
	m.lhsCols[i] = cols
	width := 4 * len(cols)

	n := m.rel.NumRows()
	classOf := make([]int32, n)
	for t := range classOf {
		classOf[t] = -1
	}
	rowShard := make([]uint8, n)
	nc := base.NumClasses()
	kb := live.NewKeyBuild(width, nc+n-base.Size(), m.nShards)
	key := func(t int) uint8 {
		kb.Blob = live.AppendKey(kb.Blob, m.rel, cols, t)
		return shardOfKey(kb.Blob[len(kb.Blob)-width:], m.nShards)
	}

	// Route base classes: ascending base order per shard keeps local ids
	// canonical (first-appearance order within the shard).
	members := make([][][]int32, m.nShards)
	for s := range members {
		members[s] = [][]int32{} // non-nil: a nil Members tracks sizes instead
	}
	for ci := 0; ci < nc; ci++ {
		class := base.Class(ci)
		s := key(int(class[0]))
		local := int32(len(members[s]))
		members[s] = append(members[s], class)
		kb.Add(local, s)
		for _, t := range class {
			classOf[t] = local
			rowShard[t] = s
		}
	}
	// Route singleton rows: one lone-row index entry each. Two singletons
	// can never share a key — they would be one class — so entries never
	// clash.
	for t := 0; t < n; t++ {
		if classOf[t] < 0 {
			rowShard[t] = key(t)
			kb.Add(live.LoneRow(int32(t)), rowShard[t])
		}
	}

	idx := make([]*live.ClassIndex, m.nShards)
	for s, sh := range m.shards {
		idx[s] = &live.ClassIndex{Cols: cols, RHS: d.RHS, Members: members[s]}
		sh.idx[i] = idx[s]
	}
	kb.Intern(idx)
	m.classOf[i] = classOf
	m.rowShard[i] = rowShard
}
