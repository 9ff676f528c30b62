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
// dependency are appended to one blob, which becomes one string whose
// substrings are the map keys, and each shard's map is made at its key
// count, so the build allocates no string per key and never grows a map.
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
	nkeys := nc + n - base.Size()
	blob := make([]byte, 0, nkeys*width)
	keyShard := make([]uint8, 0, nkeys)
	keyVal := make([]int32, 0, nkeys)
	perShard := make([]int, m.nShards)
	key := func(t int) uint8 {
		blob = live.AppendKey(blob, m.rel, cols, t)
		s := shardOfKey(blob[len(blob)-width:], m.nShards)
		keyShard = append(keyShard, s)
		perShard[s]++
		return s
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
		keyVal = append(keyVal, local)
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
			keyVal = append(keyVal, live.LoneRow(int32(t)))
		}
	}

	for s, sh := range m.shards {
		sh.idx[i] = &live.ClassIndex{Cols: cols, RHS: d.RHS, Keys: make(map[string]int32, perShard[s]), Members: members[s]}
	}
	keys := string(blob)
	for k, s := range keyShard {
		m.shards[s].idx[i].Keys[keys[k*width:(k+1)*width]] = keyVal[k]
	}
	m.classOf[i] = classOf
	m.rowShard[i] = rowShard
}
