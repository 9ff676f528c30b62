// Package live is the shared live-index substrate under the incremental
// engines. core.Monitor's shards and discovery.Maintainer's trackers
// maintain the same three structures over the same relation — a
// dict-encoded LHS-key hash index with lone (singleton) rows folded into
// the id space, per-class consequent value multisets kept as small
// linear-probed slices, and a relation.PartitionOverlay absorbing
// appended tuples. Before this package each engine carried its own copy
// of that machinery (monitor_shard.go's valCount/bump/loneRow,
// tracker.go's vc/bumpVC/lone); ClassIndex owns it once.
//
// Everything here is single-writer, like the engines built on it:
// mutating one ClassIndex from two goroutines at once is a caller bug.
// Concurrent readers between mutations are fine.
package live

import (
	"github.com/fastofd/fastofd/internal/relation"
)

// ValCount is one distinct consequent value of an equivalence class with
// its multiplicity. Classes keep their multisets as small linear-probed
// slices: real classes have a handful of distinct consequent values even
// when they span thousands of tuples, so probing beats hashing.
type ValCount struct {
	Val relation.Value
	N   int32
}

// Bump adjusts v's multiplicity by delta, dropping the entry when it
// reaches zero (swap-remove, order is not meaningful). delta must not
// take a count negative — the engines adjust counts only from cell writes
// they performed, so multisets stay in sync by construction.
func Bump(pairs []ValCount, v relation.Value, delta int32) []ValCount {
	for k := range pairs {
		if pairs[k].Val == v {
			pairs[k].N += delta
			if pairs[k].N == 0 {
				pairs[k] = pairs[len(pairs)-1]
				pairs = pairs[:len(pairs)-1]
			}
			return pairs
		}
	}
	return append(pairs, ValCount{v, delta})
}

// Distinct appends the multiset's distinct values to scratch[:0] and
// returns it — the argument list re-verification hands to
// Verifier.ValuesSatisfied.
func Distinct(pairs []ValCount, scratch []relation.Value) []relation.Value {
	scratch = scratch[:0]
	for _, p := range pairs {
		scratch = append(scratch, p.Val)
	}
	return scratch
}

// LoneRow encodes a singleton row id for a key index (<= -2, so it cannot
// collide with class ids >= 0 or the -1 "no class" marker). The inverse
// is -enc-2.
func LoneRow(t int32) int32 { return -(t + 2) }

// EncodeKey appends the dict-encoded antecedent value tuple of row t
// (projected on cols) to buf[:0] and returns it. Each attribute
// contributes exactly 4 little-endian bytes, so keys over the same
// attribute list are fixed-width and therefore prefix-free: two rows
// encode equal iff their antecedent value ids are equal attribute by
// attribute (dictionaries make equal strings id-equal). It is the one
// key encoder of every engine: the monitor's shard routing, the class
// indexes and the cover trackers. The injectivity
// property test and fuzz targets pin it down, and the cross-engine key
// test checks the tracker's source-key encoding against it.
func EncodeKey(rel *relation.Relation, cols []int, t int, buf []byte) []byte {
	buf = buf[:0]
	for _, c := range cols {
		v := rel.Value(t, c)
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}
