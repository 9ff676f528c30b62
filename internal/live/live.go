// Package live is the shared live-index substrate under the incremental
// engines. core.Monitor and discovery.Maintainer group rows by antecedent
// the same way over the same relation, so they share one Table per
// distinct antecedent X, which core.Substrate holds and alone moves
// (Table.Apply, Append, Undo): X's integer-keyed class map with lone
// (singleton) rows folded into the id space, the row→class array, the
// class sizes, member lists while a monitored dependency reads them, and
// the last batch's move log. The substrate's state of each dependency
// X → A that either engine holds (core.DepState) keeps A's multisets on
// top of X's table, indexed by its class ids, and the substrate folds
// the move log into them once per batch (Fold; Unfold on a rollback).
// AppendCounts/DecodeCounts are the multisets' snapshot encoding.
//
// Everything here is single-writer, like the substrate built on it:
// mutating one Table, or one dependency's multisets, from two goroutines
// at once is a caller bug. Concurrent readers between mutations are fine.
package live

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// ValCount is one distinct consequent value of an equivalence class with
// its multiplicity. Classes keep their multisets as small slices in
// ascending value order: real classes have few distinct consequent values
// even when they span thousands of tuples, so a linear probe beats
// hashing, and the order makes a slice a function of its contents, so an
// undone batch restores it exactly.
type ValCount struct {
	Val relation.Value
	N   int32
}

// Bump adjusts v's multiplicity by delta, inserting a new value at its
// place in value order and dropping a pair whose count reaches zero.
// delta must not take a count negative — the engines adjust counts only
// from cell writes they performed, so multisets stay in sync by
// construction.
func Bump(pairs []ValCount, v relation.Value, delta int32) []ValCount {
	k := 0
	for k < len(pairs) && pairs[k].Val < v {
		k++
	}
	if k < len(pairs) && pairs[k].Val == v {
		if pairs[k].N += delta; pairs[k].N == 0 {
			pairs = slices.Delete(pairs, k, k+1)
		}
		return pairs
	}
	return slices.Insert(pairs, k, ValCount{v, delta})
}

// ClassCounts returns the multiset of col's values over rows in Bump's
// value order, reusing scratch. Each row probes the few distinct values
// seen so far, and a new value is swapped down to its place.
func ClassCounts(col *relation.Col, rows []int32, scratch []ValCount) []ValCount {
	scratch = scratch[:0]
	for _, t := range rows {
		v := col.At(int(t))
		k := 0
		for k < len(scratch) && scratch[k].Val != v {
			k++
		}
		if k == len(scratch) {
			scratch = append(scratch, ValCount{Val: v})
			for ; k > 0 && scratch[k-1].Val > v; k-- {
				scratch[k], scratch[k-1] = scratch[k-1], scratch[k]
			}
		}
		scratch[k].N++
	}
	return scratch
}

// Replace replaces one occurrence of from with to in a multiset — a
// consequent write's delta on its row's class. Replace(pairs, to, from)
// undoes it exactly.
func Replace(pairs []ValCount, from, to relation.Value) []ValCount {
	return Bump(Bump(pairs, from, -1), to, 1)
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

// AppendCounts encodes per-class consequent multisets as three bulk
// arrays: pairs per class, then the flattened values and multiplicities.
// The substrate's dependency states and the maintainer's witness
// certificates are written with it.
func AppendCounts(w *wire.Writer, counts [][]ValCount) {
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

// DecodeCounts is the inverse of AppendCounts, and fails closed on
// multisets no engine can run on: there must be one per class of sizes,
// every value must lie in the consequent's dictionary ([NullValue,
// dictSize)) with a positive count, each multiset's values must ascend,
// and class ci's counts must sum to sizes[ci]. The per-class pair slices
// are freshly allocated (Bump mutates and appends them); the bulk reads
// are zero-copy.
func DecodeCounts(r *wire.Reader, sizes []int32, dictSize int) ([][]ValCount, error) {
	lens := r.Int32s()
	vals := r.Int32s()
	ns := r.Int32s()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(lens) != len(sizes) || len(vals) != len(ns) {
		return nil, fmt.Errorf("live: snapshot holds %d multisets of %d values and %d counts for %d classes", len(lens), len(vals), len(ns), len(sizes))
	}
	counts := make([][]ValCount, len(lens))
	pos := 0
	for ci, l := range lens {
		n := int(l)
		if n < 0 || n > len(vals)-pos {
			return nil, fmt.Errorf("live: snapshot multiset of class %d has %d pairs with %d left", ci, n, len(vals)-pos)
		}
		pairs := make([]ValCount, n)
		size := 0
		for k := range pairs {
			v, c := relation.Value(vals[pos+k]), ns[pos+k]
			if c <= 0 || v < relation.NullValue || int(v) >= dictSize || (k > 0 && v <= pairs[k-1].Val) {
				return nil, fmt.Errorf("live: snapshot multiset of class %d holds value %d ×%d", ci, v, c)
			}
			pairs[k] = ValCount{Val: v, N: c}
			size += int(c)
		}
		if size != int(sizes[ci]) {
			return nil, fmt.Errorf("live: snapshot multiset of class %d counts %d of %d rows", ci, size, sizes[ci])
		}
		counts[ci] = pairs
		pos += n
	}
	if pos != len(vals) {
		return nil, fmt.Errorf("live: snapshot multisets list %d of %d pairs", pos, len(vals))
	}
	return counts, nil
}

// LoneRow encodes a singleton row id for a key index (<= -2, so it cannot
// collide with class ids >= 0 or the -1 "no class" marker). The inverse
// is -enc-2.
func LoneRow(t int32) int32 { return -(t + 2) }

// AppendKey appends the dict-encoded antecedent value tuple of row t
// (projected on cols) to buf and returns the extended buffer. Each
// attribute contributes exactly 4 little-endian bytes, so keys over the
// same attribute list are fixed-width and therefore prefix-free: two rows
// encode equal iff their antecedent value ids are equal attribute by
// attribute (dictionaries make equal strings id-equal). It is the one
// byte encoder of every engine: the keys of a Table whose lanes cannot
// fit 64 bits, and the maintainer's witness keys. The injectivity
// property test and fuzz targets pin it down, and the cross-engine key
// test checks the source-key encoding against it.
func AppendKey(buf []byte, rel *relation.Relation, cols []int, t int) []byte {
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rel.Value(t, c)))
	}
	return buf
}

// EncodeKey is AppendKey into buf[:0]: row t's key alone, reusing buf.
func EncodeKey(rel *relation.Relation, cols []int, t int, buf []byte) []byte {
	return AppendKey(buf[:0], rel, cols, t)
}
