package core

import (
	"sync"
	"sync/atomic"

	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// colNames is one column's names(v) table. The table is published through
// an atomic pointer so the hot lookup path is a single load plus a slice
// index; values interned after construction (repairs, monitored updates,
// appends) are folded in by a copy-on-write extension under the mutex, so
// every post-build value pays the ontology string lookup exactly once and
// hits the memoized table on the second probe. The table is monotone: it
// only ever grows, and published prefixes are immutable.
type colNames struct {
	mu  sync.Mutex
	tbl atomic.Pointer[[][]ontology.ClassID]
}

// Verifier checks candidate synonym OFDs against a relation instance and an
// ontology. It precomputes, per attribute, the names(v) lookup for every
// dictionary-encoded value so that verification is linear in the number of
// tuples (paper §4.3): for each equivalence class of the stripped partition
// Π*_X it maintains a hash table of sense frequencies and tests whether
// some sense covers every distinct consequent value.
type Verifier struct {
	rel   *relation.Relation
	ont   *ontology.Ontology
	pc    *relation.PartitionCache
	names []colNames // names[col] tables: names[col][valueID] = classes containing the value
	// covered[col] reports whether ANY value of the column appears in the
	// ontology. For uncovered columns synonym semantics degenerate to
	// syntactic equality, enabling the O(|Π|) partition-error test instead
	// of per-class scans — most attributes of a real schema (keys, counts,
	// free text) are uncovered, so this carries most of the verification.
	// Atomic because names-table extension may flip it concurrently with
	// readers; it is monotone (false → true only).
	covered []atomic.Bool
}

// NewVerifier builds a verifier over the relation and ontology, sharing the
// given partition cache (pass nil to create a private one).
func NewVerifier(rel *relation.Relation, ont *ontology.Ontology, pc *relation.PartitionCache) *Verifier {
	if pc == nil {
		pc = relation.NewPartitionCache(rel)
	}
	v := &Verifier{
		rel:     rel,
		ont:     ont,
		pc:      pc,
		names:   make([]colNames, rel.NumCols()),
		covered: make([]atomic.Bool, rel.NumCols()),
	}
	for c := 0; c < rel.NumCols(); c++ {
		dict := rel.Dict(c)
		tbl := make([][]ontology.ClassID, dict.Size())
		for id := 0; id < dict.Size(); id++ {
			tbl[id] = ont.Names(dict.String(relation.Value(id)))
			if len(tbl[id]) > 0 {
				v.covered[c].Store(true)
			}
		}
		v.names[c].tbl.Store(&tbl)
	}
	return v
}

// Relation returns the verified relation.
func (v *Verifier) Relation() *relation.Relation { return v.rel }

// Ontology returns the verifier's ontology.
func (v *Verifier) Ontology() *ontology.Ontology { return v.ont }

// Partitions returns the shared partition cache.
func (v *Verifier) Partitions() *relation.PartitionCache { return v.pc }

// namesOf returns names(t[col]). Values interned after the verifier was
// built (repairs, monitored updates, appends) extend the memoized table on
// first probe instead of re-resolving through the dictionary and ontology
// on every class scan. Safe for concurrent use.
func (v *Verifier) namesOf(col int, val relation.Value) []ontology.ClassID {
	cn := &v.names[col]
	tbl := *cn.tbl.Load()
	if int(val) < len(tbl) {
		return tbl[val]
	}
	return v.extendNames(col, val)
}

// extendNames is namesOf's slow path: grow column col's table to the
// dictionary's current size (resolving every not-yet-seen value through the
// ontology once), publish it, and answer the probe from the new table. The
// copy-on-write extension keeps concurrent readers lock-free.
func (v *Verifier) extendNames(col int, val relation.Value) []ontology.ClassID {
	cn := &v.names[col]
	cn.mu.Lock()
	defer cn.mu.Unlock()
	tbl := *cn.tbl.Load()
	if int(val) < len(tbl) {
		return tbl[val] // another goroutine extended past val already
	}
	dict := v.rel.Dict(col)
	n := dict.Size()
	if int(val) >= n {
		// Not a value of this column's dictionary; resolve without caching.
		return v.ont.Names(dict.String(val))
	}
	grown := make([][]ontology.ClassID, n)
	copy(grown, tbl)
	for id := len(tbl); id < n; id++ {
		names := v.ont.Names(dict.String(relation.Value(id)))
		grown[id] = names
		if len(names) > 0 {
			v.covered[col].Store(true)
		}
	}
	cn.tbl.Store(&grown)
	return grown[val]
}

// namesTableLen reports how many value ids of column col are currently
// memoized (test hook for the extend-on-intern contract).
func (v *Verifier) namesTableLen(col int) int {
	return len(*v.names[col].tbl.Load())
}

// Scratch capacities for the allocation-free small-class fast paths in
// classSatisfied and classBestCoverage. Classes exceeding them fall back
// to map-based counting; real instances hit the stack path almost always
// (classes with more than a couple dozen *distinct* consequent values are
// rare even when the classes themselves are large).
const (
	smallDistinct = 24 // distinct consequent values held on the stack
	smallSenses   = 48 // distinct senses held on the stack
)

// classSatisfied reports whether one equivalence class satisfies X →_syn A
// (Definition 1): either all A-values are syntactically equal (an OFD
// subsumes the FD case), or the intersection of names(a) over the distinct
// A-values is non-empty.
//
// The verifier is shared across discovery workers, so scratch space lives
// on the stack (fixed-size arrays) rather than on the receiver.
func (v *Verifier) classSatisfied(class []int32, rhs int) bool {
	col := v.rel.Column(rhs)
	first := col.At(int(class[0]))
	allEqual := true
	for _, t := range class[1:] {
		if col.At(int(t)) != first {
			allEqual = false
			break
		}
	}
	if allEqual {
		return true
	}
	// Gather distinct consequent values by linear probe of a stack array.
	var valArr [smallDistinct]relation.Value
	distinct := valArr[:0]
gather:
	for _, t := range class {
		val := col.At(int(t))
		for _, seen := range distinct {
			if seen == val {
				continue gather
			}
		}
		if len(distinct) == smallDistinct {
			return v.classSatisfiedSlow(class, rhs)
		}
		distinct = append(distinct, val)
	}
	return v.valuesSatisfied(rhs, distinct)
}

// valuesSatisfied reports whether some sense covers every one of the given
// distinct consequent values — the class-size-independent core of
// classSatisfied, shared with the incremental monitor (which maintains the
// distinct values per class and so never rescans tuples). vals must be
// distinct and non-empty; a single value is trivially satisfied.
func (v *Verifier) valuesSatisfied(rhs int, vals []relation.Value) bool {
	if len(vals) <= 1 {
		return true
	}
	if len(vals) > smallDistinct {
		return v.valuesSatisfiedSlow(rhs, vals)
	}
	// Sense-frequency count: over distinct values, how many values each
	// class (sense) covers; a sense covering all of them is a common
	// interpretation. Senses per value are few, so linear probing beats a
	// hash map and allocates nothing.
	var idArr [smallSenses]ontology.ClassID
	var ctArr [smallSenses]int32
	ids, cts := idArr[:0], ctArr[:0]
	need := int32(len(vals))
	for _, val := range vals {
		for _, cls := range v.namesOf(rhs, val) {
			j := -1
			for k, id := range ids {
				if id == cls {
					j = k
					break
				}
			}
			if j < 0 {
				if len(ids) == smallSenses {
					return v.valuesSatisfiedSlow(rhs, vals)
				}
				ids = append(ids, cls)
				cts = append(cts, 1)
				continue
			}
			cts[j]++
			if cts[j] == need {
				return true
			}
		}
	}
	return false
}

// ValuesSatisfied is the exported form of valuesSatisfied, the
// class-size-independent verification core: it reports whether some sense
// covers every one of the given distinct consequent values of column rhs
// (or there is at most one value). Callers that maintain per-class
// distinct-value multisets — the incremental monitor and the discovery
// maintainer — re-verify a class in O(distinct values) through it without
// rescanning tuples. vals must be distinct; order is irrelevant.
func (v *Verifier) ValuesSatisfied(rhs int, vals []relation.Value) bool {
	return v.valuesSatisfied(rhs, vals)
}

// valuesSatisfiedSlow is the map-based fallback of valuesSatisfied for
// value or sense sets that overflow the stack scratch.
func (v *Verifier) valuesSatisfiedSlow(rhs int, vals []relation.Value) bool {
	counts := make(map[ontology.ClassID]int, 8)
	need := len(vals)
	for _, val := range vals {
		for _, cls := range v.namesOf(rhs, val) {
			counts[cls]++
			if counts[cls] == need {
				return true
			}
		}
	}
	return false
}

// classSatisfiedSlow is the fallback of classSatisfied for classes whose
// distinct values overflow the stack scratch.
func (v *Verifier) classSatisfiedSlow(class []int32, rhs int) bool {
	col := v.rel.Column(rhs)
	seen := make(map[relation.Value]struct{}, 32)
	vals := make([]relation.Value, 0, 32)
	for _, t := range class {
		if _, ok := seen[col.At(int(t))]; ok {
			continue
		}
		seen[col.At(int(t))] = struct{}{}
		vals = append(vals, col.At(int(t)))
	}
	return v.valuesSatisfiedSlow(rhs, vals)
}

// HoldsSyn reports whether the synonym OFD X →_syn A holds exactly on the
// instance: every equivalence class of Π*_X has a common interpretation.
// For consequents with no ontology coverage this is exactly the FD test.
func (v *Verifier) HoldsSyn(d OFD) bool {
	if d.Trivial() {
		return true
	}
	if !v.covered[d.RHS].Load() {
		return v.HoldsFD(d)
	}
	p := v.pc.Get(d.LHS)
	for i := 0; i < p.NumClasses(); i++ {
		if !v.classSatisfied(p.Class(i), d.RHS) {
			return false
		}
	}
	return true
}

// HoldsSynOnePass is HoldsSyn computed from the antecedent partition
// alone. For uncovered consequents HoldsSyn delegates to HoldsFD's
// partition-error comparison, which materializes Π*_{X∪A}; here the FD
// test instead walks the classes of Π*_X checking that each agrees on
// the dict-encoded consequent — the same cost as the product it avoids,
// with no second partition built or cached. Covered consequents run the
// per-class sense test over the same fetch. buf is caller-supplied scratch
// for any partition products a cache miss needs (hot repair loops hold one
// per worker; nil falls back to transient scratch). The lattice keeps
// HoldsSyn (its level ordering reuses Π*_{X∪A} as a next-level node);
// callers probing scattered nodes — the maintainer's repair regions — use
// this.
func (v *Verifier) HoldsSynOnePass(d OFD, buf *relation.ProductBuffer) bool {
	if d.Trivial() {
		return true
	}
	p := v.pc.GetWith(d.LHS, buf)
	if v.covered[d.RHS].Load() {
		for i := 0; i < p.NumClasses(); i++ {
			if !v.classSatisfied(p.Class(i), d.RHS) {
				return false
			}
		}
		return true
	}
	col := v.rel.Column(d.RHS)
	for i := 0; i < p.NumClasses(); i++ {
		class := p.Class(i)
		first := col.At(int(class[0]))
		for _, t := range class[1:] {
			if col.At(int(t)) != first {
				return false
			}
		}
	}
	return true
}

// HoldsFD reports whether the traditional FD X → A holds (syntactic
// equality), used by the Opt-4 pruning rule and by the FD baselines.
// It uses TANE's partition-error comparison e(X) = e(X ∪ A), which is
// O(|Π|) given cached partitions.
func (v *Verifier) HoldsFD(d OFD) bool {
	if d.Trivial() {
		return true
	}
	return v.pc.Get(d.LHS).Error() == v.pc.Get(d.LHS.With(d.RHS)).Error()
}

// classBestCoverage returns the maximum number of tuples in the class whose
// A-value is covered by a single interpretation: the most frequent sense by
// tuple coverage, or the most frequent single value, whichever is larger.
// This is the quantity the paper's approximate-OFD verification sums.
// Like classSatisfied it counts in stack scratch for small classes.
func (v *Verifier) classBestCoverage(class []int32, rhs int) int {
	col := v.rel.Column(rhs)
	var valArr [smallDistinct]relation.Value
	var vcArr [smallDistinct]int32
	vals, vcs := valArr[:0], vcArr[:0]
count:
	for _, t := range class {
		val := col.At(int(t))
		for k, seen := range vals {
			if seen == val {
				vcs[k]++
				continue count
			}
		}
		if len(vals) == smallDistinct {
			return v.classBestCoverageSlow(class, rhs)
		}
		vals = append(vals, val)
		vcs = append(vcs, 1)
	}
	best := int32(0)
	for _, c := range vcs {
		if c > best {
			best = c // best single literal value
		}
	}
	var idArr [smallSenses]ontology.ClassID
	var coverArr [smallSenses]int32
	ids, cover := idArr[:0], coverArr[:0]
	for k, val := range vals {
		for _, cls := range v.namesOf(rhs, val) {
			j := -1
			for i, id := range ids {
				if id == cls {
					j = i
					break
				}
			}
			if j < 0 {
				if len(ids) == smallSenses {
					return v.classBestCoverageSlow(class, rhs)
				}
				ids = append(ids, cls)
				cover = append(cover, 0)
				j = len(ids) - 1
			}
			cover[j] += vcs[k]
			if cover[j] > best {
				best = cover[j]
			}
		}
	}
	return int(best)
}

// classBestCoverageSlow is the map-based fallback of classBestCoverage.
func (v *Verifier) classBestCoverageSlow(class []int32, rhs int) int {
	col := v.rel.Column(rhs)
	valCount := make(map[relation.Value]int, 32)
	for _, t := range class {
		valCount[col.At(int(t))]++
	}
	best := 0
	for _, c := range valCount {
		if c > best {
			best = c // best single literal value
		}
	}
	senseCover := make(map[ontology.ClassID]int, 8)
	for val, c := range valCount {
		for _, cls := range v.namesOf(rhs, val) {
			senseCover[cls] += c
			if senseCover[cls] > best {
				best = senseCover[cls]
			}
		}
	}
	return best
}

// Support returns s(φ): the fraction of tuples in the largest sub-relation
// r ⊆ I with r ⊨ φ. Singleton classes and tuples outside Π*_X always
// satisfy; within each class the best single-sense (or single-value)
// coverage counts.
func (v *Verifier) Support(d OFD) float64 {
	n := v.rel.NumRows()
	if n == 0 || d.Trivial() {
		return 1
	}
	p := v.pc.Get(d.LHS)
	satisfied := n
	for i := 0; i < p.NumClasses(); i++ {
		class := p.Class(i)
		satisfied -= len(class) - v.classBestCoverage(class, d.RHS)
	}
	return float64(satisfied) / float64(n)
}

// HoldsApprox reports whether the OFD holds with minimum support κ ∈ [0,1].
func (v *Verifier) HoldsApprox(d OFD, kappa float64) bool {
	return v.Support(d) >= kappa
}

// Violations returns the equivalence classes of Π*_X that violate the OFD.
func (v *Verifier) Violations(d OFD) [][]int {
	var out [][]int
	p := v.pc.Get(d.LHS)
	for i := 0; i < p.NumClasses(); i++ {
		if !v.classSatisfied(p.Class(i), d.RHS) {
			out = append(out, p.ClassInts(i))
		}
	}
	return out
}

// SatisfiesAll reports whether the instance satisfies every OFD in Σ.
func (v *Verifier) SatisfiesAll(sigma Set) bool {
	for _, d := range sigma {
		if !v.HoldsSyn(d) {
			return false
		}
	}
	return true
}

// NonEqualConsequentFraction returns, for a holding OFD, the fraction of
// tuples in non-singleton classes whose consequent value differs from the
// class's most frequent value — i.e. tuples a traditional FD would flag as
// errors but a synonym OFD recognizes as clean (Exp-5).
func (v *Verifier) NonEqualConsequentFraction(d OFD) float64 {
	p := v.pc.Get(d.LHS)
	col := v.rel.Column(d.RHS)
	total, nonEqual := 0, 0
	for i := 0; i < p.NumClasses(); i++ {
		class := p.Class(i)
		valCount := make(map[relation.Value]int, 4)
		for _, t := range class {
			valCount[col.At(int(t))]++
		}
		mode := 0
		for _, c := range valCount {
			if c > mode {
				mode = c
			}
		}
		total += len(class)
		nonEqual += len(class) - mode
	}
	if total == 0 {
		return 0
	}
	return float64(nonEqual) / float64(total)
}
