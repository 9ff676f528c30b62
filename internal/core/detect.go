package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// Violation explains why one equivalence class violates an OFD: which
// tuples participate, which consequent values they carry, and how close
// the class is to having a common interpretation.
type Violation struct {
	OFD    OFD
	Tuples []int    // tuple ids of the equivalence class
	Values []string // distinct consequent values, sorted
	// BestSense is the interpretation covering the most distinct values
	// (NoClass if no value appears in the ontology).
	BestSense ontology.ClassID
	// Covered is the number of distinct values BestSense covers.
	Covered int
	// MissingValues are the distinct values BestSense does not cover —
	// the candidates for ontology or data repair.
	MissingValues []string
	// OutOfOntology are the distinct values absent from the ontology
	// entirely (a subset of MissingValues).
	OutOfOntology []string
}

// Format renders a one-line human-readable explanation.
func (v Violation) Format(sch *relation.Schema, ont *ontology.Ontology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: class of %d tuples {%s}", v.OFD.Format(sch), len(v.Tuples), strings.Join(v.Values, ", "))
	if v.BestSense == ontology.NoClass {
		b.WriteString(" has no value in the ontology")
	} else {
		fmt.Fprintf(&b, " best sense %s/%s covers %d/%d values; missing {%s}",
			ont.Sense(v.BestSense), ont.Name(v.BestSense), v.Covered, len(v.Values),
			strings.Join(v.MissingValues, ", "))
	}
	return b.String()
}

// Report is the result of running detection over a dependency set.
type Report struct {
	Violations []Violation
	// TuplesFlagged is the number of distinct tuples in violating classes.
	TuplesFlagged int
	// FDOnlyFlagged counts tuples a traditional FD would flag that the
	// OFD semantics clear — the false positives the paper's Exp-5
	// quantifies.
	FDOnlyFlagged int
}

// Detect finds all violations of Σ on the instance and explains each,
// also counting the tuples that only a syntactic FD would flag.
func Detect(rel *relation.Relation, ont *ontology.Ontology, sigma Set) *Report {
	return DetectWorkers(rel, ont, sigma, 1)
}

// DetectWorkers is Detect with the partition-cache warm-up and the
// verification spread over up to workers goroutines (0 selects
// runtime.NumCPU()): the dependencies of Σ are grouped by antecedent and
// each group is one work item. The report is identical for every worker
// count.
func DetectWorkers(rel *relation.Relation, ont *ontology.Ontology, sigma Set, workers int) *Report {
	rep, _ := DetectContext(context.Background(), rel, ont, sigma, workers, nil)
	return rep
}

// DetectContext is DetectWorkers with cooperative cancellation and optional
// per-stage observability. Cancellation is checked between antecedent
// groups; a cancelled run returns the sorted violations of whole groups
// only (every dependency on an antecedent, or none) plus an error
// satisfying errors.Is(err, ctx.Err()). stats, when non-nil, receives a
// "detect.verify" span.
func DetectContext(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, sigma Set, workers int, stats *exec.Stats) (*Report, error) {
	workers = exec.Workers(workers)
	span := stats.Span("detect.verify")
	span.Workers(workers)
	span.Items(len(sigma))
	defer span.End()
	pc, err := relation.NewPartitionCacheContext(ctx, rel, workers)
	rep := &Report{}
	if err == nil {
		v := NewVerifier(rel, ont, pc)
		deps, bounds := groupByAntecedent(sigma)
		// Per-worker scratch: no two workers append to one slice or write
		// one word.
		scratch := make([]detectScratch, workers)
		err = exec.For(ctx, len(bounds)-1, workers, func(w, i int) {
			// Polled per group as well as at each claim, so a run cut
			// between the two drops the whole group.
			if exec.Interrupted(ctx, "detect") != nil {
				return
			}
			s := &scratch[w]
			if s.flagged == nil {
				s.flagged, s.fdOnly = newTupleSet(rel.NumRows()), newTupleSet(rel.NumRows())
			}
			group := deps[bounds[i]:bounds[i+1]]
			p := pc.Get(group[0].LHS)
			for _, d := range group {
				v.detectDep(p, d, s)
			}
		})
		if err == nil {
			// The last group's own poll may have cut it after For's last
			// claim check.
			err = exec.Interrupted(ctx, "detect")
		}
		// sortViolations' order is total over distinct classes, so the
		// report does not depend on which worker found which violation.
		all := &scratch[0]
		for _, s := range scratch[1:] {
			all.flagged.or(s.flagged)
			all.fdOnly.or(s.fdOnly)
			all.viols = append(all.viols, s.viols...)
		}
		rep.TuplesFlagged, rep.FDOnlyFlagged = all.flagged.count(), all.fdOnly.count()
		rep.Violations = all.viols
		sortViolations(rep.Violations)
	}
	st := pc.Stats()
	span.Cache(st.Hits, st.Misses)
	return rep, err
}

// groupByAntecedent orders a copy of Σ by antecedent and returns it with
// the start of each antecedent's run, closed by len(Σ). Each run is one
// work item, so one worker reads each Π_X and two dependencies on one
// antecedent never both miss on it in the partition cache.
func groupByAntecedent(sigma Set) (Set, []int) {
	deps := slices.Clone(sigma)
	slices.SortStableFunc(deps, func(a, b OFD) int { return cmp.Compare(a.LHS, b.LHS) })
	var bounds []int
	for i := range deps {
		if i == 0 || deps[i].LHS != deps[i-1].LHS {
			bounds = append(bounds, i)
		}
	}
	return deps, append(bounds, len(deps))
}

// detectScratch is one Detect worker's findings: the explained violations
// and the tuples of violating and FD-only classes.
type detectScratch struct {
	viols           []Violation
	flagged, fdOnly tupleSet
}

// detectDep checks d class by class over p = Π_X into s.
func (v *Verifier) detectDep(p *relation.Partition, d OFD, s *detectScratch) {
	col := v.rel.Column(d.RHS)
	for i := 0; i < p.NumClasses(); i++ {
		class := p.Class(i)
		// All-equal fast path: a syntactically constant class cannot
		// violate and allocates nothing — on mostly-clean instances this
		// clears almost every class, so the scan is allocation-free per
		// class (guarded by TestDetectAllocsIndependentOfClassCount).
		first := col.At(int(class[0]))
		allEqual := true
		for _, t := range class[1:] {
			if col.At(int(t)) != first {
				allEqual = false
				break
			}
		}
		if allEqual {
			continue // satisfied syntactically
		}
		if v.classSatisfied(class, d.RHS) {
			// An FD would flag this class; the OFD clears it.
			s.fdOnly.addClass(class)
			continue
		}
		s.viols = append(s.viols, explain(v.rel, v.ont, d, class))
		s.flagged.addClass(class)
	}
}

// tupleSet is a dense set of tuple ids, one bit per id. Detect and the
// monitor's reports count their flagged and FD-only tuples in one each.
type tupleSet []uint64

// newTupleSet returns an empty set sized for the ids below n.
func newTupleSet(n int) tupleSet { return make(tupleSet, (n+63)>>6) }

// add inserts t, growing the set when t lies beyond it.
func (s *tupleSet) add(t int) {
	w := t >> 6
	if w >= len(*s) {
		*s = append(*s, make(tupleSet, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (uint(t) & 63)
}

// addClass inserts every tuple of a partition class.
func (s *tupleSet) addClass(class []int32) {
	for _, t := range class {
		s.add(int(t))
	}
}

// or adds every id of o to s.
func (s *tupleSet) or(o tupleSet) {
	if len(o) > len(*s) {
		*s = append(*s, make(tupleSet, len(o)-len(*s))...)
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

// count returns the number of ids in s.
func (s tupleSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// sortViolations orders a report canonically: by consequent, antecedent,
// then first tuple id.
func sortViolations(violations []Violation) {
	sort.Slice(violations, func(i, j int) bool {
		a, b := violations[i], violations[j]
		if a.OFD != b.OFD {
			if a.OFD.RHS != b.OFD.RHS {
				return a.OFD.RHS < b.OFD.RHS
			}
			return a.OFD.LHS < b.OFD.LHS
		}
		return a.Tuples[0] < b.Tuples[0]
	})
}

// explain builds the Violation record for one violating class. Violating
// classes are rare, so the distinct-value gather may allocate freely here —
// the detection scan itself stays allocation-free per class.
func explain(rel *relation.Relation, ont *ontology.Ontology, d OFD, class []int32) Violation {
	col := rel.Column(d.RHS)
	dict := rel.Dict(d.RHS)
	seen := make(map[relation.Value]struct{}, 4)
	values := make([]string, 0, 4)
	for _, t := range class {
		if _, ok := seen[col.At(int(t))]; ok {
			continue
		}
		seen[col.At(int(t))] = struct{}{}
		values = append(values, dict.String(col.At(int(t))))
	}
	sort.Strings(values)

	counts := make(map[ontology.ClassID]int, 8)
	for _, s := range values {
		for _, cls := range ont.Names(s) {
			counts[cls]++
		}
	}
	best, bestCount := ontology.NoClass, 0
	ids := make([]ontology.ClassID, 0, len(counts))
	for cls := range counts {
		ids = append(ids, cls)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, cls := range ids {
		if counts[cls] > bestCount {
			best, bestCount = cls, counts[cls]
		}
	}

	tuples := make([]int, len(class))
	for i, t := range class {
		tuples[i] = int(t)
	}
	viol := Violation{
		OFD:       d,
		Tuples:    tuples,
		Values:    values,
		BestSense: best,
		Covered:   bestCount,
	}
	for _, s := range values {
		inBest := best != ontology.NoClass && ont.HasSynonym(best, s)
		if !inBest {
			viol.MissingValues = append(viol.MissingValues, s)
		}
		if !ont.Contains(s) {
			viol.OutOfOntology = append(viol.OutOfOntology, s)
		}
	}
	return viol
}
