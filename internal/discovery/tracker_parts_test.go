package discovery

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// sortedVC returns a canonical copy of a consequent multiset for
// comparison across trackers with different class numbering.
func sortedVC(pairs []live.ValCount) []live.ValCount {
	out := append([]live.ValCount(nil), pairs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Val < out[j].Val })
	return out
}

// standaloneTracker builds d's tracker on sub, which builds the table
// over d's antecedent from its cached partition and d's state from one
// pass over the table, as it does for a dependency no engine holds yet.
func standaloneTracker(sub *core.Substrate, d core.OFD) *coverTracker {
	sts, err := sub.Hold(context.Background(), []core.OFD{d}, false)
	if err != nil {
		panic(err)
	}
	return &coverTracker{d: d, st: sts[0]}
}

// scanTracker builds d's tracker the from-scratch way: on a substrate
// over an empty copy of rel's schema, whose table over d's antecedent
// every row of rel then joins in row order, the state folding the joins
// in as a batch of appends does. rel's dictionaries must have interned
// its values in row order, so that both relations encode them alike.
func scanTracker(rel *relation.Relation, ont *ontology.Ontology, d core.OFD) *coverTracker {
	sub, err := core.NewSubstrate(context.Background(), relation.New(rel.Schema()), ont, 1)
	if err != nil {
		panic(err)
	}
	ct := standaloneTracker(sub, d)
	if err := sub.Append(rel.Rows()); err != nil {
		panic(err)
	}
	return ct
}

// scanCandidate verifies X → A from scratch in one pass over the
// relation: group rows by encoded antecedent key, then test each
// multi-tuple, multi-value group for a common interpretation. It reads
// only the relation and the verifier's names tables, with no partition
// cache, so it is the reference witnessScanParts is pinned to. With
// needWitness it reports the violating group with the smallest
// representative row.
func scanCandidate(rel *relation.Relation, v *core.Verifier, d core.OFD, needWitness bool) scanResult {
	type grp struct {
		size int32
		vals []live.ValCount
		rep  int32
	}
	cols := d.LHS.Attrs()
	groups := make(map[string]*grp, 64)
	col := rel.Column(d.RHS)
	n := rel.NumRows()
	var buf []byte
	for t := 0; t < n; t++ {
		buf = live.EncodeKey(rel, cols, t, buf)
		g := groups[string(buf)]
		if g == nil {
			g = &grp{rep: int32(t)}
			groups[string(buf)] = g
		}
		g.size++
		g.vals = live.Bump(g.vals, col.At(int(t)), 1)
	}
	res := scanResult{valid: true}
	var scratch []relation.Value
	bestRep := int32(-1)
	for key, g := range groups {
		if g.size <= 1 || len(g.vals) <= 1 {
			continue
		}
		scratch = live.Distinct(g.vals, scratch)
		if v.ValuesSatisfied(d.RHS, scratch) {
			continue
		}
		res.valid = false
		if !needWitness {
			return res
		}
		if bestRep < 0 || g.rep < bestRep {
			bestRep = g.rep
			res.witKey = key
			res.witSize = g.size
			res.witVals = g.vals
		}
	}
	return res
}

// TestPartitionBackedBuildersMatchScan pins the partition-backed fast
// paths to the from-scratch reference implementations: the cover tracker
// built on a table from Π*_X must group the rows as the row-at-a-time
// build does (same classes, same lone rows, one key each) and agree on
// every class's size, consequent multiset and satisfaction and on
// validity, and the border certificate picked by witnessScanParts must be
// byte-identical to the one scanCandidate pins — the repair's determinism
// depends on both paths choosing the same violating class.
func TestPartitionBackedBuildersMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		rel, ont := randomInstance(rng)
		v := core.NewVerifier(rel, ont, nil)
		sub, err := core.NewSubstrate(context.Background(), rel, ont, 1)
		if err != nil {
			t.Fatal(err)
		}
		pv := sub.Verifier()
		n := rel.NumCols()
		all := relation.AttrSet(uint64(1)<<uint(n) - 1)
		for rhs := 0; rhs < n; rhs++ {
			space := all.Without(rhs)
			limit := relation.AttrSet(uint64(1)<<uint(n) - 1)
			for lhs := relation.AttrSet(0); lhs <= limit; lhs++ {
				if !lhs.SubsetOf(space) {
					continue
				}
				d := core.OFD{LHS: lhs, RHS: rhs}

				ref := scanTracker(rel, ont, d)
				got := standaloneTracker(sub, d)
				if got.valid() != ref.valid() {
					t.Fatalf("trial %d %v: parts valid=%v, scan valid=%v", trial, d, got.valid(), ref.valid())
				}
				gt, rt := got.st.Table(), ref.st.Table()
				if gt.NumKeys() != rt.NumKeys() {
					t.Fatalf("trial %d %v: parts has %d keys, scan %d", trial, d, gt.NumKeys(), rt.NumKeys())
				}
				class := map[int32]int32{} // scan class → parts class
				for r := range rt.RowClass {
					gc, rc := gt.RowClass[r], rt.RowClass[r]
					if (gc < 0) != (rc < 0) {
						t.Fatalf("trial %d %v: row %d in parts class %d, scan class %d", trial, d, r, gc, rc)
					}
					if rc < 0 {
						continue
					}
					if prev, ok := class[rc]; ok && prev != gc {
						t.Fatalf("trial %d %v: scan class %d splits into parts classes %d and %d", trial, d, rc, prev, gc)
					}
					class[rc] = gc
				}
				for rc, gc := range class {
					if gt.Sizes[gc] != rt.Sizes[rc] {
						t.Fatalf("trial %d %v: class size mismatch: parts %d, scan %d", trial, d, gt.Sizes[gc], rt.Sizes[rc])
					}
					gv, rv := sortedVC(got.st.Counts()[gc]), sortedVC(ref.st.Counts()[rc])
					if !slices.Equal(gv, rv) {
						t.Fatalf("trial %d %v: class multiset mismatch: parts %v, scan %v", trial, d, gv, rv)
					}
					if got.st.Violates(gc) != ref.st.Violates(rc) {
						t.Fatalf("trial %d %v: class verdict mismatch", trial, d)
					}
				}
				if len(class) != len(gt.Sizes) {
					t.Fatalf("trial %d %v: parts holds %d classes, scan %d", trial, d, len(gt.Sizes), len(class))
				}

				refScan := scanCandidate(rel, v, d, true)
				gotScan := witnessScanParts(pv, d, nil)
				if gotScan.valid != refScan.valid {
					t.Fatalf("trial %d %v: witness valid mismatch: parts %v, scan %v", trial, d, gotScan.valid, refScan.valid)
				}
				if !refScan.valid {
					if gotScan.witKey != refScan.witKey || gotScan.witSize != refScan.witSize {
						t.Fatalf("trial %d %v: certificate mismatch: parts (%q,%d), scan (%q,%d)",
							trial, d, gotScan.witKey, gotScan.witSize, refScan.witKey, refScan.witSize)
					}
					gv, rv := sortedVC(gotScan.witVals), sortedVC(refScan.witVals)
					if len(gv) != len(rv) {
						t.Fatalf("trial %d %v: certificate multiset mismatch: parts %v, scan %v", trial, d, gv, rv)
					}
					for k := range gv {
						if gv[k] != rv[k] {
							t.Fatalf("trial %d %v: certificate multiset mismatch: parts %v, scan %v", trial, d, gv, rv)
						}
					}
				}
			}
		}
	}
}

// TestCoverTrackerPartsAllocsFlat pins the allocations of a tracker
// whose hold builds a new table and state: keys are packed integers, and
// the consequent
// multisets share one array, so quadrupling the rows adds far fewer
// allocations than rows. What still grows is the key map's own storage
// (Go's maps allocate one table per 1,024 slots) and the scratch the
// multisets are counted in; a string per key, or a multiset slice per
// class, would add one allocation per added key or class. The
// dependencies are Clinical's planted Σ plus one per column with that
// column alone as antecedent, from a handful of keys to one per row.
func TestCoverTrackerPartsAllocsFlat(t *testing.T) {
	const small, large = 2000, 8000
	allocs := map[int][]float64{}
	var sigma core.Set
	for _, n := range []int{small, large} {
		ds := gen.Clinical(n, 7)
		sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.FullOnt, 1)
		if err != nil {
			t.Fatal(err)
		}
		sigma = append(core.Set(nil), ds.Sigma...)
		nc := ds.Rel.NumCols()
		for c := 0; c < nc; c++ {
			sigma = append(sigma, core.OFD{LHS: relation.Single(c), RHS: (c + 1) % nc})
		}
		for _, d := range sigma {
			build := func() {
				standaloneTracker(sub, d)
				sub.Release([]core.OFD{d}, false)
			}
			build() // warm the partition cache
			allocs[n] = append(allocs[n], testing.AllocsPerRun(5, build))
		}
	}
	for i, d := range sigma {
		if grew := allocs[large][i] - allocs[small][i]; grew > (large-small)/64 {
			t.Errorf("%v: tracker build allocations %v at %d rows → %v at %d rows", d, allocs[small][i], small, allocs[large][i], large)
		}
	}
}
