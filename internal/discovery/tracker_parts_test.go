package discovery

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// sortedVC returns a canonical copy of a consequent multiset for
// comparison across trackers with different class numbering.
func sortedVC(pairs []live.ValCount) []live.ValCount {
	out := append([]live.ValCount(nil), pairs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Val < out[j].Val })
	return out
}

// standaloneTracker builds d's tracker on a new table of its own, from
// the verifier's partition of d's antecedent, as the substrate builds a
// table no engine holds yet.
func standaloneTracker(v *core.Verifier, d core.OFD) *coverTracker {
	tab := live.FromPartition(v.Relation(), d.LHS.Attrs(), v.Partitions().Get(d.LHS))
	return newCoverTracker(v, tab, d)
}

// scanTracker builds d's tracker the from-scratch way: an empty table
// that every row joins in row order, with the tracker folding the joins
// in as a batch of appends does.
func scanTracker(rel *relation.Relation, v *core.Verifier, d core.OFD) *coverTracker {
	tab := live.NewTable(rel, d.LHS.Attrs(), false)
	tab.Append(rel, 0, rel.NumRows())
	ct := &coverTracker{d: d, tab: tab}
	ct.fold(rel, v, nil, 0, int32(rel.NumRows()))
	return ct
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
		pv := core.NewVerifier(rel, ont, relation.NewPartitionCache(rel))
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

				ref := scanTracker(rel, v, d)
				got := standaloneTracker(pv, d)
				if got.valid() != ref.valid() {
					t.Fatalf("trial %d %v: parts valid=%v, scan valid=%v", trial, d, got.valid(), ref.valid())
				}
				gt, rt := got.tab, ref.tab
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
					gv, rv := sortedVC(got.counts[gc]), sortedVC(ref.counts[rc])
					if !slices.Equal(gv, rv) {
						t.Fatalf("trial %d %v: class multiset mismatch: parts %v, scan %v", trial, d, gv, rv)
					}
					if got.sat[gc] != ref.sat[rc] {
						t.Fatalf("trial %d %v: class sat mismatch", trial, d)
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
// built on a new table: keys are packed integers, and the consequent
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
		v := core.NewVerifier(ds.Rel, ds.FullOnt, relation.NewPartitionCache(ds.Rel))
		sigma = append(core.Set(nil), ds.Sigma...)
		nc := ds.Rel.NumCols()
		for c := 0; c < nc; c++ {
			sigma = append(sigma, core.OFD{LHS: relation.Single(c), RHS: (c + 1) % nc})
		}
		for _, d := range sigma {
			build := func() { standaloneTracker(v, d) }
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
