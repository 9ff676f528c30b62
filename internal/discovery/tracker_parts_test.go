package discovery

import (
	"math/rand"
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

// TestPartitionBackedBuildersMatchScan pins the partition-backed fast
// paths to the from-scratch reference implementations: the cover tracker
// built from Π*_X must agree with the row-at-a-time build on every key
// (class size, consequent multiset, lone rows) and on validity, and the
// border certificate picked by witnessScanParts must be byte-identical to
// the one scanCandidate pins — the repair's determinism depends on both
// paths choosing the same violating class.
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

				ref := newCoverTracker(rel, v, d)
				got := newCoverTrackerParts(pv, d)
				if got.valid() != ref.valid() {
					t.Fatalf("trial %d %v: parts valid=%v, scan valid=%v", trial, d, got.valid(), ref.valid())
				}
				if len(got.ix.Keys) != len(ref.ix.Keys) {
					t.Fatalf("trial %d %v: parts has %d keys, scan %d", trial, d, len(got.ix.Keys), len(ref.ix.Keys))
				}
				for key, refEnc := range ref.ix.Keys {
					gotEnc, ok := got.ix.Keys[key]
					if !ok {
						t.Fatalf("trial %d %v: key %q missing from parts build", trial, d, key)
					}
					if refEnc <= -2 || gotEnc <= -2 {
						if refEnc != gotEnc {
							t.Fatalf("trial %d %v: key %q lone mismatch: parts %d, scan %d", trial, d, key, gotEnc, refEnc)
						}
						continue
					}
					if got.ix.Sizes[gotEnc] != ref.ix.Sizes[refEnc] {
						t.Fatalf("trial %d %v: key %q size mismatch: parts %d, scan %d",
							trial, d, key, got.ix.Sizes[gotEnc], ref.ix.Sizes[refEnc])
					}
					gv, rv := sortedVC(got.ix.Counts[gotEnc]), sortedVC(ref.ix.Counts[refEnc])
					if len(gv) != len(rv) {
						t.Fatalf("trial %d %v: key %q multiset mismatch: parts %v, scan %v", trial, d, key, gv, rv)
					}
					for k := range gv {
						if gv[k] != rv[k] {
							t.Fatalf("trial %d %v: key %q multiset mismatch: parts %v, scan %v", trial, d, key, gv, rv)
						}
					}
					if got.sat[gotEnc] != ref.sat[refEnc] {
						t.Fatalf("trial %d %v: key %q sat mismatch", trial, d, key)
					}
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

// TestCoverTrackerPartsAllocsFlat pins the tracker build's allocations:
// every key is a substring of one interned blob and the consequent
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
			newCoverTrackerParts(v, d) // warm the partition cache
			allocs[n] = append(allocs[n], testing.AllocsPerRun(5, func() { newCoverTrackerParts(v, d) }))
		}
	}
	for i, d := range sigma {
		if grew := allocs[large][i] - allocs[small][i]; grew > (large-small)/64 {
			t.Errorf("%v: newCoverTrackerParts allocations %v at %d rows → %v at %d rows", d, allocs[small][i], small, allocs[large][i], large)
		}
	}
}
