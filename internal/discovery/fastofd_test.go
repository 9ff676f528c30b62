package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// randomInstance builds a small random relation plus a random synonym
// ontology over its value universe.
func randomInstance(rng *rand.Rand) (*relation.Relation, *ontology.Ontology) {
	cols := 2 + rng.Intn(4)
	rows := 2 + rng.Intn(12)
	domain := 1 + rng.Intn(4)
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	rel := relation.New(relation.MustSchema(names...))
	row := make([]string, cols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(domain))
		}
		rel.AppendRow(row)
	}
	o := ontology.New()
	// Random synonym classes over the value universe, some with multiple
	// senses and overlapping membership.
	numClasses := rng.Intn(5)
	for c := 0; c < numClasses; c++ {
		var syn []string
		for v := 0; v < domain; v++ {
			if rng.Intn(2) == 0 {
				syn = append(syn, fmt.Sprintf("v%d", v))
			}
		}
		o.MustAddClass(fmt.Sprintf("cls%d", c), fmt.Sprintf("sense%d", c%2), ontology.NoClass, syn...)
	}
	return rel, o
}

// bruteForceOFDs enumerates all minimal synonym OFDs by exhaustive search.
func bruteForceOFDs(rel *relation.Relation, ont *ontology.Ontology) core.Set {
	v := core.NewVerifier(rel, ont, nil)
	n := rel.NumCols()
	var out core.Set
	for rhs := 0; rhs < n; rhs++ {
		var minimal []relation.AttrSet
		byCard := make([][]relation.AttrSet, n+1)
		limit := relation.AttrSet(uint64(1)<<uint(n) - 1)
		for s := relation.AttrSet(0); s <= limit; s++ {
			if !s.Has(rhs) {
				byCard[s.Len()] = append(byCard[s.Len()], s)
			}
		}
		for _, sets := range byCard {
			for _, s := range sets {
				dominated := false
				for _, m := range minimal {
					if m.SubsetOf(s) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				if v.HoldsSyn(core.OFD{LHS: s, RHS: rhs}) {
					minimal = append(minimal, s)
					out = append(out, core.OFD{LHS: s, RHS: rhs})
				}
			}
		}
	}
	out.Sort()
	return out
}

func TestDiscoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		rel, ont := randomInstance(rng)
		want := bruteForceOFDs(rel, ont)
		// Brute force includes ∅ → A (constant/single-interpretation
		// columns); FastOFD's lattice starts at level 1 and also finds
		// them as candidates ({A} \ A) → A at level 1.
		got := Discover(rel, ont, DefaultOptions()).OFDs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d: mismatch\n got: %v\nwant: %v\nrows: %v",
				trial, got, want, rel.Rows())
		}
	}
}

func TestOptimizationsPreserveOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	configs := []Options{
		{},                        // everything off
		{PruneAugmentation: true}, // Opt-2 only
		{PruneKeys: true},         // Opt-3 only
		{FDShortcut: true},        // Opt-4 only
		DefaultOptions(),          // all on
		{PruneKeys: true, FDShortcut: true},
	}
	for trial := 0; trial < 25; trial++ {
		rel, ont := randomInstance(rng)
		want := Discover(rel, ont, DefaultOptions()).OFDs
		for ci, opts := range configs {
			got := Discover(rel, ont, opts).OFDs
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d config %d: output differs\n got: %v\nwant: %v\nrows: %v",
					trial, ci, got, want, rel.Rows())
			}
		}
	}
}

func TestDiscoveredOFDsAreSoundAndMinimal(t *testing.T) {
	ds := gen.Clinical(300, 17)
	res := Discover(ds.Rel, ds.FullOnt, DefaultOptions())
	v := core.NewVerifier(ds.Rel, ds.FullOnt, nil)
	seen := make(map[core.OFD]struct{})
	for _, d := range res.OFDs {
		if _, dup := seen[d]; dup {
			t.Errorf("duplicate OFD %v", d)
		}
		seen[d] = struct{}{}
		if d.Trivial() {
			t.Errorf("trivial OFD %v discovered", d)
		}
		if !v.HoldsSyn(d) {
			t.Errorf("discovered OFD %v does not hold", d)
		}
	}
	// Minimality: no discovered OFD is implied by another via Augmentation.
	for i, a := range res.OFDs {
		for j, b := range res.OFDs {
			if i != j && a.RHS == b.RHS && a.LHS.ProperSubsetOf(b.LHS) {
				t.Errorf("non-minimal OFD %v (subsumed by %v)", b, a)
			}
		}
	}
	// The planted OFDs must be implied by the discovered set: for each
	// planted X → A some discovered Y → A with Y ⊆ X exists.
	for _, d := range ds.Sigma {
		implied := false
		for _, f := range res.OFDs {
			if f.RHS == d.RHS && f.LHS.SubsetOf(d.LHS) {
				implied = true
				break
			}
		}
		if !implied {
			t.Errorf("planted OFD %s not implied by discovery", d.Format(ds.Rel.Schema()))
		}
	}
}

func TestDiscoverSubsumesFDs(t *testing.T) {
	// Every minimal FD must be implied by some discovered OFD (OFDs
	// subsume FDs: whatever holds syntactically holds semantically).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		rel, ont := randomInstance(rng)
		ofds := Discover(rel, ont, DefaultOptions()).OFDs
		fds := Discover(rel, ontology.New(), DefaultOptions()).OFDs // empty ontology = plain FDs
		for _, d := range fds {
			implied := false
			for _, f := range ofds {
				if f.RHS == d.RHS && f.LHS.SubsetOf(d.LHS) {
					implied = true
					break
				}
			}
			if !implied {
				t.Errorf("trial %d: FD %v not implied by OFDs %v", trial, d, ofds)
			}
		}
	}
}

func TestMaxLevelCap(t *testing.T) {
	ds := gen.Clinical(200, 19)
	full := Discover(ds.Rel, ds.FullOnt, DefaultOptions())
	opts := DefaultOptions()
	opts.MaxLevel = 3
	capped := Discover(ds.Rel, ds.FullOnt, opts)
	if len(capped.Levels) > 3 {
		t.Fatalf("cap ignored: %d levels", len(capped.Levels))
	}
	// Capped output = full output restricted to antecedents of size < 3.
	var want core.Set
	for _, d := range full.OFDs {
		if d.LHS.Len() < 3 {
			want = append(want, d)
		}
	}
	want.Sort()
	if !reflect.DeepEqual(capped.OFDs, want) {
		t.Fatalf("capped output mismatch:\n got %v\nwant %v", capped.OFDs, want)
	}
}

func TestApproximateDiscoveryMonotoneInSupport(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 300, Seed: 29, ErrRate: 0.05})
	strict := Discover(ds.Rel, ds.FullOnt, DefaultOptions())
	lax := DefaultOptions()
	lax.MinSupport = 0.9
	approx := Discover(ds.Rel, ds.FullOnt, lax)
	// Every exact OFD holds approximately, so it must be implied by the
	// approximate result (equal or smaller antecedent).
	for _, d := range strict.OFDs {
		implied := false
		for _, f := range approx.OFDs {
			if f.RHS == d.RHS && f.LHS.SubsetOf(d.LHS) {
				implied = true
				break
			}
		}
		if !implied {
			t.Errorf("exact OFD %v not implied by approximate set", d)
		}
	}
	// Note: a laxer κ can yield FEWER minimal OFDs overall (smaller
	// antecedents validate and prune their supersets), so no count
	// comparison — only implication and soundness.
	v := core.NewVerifier(ds.Rel, ds.FullOnt, nil)
	for _, d := range approx.OFDs {
		if !v.HoldsApprox(d, 0.9) {
			t.Errorf("approximate OFD %v has support below κ", d)
		}
	}
}

func TestLevelStatsAccounting(t *testing.T) {
	ds := gen.Clinical(200, 31)
	res := Discover(ds.Rel, ds.FullOnt, DefaultOptions())
	total := 0
	for i, ls := range res.Levels {
		if ls.Level != i+1 {
			t.Fatalf("level numbering wrong at %d", i)
		}
		total += ls.Discovered
	}
	if total != len(res.OFDs) {
		t.Fatalf("level stats count %d OFDs, result has %d", total, len(res.OFDs))
	}
	checked := 0
	for _, ls := range res.Levels {
		checked += ls.Candidates
	}
	if checked != res.CandidatesChecked {
		t.Fatalf("candidate accounting: %d vs %d", checked, res.CandidatesChecked)
	}
}

// bruteForceInhOFDs enumerates minimal inheritance OFDs exhaustively.
func bruteForceInhOFDs(rel *relation.Relation, ont *ontology.Ontology, theta int) core.Set {
	v := core.NewVerifier(rel, ont, nil)
	n := rel.NumCols()
	var out core.Set
	for rhs := 0; rhs < n; rhs++ {
		var minimal []relation.AttrSet
		byCard := make([][]relation.AttrSet, n+1)
		limit := relation.AttrSet(uint64(1)<<uint(n) - 1)
		for s := relation.AttrSet(0); s <= limit; s++ {
			if !s.Has(rhs) {
				byCard[s.Len()] = append(byCard[s.Len()], s)
			}
		}
		for _, sets := range byCard {
			for _, s := range sets {
				dominated := false
				for _, m := range minimal {
					if m.SubsetOf(s) {
						dominated = true
						break
					}
				}
				if dominated {
					continue
				}
				if v.HoldsInh(core.OFD{LHS: s, RHS: rhs}, theta) {
					minimal = append(minimal, s)
					out = append(out, core.OFD{LHS: s, RHS: rhs})
				}
			}
		}
	}
	out.Sort()
	return out
}

func TestInheritanceDiscoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		rel, ont := randomInstance(rng)
		for _, theta := range []int{0, 1, 2} {
			opts := DefaultOptions()
			opts.Mode = ModeInheritance
			opts.Theta = theta
			got := Discover(rel, ont, opts).OFDs
			want := bruteForceInhOFDs(rel, ont, theta)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d θ=%d: mismatch\n got: %v\nwant: %v\nrows: %v",
					trial, theta, got, want, rel.Rows())
			}
		}
	}
}

func TestInheritanceDiscoveryFindsFamilyOFDs(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 400, Seed: 72})
	opts := DefaultOptions()
	opts.Mode = ModeInheritance
	opts.Theta = ds.InhTheta
	res := Discover(ds.CleanRel, ds.FullOnt, opts)
	for _, d := range ds.InhSigma {
		implied := false
		for _, f := range res.OFDs {
			if f.RHS == d.RHS && f.LHS.SubsetOf(d.LHS) {
				implied = true
				break
			}
		}
		if !implied {
			t.Errorf("planted inheritance OFD %s not implied", d.Format(ds.CleanRel.Schema()))
		}
	}
	// The synonym run must NOT imply the family OFDs (they need is-a).
	syn := Discover(ds.CleanRel, ds.FullOnt, DefaultOptions())
	for _, d := range ds.InhSigma {
		for _, f := range syn.OFDs {
			if f.RHS == d.RHS && f.LHS.SubsetOf(d.LHS) {
				t.Errorf("family OFD %s implied by SYNONYM discovery (%s)",
					d.Format(ds.CleanRel.Schema()), f.Format(ds.CleanRel.Schema()))
			}
		}
	}
}

// TestDiscoveryHoldsTwoLevels pins the discoverer's resident lattice.
// When nextLevel has built level l+1 — the traversal's memory peak — the
// partition cache may hold lattice levels l and l+1 beside the single
// columns and ∅, and no third level: level l−1 was dropped once level l
// was verified. The run's output must still be Discover's.
func TestDiscoveryHoldsTwoLevels(t *testing.T) {
	ds := gen.Clinical(2000, 7)
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		peak, built := 0, 0
		res, err := discover(context.Background(), ds.Rel, ds.FullOnt, opts, func(pc *relation.PartitionCache) {
			built++
			resident := 0
			for _, k := range pc.Levels() {
				if k >= 2 {
					resident++
				}
			}
			peak = max(peak, resident)
		})
		if err != nil {
			t.Fatal(err)
		}
		if built < 4 {
			t.Fatalf("workers=%d: only %d levels built; the instance is too shallow to pin the peak", workers, built)
		}
		if peak != 2 {
			t.Errorf("workers=%d: %d lattice levels resident at the peak, want 2", workers, peak)
		}
		if want := Discover(ds.Rel, ds.FullOnt, DefaultOptions()).OFDs; !reflect.DeepEqual(res.OFDs, want) {
			t.Errorf("workers=%d: %d OFDs, Discover finds %d", workers, len(res.OFDs), len(want))
		}
	}
}
