package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// randomSynInstance builds a small random relation plus a random synonym
// ontology over its value universe — covered and uncovered consequents mix
// freely, so HoldsSynOnePass's two per-class branches (sense test and
// FD-equality walk) both see traffic.
func randomSynInstance(rng *rand.Rand) (*relation.Relation, *ontology.Ontology) {
	cols := 2 + rng.Intn(4)
	rows := 2 + rng.Intn(14)
	domain := 1 + rng.Intn(5)
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

// TestHoldsSynOnePassMatchesHoldsSyn is the repair verifier's correctness
// property: for every antecedent set and every consequent — trivial ones
// inside the antecedent, ontology-covered ones, and uncovered ones —
// HoldsSynOnePass agrees with HoldsSyn. One ProductBuffer is reused across
// every call of a trial, so scratch left behind by one partition product
// must never leak into the next.
func TestHoldsSynOnePassMatchesHoldsSyn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var sawCovered, sawUncovered bool
	for trial := 0; trial < 40; trial++ {
		rel, ont := randomSynInstance(rng)
		// The one-pass verifier gets a cache of its own, so its products
		// run through buf instead of hitting partitions HoldsSyn cached.
		v := NewVerifier(rel, ont, nil)
		ref := NewVerifier(rel, ont, nil)
		var buf relation.ProductBuffer
		nCols := rel.NumCols()
		for bits := 0; bits < 1<<nCols; bits++ {
			lhs := relation.AttrSet(bits)
			for rhs := 0; rhs < nCols; rhs++ {
				if !lhs.Has(rhs) {
					if v.covered[rhs].Load() {
						sawCovered = true
					} else {
						sawUncovered = true
					}
				}
				d := OFD{LHS: lhs, RHS: rhs}
				if got, want := v.HoldsSynOnePass(d, &buf), ref.HoldsSyn(d); got != want {
					t.Fatalf("trial %d: HoldsSynOnePass(%v->%d)=%v, HoldsSyn=%v", trial, lhs, rhs, got, want)
				}
			}
		}
	}
	if !sawCovered || !sawUncovered {
		t.Fatalf("instances exercised covered=%v uncovered=%v; want both", sawCovered, sawUncovered)
	}
}

// FuzzHoldsSynOnePass drives the same equivalence from fuzzed instance
// seeds and antecedent masks, so the corpus explores class shapes the
// fixed-seed property test does not.
func FuzzHoldsSynOnePass(f *testing.F) {
	f.Add(int64(1), uint8(0b01))
	f.Add(int64(42), uint8(0b11))
	f.Add(int64(-7), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed int64, lhsBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		rel, ont := randomSynInstance(rng)
		v := NewVerifier(rel, ont, nil)
		ref := NewVerifier(rel, ont, nil)
		var buf relation.ProductBuffer
		nCols := rel.NumCols()
		lhs := relation.AttrSet(lhsBits) & relation.AttrSet(uint64(1)<<uint(nCols)-1)
		for rhs := 0; rhs < nCols; rhs++ {
			d := OFD{LHS: lhs, RHS: rhs}
			if got, want := v.HoldsSynOnePass(d, &buf), ref.HoldsSyn(d); got != want {
				t.Fatalf("seed %d lhs %v rhs %d: one-pass=%v HoldsSyn=%v", seed, lhs, rhs, got, want)
			}
		}
	})
}
