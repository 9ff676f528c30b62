package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// descendInstance builds a random relation of up to 7 columns and 40 rows
// over a small value pool, plus a random synonym ontology over that pool.
func descendInstance(rng *rand.Rand) (*relation.Relation, *ontology.Ontology) {
	cols := 3 + rng.Intn(5)
	rows := 8 + rng.Intn(33)
	domain := 2 + rng.Intn(3)
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
	ont := ontology.New()
	for c := 0; c < rng.Intn(3); c++ {
		var syn []string
		for v := 0; v < domain; v++ {
			if rng.Intn(2) == 0 {
				syn = append(syn, fmt.Sprintf("v%d", v))
			}
		}
		ont.MustAddClass(fmt.Sprintf("cls%d", c), fmt.Sprintf("sense%d", c), ontology.NoClass, syn...)
	}
	return rel, ont
}

// bruteMinimalSubsets enumerates every subset of w and returns the minimal
// ones on which rhs holds, in canonical order.
func bruteMinimalSubsets(v *core.Verifier, w relation.AttrSet, rhs int) []relation.AttrSet {
	var valid []relation.AttrSet
	for x := w; ; x = (x - 1) & w {
		if v.HoldsSynOnePass(core.OFD{LHS: x, RHS: rhs}, nil) {
			valid = append(valid, x)
		}
		if x == 0 {
			break
		}
	}
	return minimalAntichain(valid)
}

// TestDescendMatchesBruteForce drives random relations through batches that
// corrupt cells and then revert them. After each batch, every pre-batch
// border node that the batch made valid is descended with a repairer built
// from the pre-batch cover and border, and the result must equal the
// minimal valid subsets found by enumerating the whole sublattice. The
// maintained cover must also equal a fresh discovery after every batch.
func TestDescendMatchesBruteForce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(51))
			promoted, seeded := 0, 0
			for trial := 0; trial < 30; trial++ {
				rel, ont := descendInstance(rng)
				opts := DefaultOptions()
				opts.Workers = workers
				mt, err := newMaintainer(rel.Clone(), ont, opts)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < 6; b++ {
					cur := mt.Relation()
					var corrupt, revert []core.CellUpdate
					for k := 0; k < 1+rng.Intn(3); k++ {
						row, col := rng.Intn(cur.NumRows()), rng.Intn(cur.NumCols())
						revert = append(revert, core.CellUpdate{Row: row, Col: col, Value: cur.String(row, col)})
						corrupt = append(corrupt, core.CellUpdate{Row: row, Col: col, Value: fmt.Sprintf("v%d", rng.Intn(4))})
					}
					// Revert in reverse so a cell written twice ends at its
					// original value.
					for i, j := 0, len(revert)-1; i < j; i, j = i+1, j-1 {
						revert[i], revert[j] = revert[j], revert[i]
					}
					for _, batch := range [][]core.CellUpdate{corrupt, revert} {
						p, s := checkDescents(t, mt, workers, batch)
						promoted += p
						seeded += s
						got := mt.Cover()
						if want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs; !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d batch %d: cover diverged\n got: %v\nwant: %v", trial, b, got, want)
						}
					}
				}
			}
			// The property must actually be exercised, including climbs
			// seeded above ∅ by a still-invalid border node.
			if promoted < 100 || seeded < 50 {
				t.Fatalf("too few promotions exercised: %d promoted, %d with still-invalid border nodes", promoted, seeded)
			}
		})
	}
}

// checkDescents applies batch to mt and checks descend on every promoted
// border node. It returns the number of promoted nodes and how many of
// them had a non-empty still-invalid border.
func checkDescents(t *testing.T, mt *Maintainer, workers int, batch []core.CellUpdate) (promoted, seeded int) {
	t.Helper()
	type pre struct{ cover, border []relation.AttrSet }
	before := make([]pre, len(mt.rhs))
	for i, rs := range mt.rhs {
		before[i] = pre{lhsSets(rs.cover), rs.borderSets()}
	}
	if _, err := mt.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	writes := mt.LastWrites()
	if len(writes) == 0 {
		return 0, 0
	}
	touched := core.Touched(writes)
	v := core.NewVerifier(mt.Relation(), mt.Ontology(), nil)
	holds := func(x relation.AttrSet, rhs int) bool {
		return v.HoldsSynOnePass(core.OFD{LHS: x, RHS: rhs}, nil)
	}
	for rhs, st := range before {
		var survivors, stillInvalid, promotedNodes []relation.AttrSet
		for _, x := range st.cover {
			if holds(x, rhs) {
				survivors = append(survivors, x)
			}
		}
		for _, w := range st.border {
			if holds(w, rhs) {
				promotedNodes = append(promotedNodes, w)
			} else {
				stillInvalid = append(stillInvalid, w)
			}
		}
		for _, w := range promotedNodes {
			r := &repairer{
				mt:         mt,
				bufs:       make([]relation.ProductBuffer, workers),
				rhs:        rhs,
				space:      mt.all.Without(rhs),
				oldCover:   st.cover,
				border:     st.border,
				survivors:  survivors,
				touched:    touched,
				rhsTouched: touched.Has(rhs),
				memo:       map[relation.AttrSet]bool{w: true},
			}
			for _, s := range survivors {
				r.memo[s] = true
			}
			got, err := r.descend(context.Background(), w, stillInvalid)
			if err != nil {
				t.Fatal(err)
			}
			got = minimalAntichain(got)
			if want := bruteMinimalSubsets(v, w, rhs); !reflect.DeepEqual(got, want) {
				t.Fatalf("descend(%v → %d) = %v, want %v (still invalid: %v)", w, rhs, got, want, stillInvalid)
			}
			promoted++
			if len(stillInvalid) > 0 {
				seeded++
			}
		}
	}
	return promoted, seeded
}

// TestDescendWalkCount pins the partition walks of one promoting batch.
// Rows 0 and 1 agree on X1..X6, differ on X7, and start with different C
// values; every other row is unique in every column. So C's cover is {X7}
// and its one border node is W = {X1..X6}. Writing row 1's C back to row
// 0's value promotes W, whose minimal valid subsets are the six singletons.
// The batch walks nine partitions: the triggered probe of W, the ∅ floor
// probe, the six singletons the climb from ∅ verifies, and the wipe-out
// probe of C → X7's repair (C was a key, so C → X7 demotes). A top-down
// walk of W's valid region verifies all 62 nodes strictly between ∅ and W
// instead of the six, 65 walks in all.
func TestDescendWalkCount(t *testing.T) {
	schema := relation.MustSchema("X1", "X2", "X3", "X4", "X5", "X6", "X7", "C")
	rows := [][]string{
		{"a", "a", "a", "a", "a", "a", "p", "c0"},
		{"a", "a", "a", "a", "a", "a", "q", "c1"},
	}
	for r := 2; r < 6; r++ {
		row := make([]string, schema.Len())
		for c := range row {
			row[c] = fmt.Sprintf("u%d", r)
		}
		rows = append(rows, row)
	}
	rel, err := relation.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	ont := ontology.New()
	mt, err := newMaintainer(rel, ont, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := schema.MustIndex("C")
	w := schema.MustSet("X1", "X2", "X3", "X4", "X5", "X6")
	if got := mt.rhs[c].borderSets(); !reflect.DeepEqual(got, []relation.AttrSet{w}) {
		t.Fatalf("border for C = %v, want [%v]", got, w)
	}
	walks0, _ := mt.KernelStats()
	diff, err := mt.ApplyBatch([]core.CellUpdate{{Row: 1, Col: c, Value: "c0"}})
	if err != nil {
		t.Fatal(err)
	}
	walks1, _ := mt.KernelStats()
	for _, x := range w.Attrs() {
		if d := (core.OFD{LHS: relation.EmptySet.With(x), RHS: c}); !diff.Added.Contains(d) {
			t.Fatalf("promotion did not add %v: %+v", d, diff)
		}
	}
	if got, want := mt.Cover(), Discover(mt.Relation(), ont, DefaultOptions()).OFDs; !reflect.DeepEqual(got, want) {
		t.Fatalf("cover diverged\n got: %v\nwant: %v", got, want)
	}
	const wantWalks = 9
	if got := walks1 - walks0; got != wantWalks {
		t.Fatalf("promoting batch walked %d partitions, want %d", got, wantWalks)
	}
}

// TestDescendWalkCountMinimaNearW pins the climb's cost where it is
// worst: a promoted node that is its own only minimal valid subset. C's
// cover is {X7} and its one border node is W = {X1..X6}, as in
// TestDescendWalkCount, but for each Xi one more pair of rows agrees on
// W \ {Xi} and differs on C, so every proper subset of W stays invalid.
// No border node stays invalid, so the climb starts at ∅ and verifies all
// 63 proper subsets of W (the ∅ floor probe and the 62 nodes above it)
// before it reaches W; a top-down walk would verify only W's six children.
// With the triggered probe of W and the wipe-out probe of C → X7's repair
// the batch walks 65 partitions (9 with a top-down walk). This is the shape in which the climb
// costs about 2^|W| walks against |W|; on perfbench's churn-12k none of
// the 140 descents has it (see DESIGN.md, "Candidate-set repair").
func TestDescendWalkCountMinimaNearW(t *testing.T) {
	schema := relation.MustSchema("X1", "X2", "X3", "X4", "X5", "X6", "X7", "C")
	rows := [][]string{
		{"a", "a", "a", "a", "a", "a", "p", "c0"},
		{"a", "a", "a", "a", "a", "a", "q", "c1"},
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 2; j++ {
			row := make([]string, schema.Len())
			for c := 0; c < 6; c++ {
				row[c] = fmt.Sprintf("v%d", i)
			}
			row[i] = fmt.Sprintf("v%d.%d", i, j)
			row[6] = fmt.Sprintf("k%d.%d", i, j)
			row[7] = fmt.Sprintf("d%d.%d", i, j)
			rows = append(rows, row)
		}
	}
	rel, err := relation.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	ont := ontology.New()
	mt, err := newMaintainer(rel, ont, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := schema.MustIndex("C")
	w := schema.MustSet("X1", "X2", "X3", "X4", "X5", "X6")
	if got := mt.rhs[c].borderSets(); !reflect.DeepEqual(got, []relation.AttrSet{w}) {
		t.Fatalf("border for C = %v, want [%v]", got, w)
	}
	walks0, _ := mt.KernelStats()
	diff, err := mt.ApplyBatch([]core.CellUpdate{{Row: 1, Col: c, Value: "c0"}})
	if err != nil {
		t.Fatal(err)
	}
	walks1, _ := mt.KernelStats()
	if d := (core.OFD{LHS: w, RHS: c}); !diff.Added.Contains(d) {
		t.Fatalf("promotion did not add %v: %+v", d, diff)
	}
	if got, want := mt.Cover(), Discover(mt.Relation(), ont, DefaultOptions()).OFDs; !reflect.DeepEqual(got, want) {
		t.Fatalf("cover diverged\n got: %v\nwant: %v", got, want)
	}
	const wantWalks = 65
	if got := walks1 - walks0; got != wantWalks {
		t.Fatalf("promoting batch walked %d partitions, want %d", got, wantWalks)
	}
}
