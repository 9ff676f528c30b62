package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// refinerOntology is the fixed ontology of the refiner fuzz: two senses
// sharing "b", and "d" named by neither. Even columns draw from a–d, so
// consequents there are ontology-covered; odd columns draw from p–s (and
// column 1 from p–E, 16 values), which no class names, so their
// consequents degrade to syntactic equality.
func refinerOntology() *ontology.Ontology {
	ont := ontology.New()
	ont.MustAddClass("x", "sx", ontology.NoClass, "a", "b")
	ont.MustAddClass("y", "sy", ontology.NoClass, "b", "c")
	return ont
}

// checkRootRefiner decodes data into a relation of 3–5 columns and 2–16
// rows, a root X₀ → A, and a climb path above X₀, and asserts that root
// refinement agrees with HoldsSynOnePass at every node of the path. Byte 0
// picks the column count, byte 1 the row count, byte 2 the consequent and
// byte 3 the root's columns; the next bytes fill the cells (column 1 draws
// from 16 values, so one parent run can hold many codes), and every byte
// after that is one climb step. An even step adds one column to the last
// node (a one-column regroup from a labeled parent). An odd step adds two
// columns and names the skipped middle node as the parent, which the
// refiner never labeled, so it regroups from the root by every column
// above it. A path that reaches the full space restarts at the root.
func checkRootRefiner(t *testing.T, data []byte) {
	if len(data) == 0 {
		data = []byte{0}
	}
	k := 0
	next := func() int {
		b := data[k%len(data)]
		k++
		return int(b)
	}
	ncols := 3 + next()%3
	nrows := 2 + next()%15
	rhs := next() % ncols
	rootBits := next()
	names := []string{"A", "B", "C", "D", "E"}[:ncols]
	pools := [3][]string{
		{"a", "b", "c", "d"},
		{"p", "q", "r", "s"},
		{"p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z", "A", "B", "C", "D", "E"},
	}
	rows := make([][]string, nrows)
	for r := range rows {
		rows[r] = make([]string, ncols)
		for c := range rows[r] {
			pool := pools[c%2]
			if c == 1 {
				pool = pools[2]
			}
			rows[r][c] = pool[next()%len(pool)]
		}
	}
	rel, err := relation.FromRows(relation.MustSchema(names...), rows)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.NewSubstrate(context.Background(), rel, refinerOntology(), 1)
	if err != nil {
		t.Fatal(err)
	}
	v := sub.Verifier()
	space := rel.Schema().All().Without(rhs)
	root := relation.EmptySet
	for _, c := range space.Attrs() {
		if rootBits&(1<<c) != 0 {
			root = root.With(c)
		}
	}
	holds := func(x relation.AttrSet) bool {
		return v.HoldsSynOnePass(core.OFD{LHS: x, RHS: rhs}, nil)
	}
	ct := standaloneTracker(sub, core.OFD{LHS: root, RHS: rhs})
	if ct.valid() != holds(root) {
		t.Fatalf("tracker for %v → %d: valid %v, HoldsSynOnePass %v", root, rhs, ct.valid(), holds(root))
	}
	if root == space {
		return
	}
	rf := newRootRefiner(v, ct)
	cur := root
	for step := 0; k < len(data); step++ {
		rest := space.Minus(cur).Attrs()
		if len(rest) == 0 {
			cur = root
			continue
		}
		s := next()
		parent := cur
		y := cur.With(rest[(s>>1)%len(rest)])
		if s%2 == 1 && len(rest) > 1 {
			parent = y
			y = y.With(space.Minus(y).Attrs()[(s>>1)%(len(rest)-1)])
		}
		if got, want := rf.holds(y, parent), holds(y); got != want {
			t.Fatalf("step %d: holds(%v from %v) = %v, HoldsSynOnePass %v (root %v → %d)", step, y, parent, got, want, root, rhs)
		}
		cur = y
	}
}

// FuzzRootRefiner checks root refinement against HoldsSynOnePass on
// fuzzer-chosen relations, roots and climb paths (see checkRootRefiner).
func FuzzRootRefiner(f *testing.F) {
	f.Add([]byte{0, 4, 2, 1, 2, 1, 3, 0, 0, 0, 2, 0, 1, 0, 0, 3, 3, 0, 1, 0, 3, 0, 3, 7, 1, 12, 1, 7})
	f.Add([]byte{2, 6, 0, 0, 0, 1, 2, 3, 1, 0, 2, 1, 0, 1, 2, 0, 0, 0, 1, 3, 3, 2, 3, 3, 2, 2, 1, 1, 1, 0, 2, 3, 2, 3, 2, 0, 0, 3, 1, 2, 1, 3, 3, 0, 2, 10, 10, 11, 15, 14, 2, 2, 8, 15})
	f.Add([]byte{1, 10, 3, 5, 0, 0, 2, 3, 2, 3, 2, 0, 3, 2, 1, 0, 3, 0, 1, 2, 1, 1, 3, 3, 3, 0, 1, 3, 3, 2, 1, 3, 2, 3, 2, 3, 1, 1, 0, 1, 1, 1, 1, 0, 3, 1, 2, 2, 0, 1, 3, 2, 10, 4, 1, 14, 12, 12, 12, 12, 3, 15, 12, 1})
	// Many column-1 codes in one parent run (root ∅ is one unsatisfied
	// class; regrouping by column 1 splits it eight ways).
	f.Add([]byte{0, 14, 0, 0, 0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 1, 1, 0, 2, 2, 2, 2, 2, 1, 3, 3, 1, 3, 3, 0, 4, 0, 2, 4, 0, 1, 5, 1, 1, 5, 1, 0, 6, 2, 2, 6, 2, 1, 7, 3, 1, 7, 3, 0, 0, 1, 3})
	// One-member parent runs: from an unlabeled parent the refiner
	// regroups by column 1, which leaves most rows alone, then column 2.
	f.Add([]byte{0, 14, 0, 0, 0, 0, 0, 2, 1, 1, 0, 2, 2, 2, 3, 0, 0, 4, 1, 2, 5, 2, 0, 6, 0, 2, 7, 1, 0, 8, 2, 2, 9, 0, 0, 10, 1, 2, 11, 2, 0, 12, 0, 2, 12, 1, 0, 12, 2, 2, 12, 0, 3, 3, 0})
	// An empty member list: the root holds, so the refiner has no rows.
	f.Add([]byte{0, 14, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 0, 0, 5, 1, 0, 6, 2, 0, 7, 3, 0, 8, 0, 0, 9, 1, 0, 10, 2, 0, 11, 3, 0, 12, 0, 0, 13, 1, 0, 14, 2, 0, 15, 3, 0, 0, 3})
	f.Fuzz(checkRootRefiner)
}

// TestRegroupMatchesPairGrouping checks regroup against grouping by
// (parent label, code) through a map: two members share a label iff they
// share the pair, labels are dense in [0, n), and n counts the distinct
// pairs. Column 0 holds a NullValue cell written with Col.Set and the
// column's largest dictionary code. The cases cover random labels over
// all members and over member subsets, one-member parent runs, parent
// labels no member carries, an empty member list and plab aliasing lab;
// every case reuses one refiner, so stale slots from earlier calls must
// not leak into later ones.
func TestRegroupMatchesPairGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nrows = 64
	rows := make([][]string, nrows)
	for r := range rows {
		rows[r] = []string{fmt.Sprint("v", rng.Intn(20)), fmt.Sprint("w", rng.Intn(3))}
	}
	rel, err := relation.FromRows(relation.MustSchema("A", "B"), rows)
	if err != nil {
		t.Fatal(err)
	}
	rel.Column(0).Set(5, relation.NullValue)
	rel.Column(0).Set(9, relation.Value(rel.Dict(0).Size()-1))
	rf := &rootRefiner{
		v:     core.NewVerifier(rel, refinerOntology(), nil),
		codes: make([][]relation.Value, rel.NumCols()),
	}
	for r := 0; r < nrows; r++ {
		rf.members = append(rf.members, int32(r))
	}
	check := func(name string, c int, idx, plab []int32, nparent int32, alias bool) {
		t.Helper()
		type pair struct{ p, code int32 }
		want := make(map[pair]int32)
		keys := make([]pair, len(idx))
		for j, i := range idx {
			keys[j] = pair{plab[j], int32(rel.Value(int(rf.members[i]), c))}
			if _, ok := want[keys[j]]; !ok {
				want[keys[j]] = int32(len(want))
			}
		}
		lab := make([]int32, len(idx))
		if alias {
			lab = plab
		}
		n := rf.regroup(c, idx, plab, nparent, lab)
		if int(n) != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, n, len(want))
		}
		byLabel := make(map[int32]pair)
		for j, g := range lab {
			if g < 0 || g >= n {
				t.Fatalf("%s: member %d label %d outside [0, %d)", name, j, g, n)
			}
			if k, ok := byLabel[g]; ok && k != keys[j] {
				t.Fatalf("%s: label %d holds pairs %v and %v", name, g, k, keys[j])
			}
			byLabel[g] = keys[j]
		}
		if len(byLabel) != len(want) {
			t.Fatalf("%s: %d labels in use for %d distinct pairs", name, len(byLabel), len(want))
		}
	}
	all := make([]int32, nrows)
	for i := range all {
		all[i] = int32(i)
	}
	randomLabels := func(m int, nparent int32) []int32 {
		plab := make([]int32, m)
		for j := range plab {
			plab[j] = rng.Int31n(nparent)
		}
		return plab
	}
	for trial := 0; trial < 200; trial++ {
		c := trial % 2
		np := 1 + rng.Int31n(8)
		check(fmt.Sprintf("trial %d: all members", trial), c, all, randomLabels(nrows, np), np, trial%3 == 0)
		var sub []int32
		for i := range all {
			if rng.Intn(3) == 0 {
				sub = append(sub, int32(i))
			}
		}
		check(fmt.Sprintf("trial %d: subset", trial), c, sub, randomLabels(len(sub), np), np, trial%3 == 1)
		// Parent labels beyond the ones in use: their runs are empty.
		check(fmt.Sprintf("trial %d: unused labels", trial), c, sub, randomLabels(len(sub), np), np+3, false)
		// One member per parent run.
		solo := make([]int32, nrows)
		for j, p := range rng.Perm(nrows) {
			solo[j] = int32(p)
		}
		check(fmt.Sprintf("trial %d: one-member runs", trial), c, all, solo, nrows, trial%2 == 0)
	}
	check("empty", 0, nil, nil, 0, false)
	check("empty, one unused label", 1, nil, nil, 1, true)
}

// refineSink keeps BenchmarkRootRefinerHolds's verdicts live.
var refineSink bool

// BenchmarkRootRefinerHolds times the climb's verifications above demoted
// cover elements. On a generated Clinical instance, one cell in fifty is
// rewritten to another value of its column; the first 16 cover elements
// this demotes are the roots, and each iteration verifies every node one
// and two attributes above each root through a fresh rootRefiner, the
// two-attribute nodes from their labeled one-attribute parents. Profile
// it with
//
//	go test -run '^$' -bench RootRefinerHolds -cpuprofile cpu.out ./internal/discovery
func BenchmarkRootRefinerHolds(b *testing.B) {
	ds := gen.Clinical(12500, 1)
	cover := Discover(ds.Rel, ds.FullOnt, DefaultOptions()).OFDs
	rel := ds.Rel.Clone()
	rng := rand.New(rand.NewSource(1))
	for t := 0; t < rel.NumRows(); t++ {
		if rng.Intn(50) == 0 {
			c := rng.Intn(rel.NumCols())
			rel.SetValue(t, c, relation.Value(rng.Intn(rel.Dict(c).Size())))
		}
	}
	sub, err := core.NewSubstrate(context.Background(), rel, ds.FullOnt, 1)
	if err != nil {
		b.Fatal(err)
	}
	v := sub.Verifier()
	var roots []*coverTracker
	for _, d := range cover {
		if ct := standaloneTracker(sub, d); !ct.valid() && len(roots) < 16 {
			roots = append(roots, ct)
		}
	}
	if len(roots) == 0 {
		b.Fatal("no cover element was demoted")
	}
	space := rel.Schema().All()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, ct := range roots {
			rf := newRootRefiner(v, ct)
			above := space.Without(ct.d.RHS).Minus(ct.d.LHS).Attrs()
			for _, a := range above {
				y := ct.d.LHS.With(a)
				refineSink = rf.holds(y, ct.d.LHS)
				for _, c := range above {
					if c > a {
						refineSink = rf.holds(y.With(c), y)
					}
				}
			}
		}
	}
}
