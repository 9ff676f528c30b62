package discovery

import (
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// refinerOntology is the fixed ontology of the refiner fuzz: two senses
// sharing "b", and "d" named by neither. Even columns draw from a–d, so
// consequents there are ontology-covered; odd columns draw from p–s, which
// no class names, so their consequents degrade to syntactic equality.
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
// byte 3 the root's columns; the next bytes fill the cells, and every byte
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
	pools := [2][]string{{"a", "b", "c", "d"}, {"p", "q", "r", "s"}}
	rows := make([][]string, nrows)
	for r := range rows {
		rows[r] = make([]string, ncols)
		for c := range rows[r] {
			rows[r][c] = pools[c%2][next()%4]
		}
	}
	rel, err := relation.FromRows(relation.MustSchema(names...), rows)
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewVerifier(rel, refinerOntology(), nil)
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
	ct := newCoverTrackerParts(v, core.OFD{LHS: root, RHS: rhs})
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
	f.Fuzz(checkRootRefiner)
}
