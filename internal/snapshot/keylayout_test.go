package snapshot

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
)

// runLayoutSteps runs steps on a pipeline over rows that monitors sigma
// (nil: follows the cover) for every workers ∈ {1, 2, 4}, saving and
// reopening it before each step whose index reopen lists. After every
// step the cover must equal a fresh Discover and the report a fresh
// Detect of the monitored set; check, when non-nil, asserts what the
// steps were built to reach.
func runLayoutSteps(t *testing.T, schema *relation.Schema, rows [][]string, sigma core.Set, steps []step, reopen map[int]bool, check func(t *testing.T, p *pipeline.Pipeline)) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		rel, err := relation.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.New(context.Background(), rel, ontology.New(), pipeline.Options{Sigma: sigma, FollowCover: sigma == nil, Workers: workers})
		if err != nil {
			t.Fatalf("pipeline.New: %v", err)
		}
		checkFresh(t, fmt.Sprintf("workers=%d initial", workers), p, sigma)
		for k, st := range steps {
			if reopen[k] {
				p = saveOpen(t, &State{Pipeline: p}, Options{Workers: workers}).Pipeline
			}
			if _, err := st.apply(p); err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, k, err)
			}
			checkFresh(t, fmt.Sprintf("workers=%d step %d", workers, k), p, sigma)
		}
		if check != nil {
			check(t, p)
		}
	}
}

// TestPipelineKeyRelayout grows antecedent dictionaries past the lanes
// their tables' keys were laid out with, between batches: appends and
// cell writes intern novel values of X and Y until each dictionary holds
// more than twice its initial values plus one, so every table over X or Y must
// drop its keys and re-index under wider lanes — in append batches, and
// in write batches, where the rebuild reads the written rows' codes from
// the log — on live and on reopened pipelines alike. The pipeline follows
// its cover, or monitors a pinned Σ whose tables live through every step.
// It is reopened only before the first and the last step: a reopened
// table lays its keys out afresh, so steps 1–4 run on tables laid out
// for the initial dictionaries, where a stale lane would let two tuples'
// keys collide.
func TestPipelineKeyRelayout(t *testing.T) {
	schema := relation.MustSchema("X", "Y", "Z", "A")
	rows := make([][]string, 48)
	for r := range rows {
		rows[r] = []string{fmt.Sprint("x", r%4), fmt.Sprint("y", r%3), fmt.Sprint("z", r%6), fmt.Sprint("a", r%12)}
	}
	row := func(x, y, z, a string) []string { return []string{x, y, z, a} }
	// The first novel X value of step 4 takes code 10, the first past
	// X's initial lane: with Y = y0 its packed key under that lane would
	// be row 4's (x0, y1), whose A differs.
	novelX := [][]string{row("xa0", "y0", "z1", "a-xa0")}
	for k := 1; k < 12; k++ {
		novelX = append(novelX, row(fmt.Sprint("xa", k/2), "y1", "z1", fmt.Sprint("a", k%12)))
	}
	steps := []step{
		{rows: [][]string{row("xn1", "y0", "z0", "a0"), row("xn2", "y1", "z1", "a1"), row("xn1", "y0", "z2", "a0"), row("xn3", "y2", "z3", "a5")}},
		{ups: []core.CellUpdate{{Row: 0, Col: 0, Value: "xw1"}, {Row: 5, Col: 0, Value: "xw2"}, {Row: 9, Col: 0, Value: "xw1"}, {Row: 9, Col: 3, Value: "a7"}, {Row: 13, Col: 0, Value: "xw3"}}},
		{rows: [][]string{row("x0", "yn1", "z0", "a0"), row("x1", "yn2", "z1", "a1"), row("x2", "yn3", "z2", "a2"), row("x0", "yn1", "z0", "a0"), row("x3", "yn4", "z3", "a3"), row("x3", "yn5", "z3", "a3"), row("x1", "yn6", "z1", "a1")}},
		{ups: []core.CellUpdate{{Row: 2, Col: 1, Value: "yw1"}, {Row: 3, Col: 1, Value: "yw1"}, {Row: 4, Col: 2, Value: "z5"}, {Row: 7, Col: 1, Value: "y0"}, {Row: 7, Col: 0, Value: "xw2"}}},
		{rows: novelX},
		{ups: []core.CellUpdate{{Row: 10, Col: 0, Value: "xa1"}, {Row: 10, Col: 1, Value: "y1"}, {Row: 11, Col: 1, Value: "yw2"}, {Row: 12, Col: 3, Value: "a9"}, {Row: 20, Col: 0, Value: "xw4"}, {Row: 21, Col: 1, Value: "yw3"}}},
	}
	check := func(t *testing.T, p *pipeline.Pipeline) {
		// Laid out for 4 and 3 values, X's lanes hold dictionaries of
		// fewer than 10 values and Y's of fewer than 8.
		if n, m := p.Relation().Dict(0).Size(), p.Relation().Dict(1).Size(); n < 10 || m < 8 {
			t.Fatalf("X holds %d values and Y %d: the steps did not outgrow their lanes", n, m)
		}
	}
	pinned := core.Set{core.MustParse(schema, "X, Y -> A"), core.MustParse(schema, "X -> Z"), core.MustParse(schema, "Y, Z -> A")}
	for _, sigma := range []core.Set{nil, pinned} {
		t.Run(fmt.Sprintf("pinned=%v", sigma != nil), func(t *testing.T) {
			runLayoutSteps(t, schema, rows, sigma, steps, map[int]bool{0: true, 5: true}, check)
		})
	}
}

// TestPipelineWideKeys runs a pipeline whose cover holds C1..C5 → A over
// five columns of about 3,800 distinct values each: their lanes would
// need 5·log2(2·3,800) ≈ 64.4 bits, so that antecedent's tables, the
// monitor's and the maintainer's, keep byte keys. Every row is unique on
// the five columns and in A, and for each Ci one pair of rows agrees on
// every C column but Ci and differs in A, so no four of the columns
// determine A. The batches move rows between keys of the wide tables —
// class births by writes and appends, lone rows to fresh keys — and
// reopen the pipeline between them.
func TestPipelineWideKeys(t *testing.T) {
	schema := relation.MustSchema("C1", "C2", "C3", "C4", "C5", "A")
	const n = 3800
	var rows [][]string
	for r := 0; r < n; r++ {
		row := []string{}
		for c := 1; c <= 5; c++ {
			row = append(row, fmt.Sprintf("c%d-%d", c, r))
		}
		rows = append(rows, append(row, fmt.Sprint("a", r)))
	}
	for i := 1; i <= 5; i++ {
		for _, side := range []string{"u", "v"} {
			row := []string{}
			for c := 1; c <= 5; c++ {
				if c == i {
					row = append(row, fmt.Sprintf("p%d-%d-%s", i, c, side))
				} else {
					row = append(row, fmt.Sprintf("p%d-%d", i, c))
				}
			}
			rows = append(rows, append(row, fmt.Sprintf("ap%d%s", i, side)))
		}
	}
	// copyRow writes row from's C columns and A into row to.
	copyRow := func(to, from int, withA bool) []core.CellUpdate {
		var ups []core.CellUpdate
		for c := 0; c < 5; c++ {
			ups = append(ups, core.CellUpdate{Row: to, Col: c, Value: rows[from][c]})
		}
		if withA {
			ups = append(ups, core.CellUpdate{Row: to, Col: 5, Value: rows[from][5]})
		}
		return ups
	}
	steps := []step{
		{ups: copyRow(0, 1, true)},
		{rows: [][]string{rows[2], {"c1-new", "c2-new", "c3-new", "c4-new", "c5-new", "a-new"}, rows[2]}},
		{ups: append(copyRow(3, 4, true), core.CellUpdate{Row: 5, Col: 1, Value: "c2-moved"}, core.CellUpdate{Row: 6, Col: 5, Value: "a-moved"})},
		{ups: append(copyRow(1, 7, true), copyRow(8, 9, true)...)},
		{rows: [][]string{rows[10], rows[11], {"c1-x", "c2-new", "c3-x", "c4-new", "c5-x", "a-x"}}},
	}
	wide := relation.AttrSet(0b11111)
	runLayoutSteps(t, schema, rows, nil, steps, map[int]bool{1: true, 3: true, 4: true}, func(t *testing.T, p *pipeline.Pipeline) {
		if !containsOFD(p.Cover(), core.OFD{LHS: wide, RHS: 5}) {
			t.Fatalf("the cover %v lost C1..C5 → A", p.Cover())
		}
		bits := 0.0
		for c := 0; c < 5; c++ {
			bits += math.Log2(2 * float64(p.Relation().Dict(c).Size()+1))
		}
		if bits <= 64 {
			t.Fatalf("the five columns' lanes need %.1f bits, which packs", bits)
		}
	})
}

// containsOFD reports whether set holds d.
func containsOFD(set core.Set, d core.OFD) bool {
	for _, e := range set {
		if e == d {
			return true
		}
	}
	return false
}
