package core

import (
	"strconv"
	"strings"
	"testing"

	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

func table3(t *testing.T) (*relation.Relation, *ontology.Ontology) {
	t.Helper()
	schema := relation.MustSchema("CC", "CTRY", "SYMP", "DIAG", "MED")
	rel, err := relation.FromRows(schema, [][]string{
		{"US", "USA", "headache", "hypertension", "cartia"},
		{"US", "USA", "headache", "hypertension", "ASA"},
		{"US", "America", "headache", "hypertension", "tiazac"},
		{"US", "United States", "headache", "hypertension", "adizem"},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	o.MustAddClass("United States of America", "GEO", ontology.NoClass, "US", "USA", "America", "United States")
	o.MustAddClass("diltiazem", "FDA", ontology.NoClass, "cartia", "tiazac")
	o.MustAddClass("aspirin", "MoH", ontology.NoClass, "cartia", "ASA")
	return rel, o
}

func TestDetectPaperExample(t *testing.T) {
	rel, ont := table3(t)
	schema := rel.Schema()
	sigma := Set{
		MustParse(schema, "CC -> CTRY"),
		MustParse(schema, "SYMP, DIAG -> MED"),
	}
	rep := Detect(rel, ont, sigma)
	// CC -> CTRY holds semantically (all of {USA, America, United States}
	// share one interpretation) but would be flagged by an FD.
	if rep.FDOnlyFlagged != 4 {
		t.Errorf("FD-only flagged = %d, want 4", rep.FDOnlyFlagged)
	}
	// [SYMP, DIAG] -> MED genuinely violates: {cartia, ASA, tiazac,
	// adizem} share no sense.
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d, want 1 (%+v)", len(rep.Violations), rep.Violations)
	}
	v := rep.Violations[0]
	if len(v.Values) != 4 {
		t.Fatalf("values = %v", v.Values)
	}
	// The best sense covers 2 of 4 values (either FDA {cartia, tiazac} or
	// MoH {cartia, ASA}); adizem is out of the ontology entirely.
	if v.Covered != 2 {
		t.Errorf("covered = %d, want 2", v.Covered)
	}
	if len(v.OutOfOntology) != 1 || v.OutOfOntology[0] != "adizem" {
		t.Errorf("out-of-ontology = %v", v.OutOfOntology)
	}
	if rep.TuplesFlagged != 4 {
		t.Errorf("tuples flagged = %d", rep.TuplesFlagged)
	}
	// Formatting sanity.
	line := v.Format(schema, ont)
	if !strings.Contains(line, "adizem") || !strings.Contains(line, "MED") {
		t.Errorf("explanation incomplete: %s", line)
	}
}

func TestDetectCleanInstance(t *testing.T) {
	rel, ont := table1(t)
	sigma := Set{
		MustParse(rel.Schema(), "CC -> CTRY"),
		MustParse(rel.Schema(), "SYMP, DIAG -> MED"),
	}
	rep := Detect(rel, ont, sigma)
	if len(rep.Violations) != 0 {
		t.Fatalf("clean instance has %d violations", len(rep.Violations))
	}
	if rep.FDOnlyFlagged == 0 {
		t.Fatal("expected FD false positives on the synonym-rich instance")
	}
}

// TestDetectAllocsIndependentOfClassCount guards the allocation-free
// detection scan: on an instance whose classes are all syntactically
// constant, Detect must not allocate per class (no per-class distinct
// maps), so total allocations stay bounded by the fixed setup cost
// (verifier tables, partition cache, report, and at two workers each
// worker's tuple sets) regardless of class count.
func TestDetectAllocsIndependentOfClassCount(t *testing.T) {
	schema := relation.MustSchema("X", "Y")
	const classes = 800
	rows := make([][]string, 0, classes*3)
	for c := 0; c < classes; c++ {
		x := "x" + strconv.Itoa(c)
		y := "y" + strconv.Itoa(c)
		for k := 0; k < 3; k++ {
			rows = append(rows, []string{x, y})
		}
	}
	rel, err := relation.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	ont := ontology.New()
	ont.MustAddClass("C", "S", ontology.NoClass, "y0", "y1")
	// Two antecedents, so two workers both take a group.
	sigma := Set{MustParse(schema, "X -> Y"), MustParse(schema, "Y -> X")}
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(5, func() {
			rep := DetectWorkers(rel, ont, sigma, workers)
			if len(rep.Violations) != 0 {
				t.Fatal("instance is clean by construction")
			}
		})
		// The old inner loop allocated one distinct map per class (≥ 800);
		// the fixed setup cost is far below that.
		if allocs > 200 {
			t.Fatalf("workers=%d: Detect allocates %.0f times for %d satisfied classes; want O(setup), not O(classes)", workers, allocs, classes)
		}
	}
}
