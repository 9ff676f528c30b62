package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// testSubstrate builds a fresh substrate over rel and ont for a test
// monitor.
func testSubstrate(t *testing.T, rel *relation.Relation, ont *ontology.Ontology) *Substrate {
	t.Helper()
	sub, err := NewSubstrate(context.Background(), rel, ont, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestMonitorIncrementalMatchesFull(t *testing.T) {
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{
		MustParse(schema, "CC -> CTRY"),
		MustParse(schema, "SYMP, DIAG -> MED"),
	}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Satisfied() {
		t.Fatal("table 1 should satisfy Σ initially")
	}

	// Randomized update sequence on consequent columns; after each update
	// the monitor's verdict must match full re-verification.
	rng := rand.New(rand.NewSource(3))
	medCol := schema.MustIndex("MED")
	ctryCol := schema.MustIndex("CTRY")
	values := []string{"cartia", "tiazac", "ASA", "adizem", "ibuprofen", "naproxen", "USA", "Bharat"}
	for step := 0; step < 60; step++ {
		col := medCol
		if rng.Intn(2) == 0 {
			col = ctryCol
		}
		row := rng.Intn(rel.NumRows())
		if _, err := m.Update(row, col, values[rng.Intn(len(values))]); err != nil {
			t.Fatal(err)
		}
		full := NewVerifier(rel, ont, nil).SatisfiesAll(sigma)
		if m.Satisfied() != full {
			t.Fatalf("step %d: monitor=%v full=%v", step, m.Satisfied(), full)
		}
	}
}

func TestMonitorRejectsOutOfRangeUpdates(t *testing.T) {
	rel, ont := table1(t)
	sigma := Set{MustParse(rel.Schema(), "CC -> CTRY")}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(999, 0, "x"); err == nil {
		t.Fatal("out-of-range update must be rejected")
	}
}

// TestMonitorChainedSigmaWritePath drives a standalone monitor over a
// chained Σ (CTRY is both a consequent and an antecedent) through batches
// that write antecedents and consequents, appends, and a batch cancelled
// after its writes: after every op the report must equal a fresh Detect,
// for workers ∈ {1, 2, 4}. The reopened runs round-trip the monitor
// through its snapshot encoding before every op, so each op starts on
// tables rebuilt from a saved body with no key maps.
func TestMonitorChainedSigmaWritePath(t *testing.T) {
	type op struct {
		name    string
		batch   []CellUpdate
		appends [][]string
		cancel  bool
	}
	ops := []op{
		{name: "consequent", batch: []CellUpdate{{Row: 7, Col: 5, Value: "unknown-drug"}, {Row: 0, Col: 1, Value: "America"}}},
		{name: "antecedent", batch: []CellUpdate{{Row: 3, Col: 0, Value: "US"}, {Row: 9, Col: 1, Value: "Atlantis"}}},
		{name: "cancelled", batch: []CellUpdate{{Row: 1, Col: 0, Value: "CA"}, {Row: 2, Col: 5, Value: "aspirin"}}, cancel: true},
		{name: "append", appends: [][]string{
			{"CA", "Canada", "fever", "CT", "flu", "ibuprofen"},
			{"FR", "France", "fever", "CT", "flu", "doliprane"},
		}},
		{name: "mixed", batch: []CellUpdate{{Row: 11, Col: 1, Value: "India"}, {Row: 12, Col: 0, Value: "FR"}, {Row: 12, Col: 0, Value: "CA"}, {Row: 4, Col: 5, Value: "tylenol"}}},
	}
	for _, reopen := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("workers=%d", workers)
			if reopen {
				name = "reopened/" + name
			}
			t.Run(name, func(t *testing.T) {
				rel, ont := table1(t)
				schema := rel.Schema()
				sigma := Set{MustParse(schema, "CC -> CTRY"), MustParse(schema, "CTRY -> MED")}
				m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range ops {
					if reopen {
						m = reopenMonitor(t, m, workers)
					}
					if o.appends != nil {
						if err := m.AppendRows(o.appends); err != nil {
							t.Fatalf("%s: %v", o.name, err)
						}
					} else {
						var ctx context.Context = context.Background()
						if o.cancel {
							ctx = newCancelOnPoll(1)
						}
						err := m.ApplyBatchContext(ctx, o.batch)
						if o.cancel != errors.Is(err, context.Canceled) || (!o.cancel && err != nil) {
							t.Fatalf("%s: err = %v", o.name, err)
						}
					}
					got, _ := json.Marshal(m.Report())
					want, _ := json.Marshal(Detect(rel, ont, sigma))
					if string(got) != string(want) {
						t.Fatalf("%s: report diverged from Detect\n got %s\nwant %s", o.name, got, want)
					}
				}
			})
		}
	}
}

func TestMonitorViolationBookkeeping(t *testing.T) {
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{MustParse(schema, "SYMP, DIAG -> MED")}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	med := schema.MustIndex("MED")
	// Break the headache/hypertension class.
	if _, err := m.Update(7, med, "unknown-drug"); err != nil {
		t.Fatal(err)
	}
	if m.Satisfied() || m.ViolationCount() != 1 {
		t.Fatalf("expected 1 violation, got %d", m.ViolationCount())
	}
	vc := m.ViolatingClasses()
	if len(vc[0]) != 1 {
		t.Fatalf("violating classes = %v", vc)
	}
	// Fix it again.
	if _, err := m.Update(7, med, "cartia"); err != nil {
		t.Fatal(err)
	}
	if !m.Satisfied() {
		t.Fatal("violation should have cleared")
	}
}

// TestMonitorUpdateNoOp: writing a cell's current value must skip
// re-verification entirely and report unchanged.
func TestMonitorUpdateNoOp(t *testing.T) {
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{MustParse(schema, "SYMP, DIAG -> MED")}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	med := schema.MustIndex("MED")
	before := m.Reverified()
	changed, err := m.Update(7, med, rel.String(7, med))
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("no-op update must report unchanged")
	}
	if m.Reverified() != before {
		t.Fatalf("no-op update re-verified %d classes", m.Reverified()-before)
	}
	// The batched path must skip no-ops the same way.
	if err := m.ApplyBatch([]CellUpdate{{Row: 7, Col: med, Value: rel.String(7, med)}}); err != nil {
		t.Fatal(err)
	}
	if m.Reverified() != before {
		t.Fatal("no-op batch must not re-verify")
	}
	// A real update does re-verify.
	if changed, err = m.Update(7, med, "unknown-drug"); err != nil || !changed {
		t.Fatalf("changed=%v err=%v", changed, err)
	}
	if m.Reverified() != before+1 {
		t.Fatalf("expected exactly 1 re-verification, got %d", m.Reverified()-before)
	}
}

// TestMonitorAppendRow covers the three LHS-key join cases: joining an
// existing class, birthing a class from a formerly-singleton row, and
// recording a fresh singleton — each verified against a fresh Detect.
func TestMonitorAppendRow(t *testing.T) {
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{
		MustParse(schema, "CC -> CTRY"),
		MustParse(schema, "SYMP, DIAG -> MED"),
	}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesDetect := func(step string) {
		t.Helper()
		got, err1 := json.Marshal(m.Report())
		want, err2 := json.Marshal(Detect(rel, ont, sigma))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: monitor report diverged\n got %s\nwant %s", step, got, want)
		}
	}

	// Join an existing class with a synonym value: stays satisfied.
	id, err := m.AppendRow([]string{"US", "United States", "headache", "CT", "hypertension", "cartia"})
	if err != nil {
		t.Fatal(err)
	}
	if id != 11 {
		t.Fatalf("row id = %d", id)
	}
	if !m.Satisfied() {
		t.Fatal("synonym append should keep Σ satisfied")
	}
	assertMatchesDetect("join")

	// Fresh antecedent key: a singleton, cannot violate.
	if _, err := m.AppendRow([]string{"FR", "France", "fever", "CT", "flu", "doliprane"}); err != nil {
		t.Fatal(err)
	}
	if !m.Satisfied() {
		t.Fatal("singleton append cannot violate")
	}
	assertMatchesDetect("singleton")

	// Same key again: births a two-tuple class from the singleton, with a
	// conflicting consequent — must violate CC -> CTRY now.
	if _, err := m.AppendRow([]string{"FR", "Francia", "fever", "CT", "flu", "doliprane"}); err != nil {
		t.Fatal(err)
	}
	if m.Satisfied() {
		t.Fatal("class born from singleton must violate on conflicting consequents")
	}
	assertMatchesDetect("birth")

	// Shape errors are rejected without mutating the relation.
	if _, err := m.AppendRow([]string{"too", "short"}); err == nil {
		t.Fatal("short row must be rejected")
	}
	if m.NumRows() != 14 {
		t.Fatalf("rows = %d, want 14", m.NumRows())
	}
}

// TestMonitorAppendBatchVerifiesOnce: one AppendRows batch re-verifies
// each class its rows joined exactly once, however many of its rows join
// it, and publishes one epoch. The batch holds rows joining one existing
// class, rows sharing a fresh key (lone, then a birth, then a join inside
// the batch), and a row birthing a class with a pre-batch lone partner.
// The expected count is derived from the final instance: the distinct
// (OFD, antecedent key) pairs of the appended rows whose class has at
// least two tuples.
func TestMonitorAppendBatchVerifiesOnce(t *testing.T) {
	rows := [][]string{
		// Three rows joining the existing US and headache/hypertension
		// classes.
		{"US", "USA", "headache", "CT", "hypertension", "cartia"},
		{"US", "America", "headache", "MRI", "hypertension", "tiazac"},
		{"US", "USA", "headache", "CT", "hypertension", "unknown-drug"},
		// A fresh key (FR, fever/flu): lone, birth, join.
		{"FR", "France", "fever", "CT", "flu", "doliprane"},
		{"FR", "Francia", "fever", "CT", "flu", "doliprane"},
		{"FR", "France", "fever", "CT", "flu", "aspirin"},
		// Births with the pre-batch lone rows 2 (CA) and 6 (chest
		// pain/hypertension).
		{"CA", "Kanada", "chest pain", "X-ray", "hypertension", "morphine"},
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rel, ont := table1(t)
			schema := rel.Schema()
			sigma := Set{
				MustParse(schema, "CC -> CTRY"),
				MustParse(schema, "SYMP, DIAG -> MED"),
			}
			m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			t0, epoch, before := rel.NumRows(), m.Epoch(), m.Reverified()
			if err := m.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			key := func(d OFD, r int) string {
				var parts []string
				for _, c := range d.LHS.Attrs() {
					parts = append(parts, rel.String(r, c))
				}
				return strings.Join(parts, "\x00")
			}
			dirty := 0
			for _, d := range sigma {
				size := make(map[string]int)
				for r := 0; r < rel.NumRows(); r++ {
					size[key(d, r)]++
				}
				seen := make(map[string]bool)
				for r := t0; r < rel.NumRows(); r++ {
					if k := key(d, r); size[k] >= 2 && !seen[k] {
						seen[k] = true
						dirty++
					}
				}
			}
			if dirty != 6 {
				t.Fatalf("fixture has %d dirty (OFD, class) pairs, want 6", dirty)
			}
			if got := m.Reverified() - before; got != dirty {
				t.Fatalf("append batch re-verified %d classes, want %d (one per dirty class)", got, dirty)
			}
			if got := m.Epoch() - epoch; got != 1 {
				t.Fatalf("append batch published %d epochs, want 1", got)
			}
			got, _ := json.Marshal(m.Report())
			want, _ := json.Marshal(Detect(rel, ont, sigma))
			if string(got) != string(want) {
				t.Fatalf("report diverged from Detect\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestMonitorApplyBatchDedupsAndMatches: a batch touching one class many
// times re-verifies it once, and the resulting state matches a fresh
// Detect for every worker count.
func TestMonitorApplyBatchDedupsAndMatches(t *testing.T) {
	for _, workers := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rel, ont := table1(t)
			schema := rel.Schema()
			sigma := Set{
				MustParse(schema, "CC -> CTRY"),
				MustParse(schema, "SYMP, DIAG -> MED"),
			}
			m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.Workers = workers
			med := schema.MustIndex("MED")
			before := m.Reverified()
			// Three updates into the same headache/hypertension class (rows
			// 7, 8, 10 share SYMP=headache? rows 7..10 differ in TEST which
			// is not in the LHS — SYMP,DIAG identical) → one dirty class.
			err = m.ApplyBatch([]CellUpdate{
				{Row: 7, Col: med, Value: "unknown-a"},
				{Row: 8, Col: med, Value: "unknown-b"},
				{Row: 10, Col: med, Value: "unknown-c"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Reverified() - before; got != 1 {
				t.Fatalf("batch re-verified %d classes, want 1 (dedup)", got)
			}
			got, _ := json.Marshal(m.Report())
			want, _ := json.Marshal(Detect(rel, ont, sigma))
			if string(got) != string(want) {
				t.Fatalf("batched state diverged from Detect\n got %s\nwant %s", got, want)
			}
		})
	}
}

// monitorStreamOntology builds a small multi-sense ontology over generated
// value pools for the stream property test.
func monitorStreamOntology() (*ontology.Ontology, []string, []string) {
	ont := ontology.New()
	var yPool, zPool []string
	for g := 0; g < 6; g++ {
		ys := []string{
			fmt.Sprintf("y%d-a", g), fmt.Sprintf("y%d-b", g), fmt.Sprintf("y%d-c", g),
		}
		ont.MustAddClass(fmt.Sprintf("Y%d", g), "S1", ontology.NoClass, ys...)
		yPool = append(yPool, ys...)
		zs := []string{
			fmt.Sprintf("z%d-a", g), fmt.Sprintf("z%d-b", g),
		}
		ont.MustAddClass(fmt.Sprintf("Z%d", g), "S2", ontology.NoClass, zs...)
		zPool = append(zPool, zs...)
	}
	// The "jaguar" effect: values shared across senses.
	ont.MustAddClass("Ymix", "S3", ontology.NoClass, "y0-a", "y1-a", "y2-a")
	// Out-of-ontology junk makes classes violate.
	yPool = append(yPool, "junk-y1", "junk-y2")
	zPool = append(zPool, "junk-z1", "junk-z2")
	return ont, yPool, zPool
}

// TestMonitorStreamEquivalence is the equivalence property test: a seeded
// random stream of single appends, append batches, single updates, and
// batched updates must leave
// the monitor's violation state byte-identical to a fresh Detect on the
// final instance, for every Workers ∈ {1, 2, 4, 0}; all worker counts
// must also agree with each other. Runs under -race via make race, which
// exercises the parallel per-dependency re-verification and concurrent
// names-table extension.
func TestMonitorStreamEquivalence(t *testing.T) {
	ont, yPool, zPool := monitorStreamOntology()
	schema := relation.MustSchema("P", "Q", "Y", "Z")
	newRow := func(rng *rand.Rand) []string {
		return []string{
			fmt.Sprintf("p%d", rng.Intn(8)),
			fmt.Sprintf("q%d", rng.Intn(3)),
			yPool[rng.Intn(len(yPool))],
			zPool[rng.Intn(len(zPool))],
		}
	}
	var reports []string
	for _, workers := range []int{1, 2, 4, 0} {
		rng := rand.New(rand.NewSource(42))
		rows := make([][]string, 0, 50)
		for i := 0; i < 50; i++ {
			rows = append(rows, newRow(rng))
		}
		rel, err := relation.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		sigma := Set{
			MustParse(schema, "P -> Y"),
			MustParse(schema, "P, Q -> Z"),
		}
		m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, workers, nil)
		if err != nil {
			t.Fatal(err)
		}

		yCol, zCol := schema.MustIndex("Y"), schema.MustIndex("Z")
		randUpdate := func() CellUpdate {
			col, pool := yCol, yPool
			if rng.Intn(2) == 0 {
				col, pool = zCol, zPool
			}
			return CellUpdate{Row: rng.Intn(m.NumRows()), Col: col, Value: pool[rng.Intn(len(pool))]}
		}
		for step := 0; step < 250; step++ {
			switch k := rng.Intn(12); {
			case k < 3: // append
				if _, err := m.AppendRow(newRow(rng)); err != nil {
					t.Fatal(err)
				}
			case k < 6: // single update
				u := randUpdate()
				if _, err := m.Update(u.Row, u.Col, u.Value); err != nil {
					t.Fatal(err)
				}
			case k < 10: // batch
				batch := make([]CellUpdate, 0, 12)
				for j := 0; j < 4+rng.Intn(9); j++ {
					batch = append(batch, randUpdate())
				}
				if err := m.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			default: // append batch: 2–8 rows over the small key pools,
				// about half of them on one of two antecedents new to this
				// batch, so classes are born and joined inside it
				rows := make([][]string, 2+rng.Intn(7))
				for j := range rows {
					rows[j] = newRow(rng)
					if rng.Intn(2) == 0 {
						rows[j][0] = fmt.Sprintf("p%d-%d", step, rng.Intn(2))
					}
				}
				if err := m.AppendRows(rows); err != nil {
					t.Fatal(err)
				}
			}
			if step%50 == 0 {
				if full := NewVerifier(rel, ont, nil).SatisfiesAll(sigma); m.Satisfied() != full {
					t.Fatalf("workers=%d step %d: monitor=%v full=%v", workers, step, m.Satisfied(), full)
				}
			}
		}

		got, err := json.Marshal(m.Report())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(Detect(rel, ont, sigma))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: final report diverged from fresh Detect\n got %s\nwant %s", workers, got, want)
		}
		reports = append(reports, string(got))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Fatalf("reports differ across worker counts:\n%s\nvs\n%s", reports[0], reports[i])
		}
	}
}

// TestVerifierNamesTableExtendsOnIntern: a monitored update that interns a
// brand-new value must extend the memoized names table (so the second
// probe — and every later class scan — hits the table instead of paying
// the dictionary + ontology string lookup again).
func TestVerifierNamesTableExtendsOnIntern(t *testing.T) {
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{MustParse(schema, "SYMP, DIAG -> MED")}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	med := schema.MustIndex("MED")
	sizeBefore := rel.Dict(med).Size()
	if got := m.v.namesTableLen(med); got != sizeBefore {
		t.Fatalf("names table covers %d of %d built values", got, sizeBefore)
	}
	// "adizem" is new to the MED dictionary; the update's re-verification
	// probes it once, which must fold it (and any other new ids) into the
	// table.
	if _, err := m.Update(7, med, "adizem"); err != nil {
		t.Fatal(err)
	}
	if rel.Dict(med).Size() != sizeBefore+1 {
		t.Fatalf("dict size = %d, want %d", rel.Dict(med).Size(), sizeBefore+1)
	}
	if got := m.v.namesTableLen(med); got != sizeBefore+1 {
		t.Fatalf("names table not extended: covers %d of %d values", got, sizeBefore+1)
	}
	// Second probe: the table answers directly (no growth, still correct).
	val, _ := rel.Dict(med).Lookup("adizem")
	if names := m.v.namesOf(med, val); len(names) != 0 {
		t.Fatalf("adizem is out of the ontology, names = %v", names)
	}
	if got := m.v.namesTableLen(med); got != sizeBefore+1 {
		t.Fatalf("second probe changed the table: %d", got)
	}
}
