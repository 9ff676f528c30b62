package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// TestLHSKeyEncodingInjective is the injectivity property test for the
// monitor's LHS-key byte encoding: over random antecedent tuples, two
// rows encode to the same key iff their dict-encoded antecedent values
// are equal attribute by attribute. The cases include value ids chosen to
// collide under naive variable-width or delimiter-based encodings
// (shared low bytes, ids spanning the 1/2/3/4-byte boundaries).
func TestLHSKeyEncodingInjective(t *testing.T) {
	schema := relation.MustSchema("A", "B", "C")
	rel := relation.New(schema)
	rel.AppendRow([]string{"x", "x", "x"})
	rel.AppendRow([]string{"x", "x", "x"})
	cols := []int{0, 1, 2}

	boundary := []relation.Value{0, 1, 0xFF, 0x100, 0x101, 0xFFFF, 0x10000, 0xFFFFFF, 0x1000000, 1<<31 - 1}
	set := func(row int, vals [3]relation.Value) {
		for c, v := range vals {
			rel.SetValue(row, c, v)
		}
	}
	check := func(a, b [3]relation.Value) {
		t.Helper()
		set(0, a)
		set(1, b)
		ka := string(live.EncodeKey(rel, cols, 0, nil))
		kb := string(live.EncodeKey(rel, cols, 1, nil))
		if (ka == kb) != (a == b) {
			t.Fatalf("injectivity broken: %v vs %v, keys %x vs %x", a, b, ka, kb)
		}
		if len(ka) != 4*len(cols) || len(kb) != 4*len(cols) {
			t.Fatalf("keys must be fixed-width: %d and %d bytes for %d attrs", len(ka), len(kb), len(cols))
		}
	}
	// Boundary-value pairs: every combination in the first two attributes.
	for _, va := range boundary {
		for _, vb := range boundary {
			check([3]relation.Value{va, vb, 0}, [3]relation.Value{vb, va, 0})
			check([3]relation.Value{va, vb, 1}, [3]relation.Value{va, vb, 1})
		}
	}
	// Shifted-boundary pairs that collide if cells bleed into each other:
	// (0x100, 0) vs (0, 0x100) and friends.
	check([3]relation.Value{0x100, 0, 0}, [3]relation.Value{0, 0x100, 0})
	check([3]relation.Value{0x01, 0x0100, 0}, [3]relation.Value{0x0101, 0, 0})
	// Random sweep.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		var a, b [3]relation.Value
		for c := range a {
			a[c] = relation.Value(rng.Int31())
			if rng.Intn(3) == 0 {
				b[c] = a[c]
			} else {
				b[c] = relation.Value(rng.Int31())
			}
		}
		check(a, b)
	}
}

// TestMonitorSingletonPromotedToClass covers the lone-row lifecycle: a
// row recorded as a singleton (-(row+2) index encoding) is updated while
// still alone, then promoted into a two-tuple class by a later AppendRow
// with the same antecedent key. Every step must match a fresh Detect for
// every worker count, including more workers than dependencies.
func TestMonitorSingletonPromotedToClass(t *testing.T) {
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
			assertMatchesDetect := func(step string) {
				t.Helper()
				got, _ := json.Marshal(m.Report())
				want, _ := json.Marshal(Detect(rel, ont, sigma))
				if string(got) != string(want) {
					t.Fatalf("%s: report diverged\n got %s\nwant %s", step, got, want)
				}
			}

			// Fresh antecedent keys: singletons under both OFDs.
			r1, err := m.AppendRow([]string{"FR", "France", "fever", "CT", "flu", "doliprane"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AppendRow([]string{"JP", "Japan", "cough", "MRI", "asthma", "ventolin"}); err != nil {
				t.Fatal(err)
			}
			assertMatchesDetect("singletons")

			// Update a consequent of the still-singleton row: routed through
			// the lone-row encoding, re-verifies nothing (ci < 0).
			before := m.Reverified()
			if changed, err := m.Update(r1, schema.MustIndex("CTRY"), "Republique Francaise"); err != nil || !changed {
				t.Fatalf("changed=%v err=%v", changed, err)
			}
			if m.Reverified() != before {
				t.Fatalf("singleton update re-verified %d classes", m.Reverified()-before)
			}
			assertMatchesDetect("singleton update")

			// Same CC key again with a conflicting consequent: promotes the
			// lone row into a two-tuple class and must violate CC -> CTRY.
			if _, err := m.AppendRow([]string{"FR", "Francia", "nausea", "CT", "migraine", "sumatriptan"}); err != nil {
				t.Fatal(err)
			}
			if m.Satisfied() {
				t.Fatal("promoted class with conflicting consequents must violate")
			}
			assertMatchesDetect("promotion")

			// And the JP singleton promotes cleanly (same consequent).
			if _, err := m.AppendRow([]string{"JP", "Japan", "cough", "XRAY", "asthma", "ventolin"}); err != nil {
				t.Fatal(err)
			}
			assertMatchesDetect("clean promotion")

			// A batch over the promoted classes exercises the batch path on
			// classes born from lone rows.
			ctry := schema.MustIndex("CTRY")
			if err := m.ApplyBatch([]CellUpdate{
				{Row: r1, Col: ctry, Value: "Francia"},
				{Row: r1 + 2, Col: ctry, Value: "Francia"},
			}); err != nil {
				t.Fatal(err)
			}
			if !m.Satisfied() {
				t.Fatal("batch repaired the promoted class")
			}
			assertMatchesDetect("batch repair")
		})
	}
}

// TestMonitorReportAtEpochs pins the epoch snapshot semantics: every
// mutation publishes a new epoch, ReportAt replays any retained epoch
// byte-identically, and epochs evicted from the retention window (or
// never published) are errors. The steps append to a class and move rows
// into and out of classes at every position after their lists were
// published, so an edit that writes a published member list in place (or
// the cached partition behind it) changes an earlier epoch's replay.
func TestMonitorReportAtEpochs(t *testing.T) {
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{MustParse(schema, "SYMP, DIAG -> MED")}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 0 {
		t.Fatalf("initial epoch = %d", m.Epoch())
	}
	med := schema.MustIndex("MED")

	history := map[uint64]string{}
	snap := func() {
		rep, err := json.Marshal(m.Report())
		if err != nil {
			t.Fatal(err)
		}
		history[m.Epoch()] = string(rep)
	}
	snap()
	if _, err := m.Update(7, med, "unknown-a"); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch after update = %d, want 1", m.Epoch())
	}
	snap()
	if err := m.ApplyBatch([]CellUpdate{{Row: 8, Col: med, Value: "unknown-b"}}); err != nil {
		t.Fatal(err)
	}
	snap()
	if _, err := m.AppendRow([]string{"FR", "France", "fever", "CT", "flu", "doliprane"}); err != nil {
		t.Fatal(err)
	}
	snap()
	// Classes: {0,1,2} and {3,4,5} FD-only, {7,8,9,10} violating; rows 6
	// and 11 lone. Row 12 joins the first FD-only class, whose list
	// neighbours the second one in the cached partition.
	if _, err := m.AppendRow([]string{"US", "USA", "joint pain", "CT", "osteoarthritis", "naproxen"}); err != nil {
		t.Fatal(err)
	}
	snap()
	symp, diag := schema.MustIndex("SYMP"), schema.MustIndex("DIAG")
	// Row 4 leaves the middle of {3,4,5} and enters the violating class
	// ahead of its members; row 5 enters the middle of {0,1,2,12}, whose
	// list the append grew with room to spare.
	if err := m.ApplyBatch([]CellUpdate{
		{Row: 4, Col: symp, Value: "headache"}, {Row: 4, Col: diag, Value: "hypertension"},
		{Row: 5, Col: symp, Value: "joint pain"}, {Row: 5, Col: diag, Value: "osteoarthritis"},
	}); err != nil {
		t.Fatal(err)
	}
	snap()
	// Row 8 leaves the middle of the violating class and births a class
	// with lone row 6.
	if err := m.ApplyBatch([]CellUpdate{{Row: 8, Col: symp, Value: "chest pain"}}); err != nil {
		t.Fatal(err)
	}
	snap()
	if _, err := m.AppendRow([]string{"US", "USA", "headache", "CT", "hypertension", "tiazac"}); err != nil {
		t.Fatal(err)
	}
	snap()
	if want, _ := json.Marshal(Detect(rel, ont, sigma)); history[m.Epoch()] != string(want) {
		t.Fatalf("final report diverged from Detect\n got %s\nwant %s", history[m.Epoch()], want)
	}

	for epoch, want := range history {
		rep, err := m.ReportAt(epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		got, _ := json.Marshal(rep)
		if string(got) != want {
			t.Fatalf("epoch %d replay diverged\n got %s\nwant %s", epoch, got, want)
		}
	}
	if _, err := m.ReportAt(m.Epoch() + 1); err == nil {
		t.Fatal("future epoch must error")
	}
	// Push the early epochs out of the retention window.
	for i := 0; i < epochRetention+2; i++ {
		if _, err := m.Update(7, med, fmt.Sprintf("churn-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ReportAt(0); err == nil {
		t.Fatal("evicted epoch must error")
	}
	if _, err := m.ReportAt(m.Epoch()); err != nil {
		t.Fatalf("newest epoch must stay readable: %v", err)
	}
}

// TestMonitorReportAtWordBoundaries places flagged and FD-only tuples on
// both sides of the tuple sets' first word boundary (ids 63 and 64) and on
// the last row of an append that opens a third word. Every report, and
// ReportAt of the epoch retained from before the append, must count them
// exactly and match what was reported at its epoch.
func TestMonitorReportAtWordBoundaries(t *testing.T) {
	schema := relation.MustSchema("K", "V", "W")
	ont := ontology.New()
	ont.MustAddClass("A", "S", ontology.NoClass, "a1", "a2")
	rows := make([][]string, 0, 65)
	for i := 0; i < 63; i++ {
		rows = append(rows, []string{fmt.Sprintf("k%d", i), "z", "a1"})
	}
	// Rows 63 and 64 form one class: V = {x, y} violates K -> V, and
	// W = {a1, a2} is FD-only for K -> W.
	rows = append(rows, []string{"c", "x", "a1"}, []string{"c", "y", "a2"})
	rel, err := relation.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	sigma := Set{MustParse(schema, "K -> V"), MustParse(schema, "K -> W")}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(flagged, fdOnly int) string {
		t.Helper()
		rep := m.Report()
		if rep.TuplesFlagged != flagged || rep.FDOnlyFlagged != fdOnly {
			t.Fatalf("epoch %d: TuplesFlagged/FDOnlyFlagged = %d/%d, want %d/%d",
				m.Epoch(), rep.TuplesFlagged, rep.FDOnlyFlagged, flagged, fdOnly)
		}
		got, _ := json.Marshal(rep)
		if want, _ := json.Marshal(Detect(rel, ont, sigma)); string(got) != string(want) {
			t.Fatalf("epoch %d: report diverged from Detect\n got %s\nwant %s", m.Epoch(), got, want)
		}
		return string(got)
	}
	before, beforeRep := m.Epoch(), check(2, 2)
	// Rows 65..129 are lone; row 130 joins the class of rows 63 and 64.
	var appended [][]string
	for i := 65; i < 130; i++ {
		appended = append(appended, []string{fmt.Sprintf("k%d", i), "z", "a1"})
	}
	appended = append(appended, []string{"c", "z", "a2"})
	if err := m.AppendRows(appended); err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 131 {
		t.Fatalf("rows = %d, want 131", rel.NumRows())
	}
	after, afterRep := m.Epoch(), check(3, 3)
	// One more epoch, so both are retained older epochs.
	if _, err := m.Update(130, schema.MustIndex("V"), "x"); err != nil {
		t.Fatal(err)
	}
	check(3, 3)
	for epoch, want := range map[uint64]string{before: beforeRep, after: afterRep} {
		rep, err := m.ReportAt(epoch)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(rep); string(got) != want {
			t.Fatalf("ReportAt(%d) diverged from the report taken then\n got %s\nwant %s", epoch, got, want)
		}
	}
}

// TestMonitorConcurrentReport drives a stream of batches and appends
// while reader goroutines continuously call Report, ReportAt, Satisfied,
// ViolationCount, and Epoch. Run under -race (make race) this pins the
// snapshot-consistency contract: readers never block the writer and only
// ever observe fully published epochs — every observed report must equal
// the canonical report of some published epoch.
func TestMonitorConcurrentReport(t *testing.T) {
	ont, yPool, zPool := monitorStreamOntology()
	schema := relation.MustSchema("P", "Q", "Y", "Z")
	rng := rand.New(rand.NewSource(11))
	rows := make([][]string, 0, 64)
	for i := 0; i < 64; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("p%d", rng.Intn(8)),
			fmt.Sprintf("q%d", rng.Intn(3)),
			yPool[rng.Intn(len(yPool))],
			zPool[rng.Intn(len(zPool))],
		})
	}
	rel, err := relation.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	sigma := Set{
		MustParse(schema, "P -> Y"),
		MustParse(schema, "P, Q -> Z"),
	}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The writer records each epoch's canonical report as it publishes;
	// readers assert any report they observe matches its epoch's record.
	var mu sync.Mutex
	canonical := map[uint64]string{}
	record := func() {
		rep, err := json.Marshal(m.Report())
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		canonical[m.Epoch()] = string(rep)
		mu.Unlock()
	}
	record()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				epoch := m.Epoch()
				rep, err := m.ReportAt(epoch)
				if err != nil {
					continue // evicted between Epoch() and ReportAt
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.TuplesFlagged < len(rep.Violations) {
					t.Errorf("epoch %d: %d violations but %d flagged tuples", epoch, len(rep.Violations), rep.TuplesFlagged)
					return
				}
				mu.Lock()
				want, ok := canonical[epoch]
				mu.Unlock()
				// The writer may not have recorded this epoch yet (record
				// happens after publish); skip unrecorded epochs.
				if ok && string(got) != want {
					t.Errorf("epoch %d: concurrent report diverged\n got %s\nwant %s", epoch, got, want)
					return
				}
				m.Satisfied()
				m.ViolationCount()
			}
		}()
	}

	yCol, zCol := schema.MustIndex("Y"), schema.MustIndex("Z")
	for step := 0; step < 120; step++ {
		if step%4 == 3 {
			if _, err := m.AppendRow([]string{
				fmt.Sprintf("p%d", rng.Intn(8)),
				fmt.Sprintf("q%d", rng.Intn(3)),
				yPool[rng.Intn(len(yPool))],
				zPool[rng.Intn(len(zPool))],
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := make([]CellUpdate, 0, 8)
			for j := 0; j < 2+rng.Intn(7); j++ {
				col, pool := yCol, yPool
				if rng.Intn(2) == 0 {
					col, pool = zCol, zPool
				}
				batch = append(batch, CellUpdate{Row: rng.Intn(m.NumRows()), Col: col, Value: pool[rng.Intn(len(pool))]})
			}
			if err := m.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		record()
	}
	close(stop)
	readers.Wait()

	got, _ := json.Marshal(m.Report())
	want, _ := json.Marshal(Detect(rel, ont, sigma))
	if string(got) != string(want) {
		t.Fatalf("final report diverged from fresh Detect\n got %s\nwant %s", got, want)
	}
}
