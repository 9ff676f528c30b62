package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// moveStep is one monitor input of the antecedent-move tests: rows to
// append when rows is non-nil, a batch of cell updates otherwise. Before
// it, the monitor is round-tripped through a snapshot of the substrate
// and monitor when reopen is set, and registers and unregisters the
// given dependencies.
type moveStep struct {
	ups        []CellUpdate
	rows       [][]string
	reopen     bool
	register   []OFD
	unregister []OFD
}

// moveSchema is the antecedent-move tests' schema: X → A, X,Y → B and
// A → B form a chained Σ in which A is both a consequent and an
// antecedent.
var moveSchema = relation.MustSchema("X", "Y", "A", "B")

func moveSigma() Set {
	return Set{
		MustParse(moveSchema, "X -> A"),
		MustParse(moveSchema, "X, Y -> B"),
		MustParse(moveSchema, "A -> B"),
	}
}

// reopenMonitor round-trips the monitor and its substrate through the
// snapshot encoding a pipeline section carries and returns the restored
// monitor over the same relation.
func reopenMonitor(t *testing.T, m *Monitor, workers int) *Monitor {
	t.Helper()
	var w wire.Writer
	AppendSubstrate(&w, m.sub)
	AppendMonitorBody(&w, m)
	r := wire.NewReader(append([]byte(nil), w.Bytes()...))
	sub, err := DecodeSubstrate(r, m.rel, m.v.Ontology(), workers)
	if err != nil {
		t.Fatalf("DecodeSubstrate: %v", err)
	}
	back, err := DecodeMonitorBody(r, sub, workers, nil)
	if err != nil {
		t.Fatalf("DecodeMonitorBody: %v", err)
	}
	if err := sub.CheckHolds(); err != nil {
		t.Fatalf("CheckHolds: %v", err)
	}
	return back
}

// checkMonitorState asserts the monitor's report is byte-identical to a
// fresh Detect and that its dependencies and the substrate's tables are
// mutually consistent: the substrate holds exactly one table per distinct
// antecedent of Σ, which every dependency over it runs on, with member
// lists; the restore checks; every class member's row→class entry naming
// its class, every class size its list's length, every dependency's
// multiset counting its members' consequents, and the key map, whose
// every entry must be the key of its class's first member (or its lone
// row), one entry per non-empty class and lone row.
func checkMonitorState(t *testing.T, label string, m *Monitor) {
	t.Helper()
	got, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(Detect(m.rel, m.v.Ontology(), m.sigma))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: report diverged from Detect\n got %s\nwant %s", label, got, want)
	}
	if len(m.deps) != len(m.sigma) {
		t.Fatalf("%s: %d dependency states for %d dependencies", label, len(m.deps), len(m.sigma))
	}
	holds := map[relation.AttrSet]int{}
	for i, dep := range m.deps {
		if dep.d != m.sigma[i] {
			t.Fatalf("%s: state %d is %v's, Σ holds %v there", label, i, dep.d, m.sigma[i])
		}
		if m.sub.State(dep.d) != dep.st || m.sub.Table(dep.d.LHS) != dep.st.tab {
			t.Fatalf("%s: %v runs on a state or table the substrate does not hold", label, dep.d)
		}
		holds[dep.d.LHS]++
	}
	if len(m.sub.tables) != len(holds) {
		t.Fatalf("%s: the substrate holds %d tables for %d antecedents", label, len(m.sub.tables), len(holds))
	}
	for x, n := range holds {
		h := m.sub.tables[x]
		if h.holds != n || h.members != n {
			t.Fatalf("%s: the table over %v has %d holds and %d member holds for %d dependencies", label, x, h.holds, h.members, n)
		}
		tab := h.tab
		if tab.Members == nil {
			t.Fatalf("%s: the table over %v has no member lists", label, x)
		}
		if err := checkTable(tab, m.rel.NumRows()); err != nil {
			t.Fatalf("%s: table over %v: %v", label, x, err)
		}
		for ci, class := range tab.Members {
			if int(tab.Sizes[ci]) != len(class) {
				t.Fatalf("%s: table over %v class %d has size %d and %d members", label, x, ci, tab.Sizes[ci], len(class))
			}
			for _, r := range class {
				if tab.RowClass[r] != int32(ci) {
					t.Fatalf("%s: table over %v class %d lists row %d, whose entry names class %d", label, x, ci, r, tab.RowClass[r])
				}
			}
		}
		checkKeyMap(t, label, m, x, tab)
	}
	deps := map[OFD]bool{}
	for _, d := range m.sigma {
		deps[d] = true
	}
	if len(m.sub.states) != len(deps) {
		t.Fatalf("%s: the substrate holds %d states for %d dependencies", label, len(m.sub.states), len(deps))
	}
	for _, dep := range m.deps {
		col := m.rel.Column(dep.d.RHS)
		st := dep.st
		if len(st.counts) != len(st.tab.Sizes) || len(st.verdicts) != len(st.tab.Sizes) {
			t.Fatalf("%s: %v holds %d multisets and %d verdicts for %d classes", label, dep.d, len(st.counts), len(st.verdicts), len(st.tab.Sizes))
		}
		violating := 0
		for ci, class := range st.tab.Members {
			var counts []live.ValCount
			for _, r := range class {
				counts = live.Bump(counts, col.At(int(r)), 1)
			}
			if !slices.Equal(st.counts[ci], counts) {
				t.Fatalf("%s: %v class %d multiset %v, its members hold %v", label, dep.d, ci, st.counts[ci], counts)
			}
			verdict := st.classState(m.v, int32(ci))
			if st.verdicts[ci] != verdict {
				t.Fatalf("%s: %v class %d has verdict %d, its multiset gives %d", label, dep.d, ci, st.verdicts[ci], verdict)
			}
			if verdict == classViolating {
				violating++
			}
		}
		if st.violating != violating {
			t.Fatalf("%s: %v counts %d violating classes of %d", label, dep.d, st.violating, violating)
		}
	}
}

// checkKeyMap checks a table's key map against the relation. A restored
// monitor builds a table's map on its first append or antecedent write,
// so an unbuilt map is skipped.
func checkKeyMap(t *testing.T, label string, m *Monitor, x relation.AttrSet, tab *live.Table) {
	t.Helper()
	if !tab.Indexed() {
		return
	}
	want := 0
	for ci, class := range tab.Members {
		if len(class) == 0 {
			continue
		}
		want++
		if enc, ok := tab.Lookup(m.rel, int(class[0])); !ok || enc != int32(ci) {
			t.Fatalf("%s: table over %v: the key of class %d's first row %d maps to (%d, %v)", label, x, ci, class[0], enc, ok)
		}
	}
	for r, ci := range tab.RowClass {
		if ci >= 0 {
			continue
		}
		want++
		if enc, ok := tab.Lookup(m.rel, r); !ok || enc != live.LoneRow(int32(r)) {
			t.Fatalf("%s: table over %v: the key of lone row %d maps to (%d, %v)", label, x, r, enc, ok)
		}
	}
	if n := tab.NumKeys(); n != want {
		t.Fatalf("%s: table over %v holds %d keys for %d non-empty classes and lone rows", label, x, n, want)
	}
}

// runMoveSteps replays steps on a fresh monitor of sigma over rows for
// every workers ∈ {1, 2, 4} and checks the monitor after every step.
func runMoveSteps(t *testing.T, ont *ontology.Ontology, rows [][]string, sigma Set, steps []moveStep) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		rel, err := relation.FromRows(moveSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d", workers)
		checkMonitorState(t, label+" initial", m)
		for k, st := range steps {
			if st.reopen {
				m = reopenMonitor(t, m, workers)
			}
			for _, d := range st.register {
				if err := m.Register(d); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range st.unregister {
				if err := m.Unregister(d); err != nil {
					t.Fatal(err)
				}
			}
			if st.rows != nil {
				err = m.AppendRows(st.rows)
			} else {
				err = m.ApplyBatch(st.ups)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkMonitorState(t, fmt.Sprintf("%s step %d", label, k), m)
		}
	}
}

// TestMonitorAntecedentMovesMatchDetect is the differential gate of the
// monitor's in-place antecedent moves: every batch below rewrites
// antecedent cells, and after each one the report must equal a fresh
// Detect and the monitor's tables must agree with each other, for every
// worker count.
func TestMonitorAntecedentMovesMatchDetect(t *testing.T) {
	ont, _, _ := monitorStreamOntology()
	rows, cases := moveCases()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runMoveSteps(t, ont, rows, moveSigma(), tc.steps)
		})
	}
}

// moveCase is a named step program of the antecedent-move tests.
type moveCase struct {
	name  string
	steps []moveStep
}

// moveCases returns the antecedent-move tests' 9-row instance and their
// step programs.
func moveCases() ([][]string, []moveCase) {
	// Under X: class x0 = {0,1,2}, class x1 = {3,4}, class x4 = {7,8};
	// rows 5 (x2) and 6 (x3) are lone.
	rows := [][]string{
		{"x0", "y0", "y0-a", "z0-a"},
		{"x0", "y0", "y0-b", "z0-b"},
		{"x0", "y1", "junk-y1", "z0-a"},
		{"x1", "y0", "y1-a", "z1-a"},
		{"x1", "y1", "y1-b", "z1-b"},
		{"x2", "y0", "y2-a", "z2-a"},
		{"x3", "y1", "y3-a", "junk-z1"},
		{"x4", "y0", "y4-a", "z4-a"},
		{"x4", "y0", "y4-b", "z4-b"},
	}
	X, Y, A, B := 0, 1, 2, 3
	row := func(x, y, a, b string) []string { return []string{x, y, a, b} }
	return rows, []moveCase{
		{"two rows swap antecedent values", []moveStep{
			{ups: []CellUpdate{{0, X, "x1"}, {3, X, "x0"}}},
			{ups: []CellUpdate{{1, A, "y4-a"}, {7, A, "y0-b"}}},
			{ups: []CellUpdate{{0, X, "x0"}, {3, X, "x1"}}},
		}},
		{"a lone row joins a class and a member becomes lone", []moveStep{
			{ups: []CellUpdate{{5, X, "x0"}, {4, X, "x9"}}},
			{ups: []CellUpdate{{6, X, "x9"}}}, // the new lone row gains a partner
			{ups: []CellUpdate{{6, X, "x3"}, {3, X, "x8"}}},
		}},
		{"a class empties and is later refilled", []moveStep{
			{ups: []CellUpdate{{7, X, "x0"}, {8, X, "x1"}}},
			{ups: []CellUpdate{{2, X, "x4"}}},
			{ups: []CellUpdate{{6, X, "x4"}, {5, X, "x4"}}},
			{ups: []CellUpdate{{7, X, "x4"}, {2, X, "x0"}, {5, X, "x2"}}},
		}},
		{"one row has its antecedent and consequent written at once", []moveStep{
			{ups: []CellUpdate{{1, X, "x1"}, {1, A, "junk-y2"}}},
			{ups: []CellUpdate{{4, Y, "y0"}, {4, B, "z0-a"}, {4, A, "y0-a"}}},
			{ups: []CellUpdate{{0, A, "y3-a"}, {0, B, "junk-z2"}}},
		}},
		{"appends land in classes that moves edited", []moveStep{
			{ups: []CellUpdate{{0, X, "x2"}, {8, X, "x1"}}},
			{rows: [][]string{row("x0", "y0", "y0-c", "z0-a"), row("x2", "y0", "y2-b", "z2-b"), row("x1", "y0", "junk-y2", "z1-a")}},
			{ups: []CellUpdate{{9, X, "x4"}, {1, X, "x2"}}},
			{rows: [][]string{row("x4", "y0", "y4-a", "z4-a"), row("x0", "y1", "y0-a", "z0-b")}},
		}},
		{"a reopened monitor absorbs antecedent moves", []moveStep{
			{ups: []CellUpdate{{0, X, "x1"}, {7, X, "x2"}}},
			{ups: []CellUpdate{{3, X, "x4"}, {5, X, "x0"}, {2, A, "y2-a"}}, reopen: true},
			{ups: []CellUpdate{{8, X, "x7"}, {4, Y, "y0"}}, reopen: true},
			{rows: [][]string{row("x7", "y0", "y4-b", "z4-b")}, reopen: true},
		}},
	}
}

// TestMonitorFewerDependenciesThanWorkers runs every antecedent-move
// program on a Σ of one and of two dependencies, so that four workers
// outnumber the dependencies a batch can keep busy: after each step the
// report must still equal a fresh Detect.
func TestMonitorFewerDependenciesThanWorkers(t *testing.T) {
	ont, _, _ := monitorStreamOntology()
	rows, cases := moveCases()
	for _, k := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("deps=%d/%s", k, tc.name), func(t *testing.T) {
				runMoveSteps(t, ont, rows, moveSigma()[:k], tc.steps)
			})
		}
	}
}

// TestMonitorRegisterMidStream starts from one monitored dependency and
// registers and unregisters others between batches of antecedent moves,
// consequent writes and appends, across a snapshot round trip: a
// registered dependency is indexed from the current instance, and after
// every batch the report must equal a fresh Detect of the monitored set.
func TestMonitorRegisterMidStream(t *testing.T) {
	ont, _, _ := monitorStreamOntology()
	rows, _ := moveCases()
	sigma := moveSigma()
	X, Y, A, B := 0, 1, 2, 3
	runMoveSteps(t, ont, rows, sigma[:1], []moveStep{
		{ups: []CellUpdate{{0, X, "x1"}, {3, X, "x0"}, {5, A, "y0-a"}}},
		{register: sigma[1:2], ups: []CellUpdate{{4, Y, "y0"}, {4, B, "z0-a"}, {6, X, "x0"}}},
		{register: sigma[2:], rows: [][]string{{"x0", "y0", "y0-a", "junk-z1"}, {"x9", "y1", "y4-a", "z4-b"}}},
		{unregister: sigma[:1], ups: []CellUpdate{{1, A, "y4-a"}, {9, X, "x4"}}},
		{reopen: true, register: sigma[:1], ups: []CellUpdate{{7, X, "x0"}, {2, A, "y2-a"}}},
		{unregister: sigma[1:2], rows: [][]string{{"x4", "y1", "y4-b", "z4-a"}}},
	})
}

// TestMonitorUnregisterPinsNoRemovedDependencies registers dependencies
// one by one and unregisters them again, first and middle ones first:
// after each removal the slots of Σ and of the per-dependency states past
// their lengths must be empty, so a removed dependency's multisets become
// garbage instead of lingering in a backing array, and the substrate must
// have dropped a table whose last dependency left, with its row→class
// array, member lists and key map.
func TestMonitorUnregisterPinsNoRemovedDependencies(t *testing.T) {
	ont, _, _ := monitorStreamOntology()
	rows, _ := moveCases()
	rel, err := relation.FromRows(moveSchema, rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma := append(moveSigma(), MustParse(moveSchema, "X -> B"))
	for _, d := range sigma {
		if err := m.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []OFD{sigma[0], sigma[1], sigma[2], sigma[3]} {
		if err := m.Unregister(d); err != nil {
			t.Fatal(err)
		}
		for k, dep := range m.deps[len(m.deps):cap(m.deps)] {
			if dep != nil {
				t.Fatalf("after unregistering %v, state slot %d past the length holds %v", d, len(m.deps)+k, dep.d)
			}
		}
		for k, e := range m.sigma[len(m.sigma):cap(m.sigma)] {
			if e != (OFD{}) {
				t.Fatalf("after unregistering %v, Σ slot %d past the length holds %v", d, len(m.sigma)+k, e)
			}
		}
		if slices.IndexFunc(m.sigma, func(e OFD) bool { return e.LHS == d.LHS }) < 0 && m.sub.Table(d.LHS) != nil {
			t.Fatalf("after unregistering %v, the last dependency over its antecedent, its table remains", d)
		}
		checkMonitorState(t, fmt.Sprintf("after unregistering %v", d), m)
	}
	if len(m.sub.tables) != 0 {
		t.Fatalf("%d tables remain with an empty Σ", len(m.sub.tables))
	}
}

// TestMonitorSharedTables registers dependencies over antecedents the
// monitor already indexes and unregisters every dependency over one,
// between batches of antecedent moves, consequent writes and appends and
// across reopens, for workers ∈ {1, 2, 4}: a dependency on a known
// antecedent joins its table, with no partition lookup; the table goes
// once its last dependency leaves; and after every op the report equals
// a fresh Detect and the tables agree with the dependencies.
func TestMonitorSharedTables(t *testing.T) {
	ont, _, _ := monitorStreamOntology()
	rows, _ := moveCases()
	X, Y, A, B := 0, 1, 2, 3
	xa, xb, xy := MustParse(moveSchema, "X -> A"), MustParse(moveSchema, "X -> B"), MustParse(moveSchema, "X -> Y")
	for _, workers := range []int{1, 2, 4} {
		rel, err := relation.FromRows(moveSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), moveSigma(), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d", workers)
		// register adds d over the known antecedent X and checks that it
		// joined X's table without a partition lookup.
		register := func(d OFD) {
			t.Helper()
			tab, n := m.sub.Table(d.LHS), len(m.sub.tables)
			before := m.CacheStats()
			if err := m.Register(d); err != nil {
				t.Fatal(err)
			}
			after := m.CacheStats()
			if tab == nil || m.State(d).Table() != tab || len(m.sub.tables) != n {
				t.Fatalf("%s: registering %v built a table beside the one over its antecedent", label, d)
			}
			if after.Hits+after.Misses != before.Hits+before.Misses {
				t.Fatalf("%s: registering %v on a known antecedent looked up a partition", label, d)
			}
			checkMonitorState(t, fmt.Sprintf("%s register %v", label, d), m)
		}
		batch := func(k int, ups []CellUpdate, appended [][]string) {
			t.Helper()
			if err := m.ApplyBatch(ups); err != nil {
				t.Fatal(err)
			}
			if err := m.AppendRows(appended); err != nil {
				t.Fatal(err)
			}
			checkMonitorState(t, fmt.Sprintf("%s batch %d", label, k), m)
		}
		register(xb)
		batch(0, []CellUpdate{{0, X, "x1"}, {3, X, "x0"}, {4, B, "z0-a"}}, [][]string{{"x1", "y0", "y1-a", "z9"}})
		m = reopenMonitor(t, m, workers)
		register(xy) // on a reopened monitor, whose tables hold no keys yet
		batch(1, []CellUpdate{{5, X, "x0"}, {1, Y, "y1"}, {2, A, "y4-a"}}, nil)
		if err := m.Unregister(xa); err != nil {
			t.Fatal(err)
		}
		if m.sub.Table(xa.LHS) == nil {
			t.Fatalf("%s: unregistering %v dropped the table X → B and X → Y still use", label, xa)
		}
		batch(2, []CellUpdate{{6, X, "x4"}, {7, B, "z0-b"}}, [][]string{{"x4", "y1", "y4-a", "z4-a"}})
		for _, d := range []OFD{xb, xy} {
			if err := m.Unregister(d); err != nil {
				t.Fatal(err)
			}
		}
		if m.sub.Table(xa.LHS) != nil {
			t.Fatalf("%s: the table over X outlived its last dependency", label)
		}
		batch(3, []CellUpdate{{0, X, "x2"}, {8, A, "y0-a"}}, [][]string{{"x2", "y0", "y2-a", "z2-a"}})
		if err := m.Register(xa); err != nil {
			t.Fatal(err)
		}
		batch(4, []CellUpdate{{1, X, "x2"}, {3, B, "z9"}}, [][]string{{"x0", "y1", "y0-b", "z0-b"}})
		m = reopenMonitor(t, m, workers)
		batch(5, []CellUpdate{{2, X, "x1"}}, [][]string{{"x1", "y1", "y1-b", "z1-b"}})
	}
}

// FuzzMonitorBatches decodes fuzz bytes into a short program of
// antecedent writes, consequent writes and appends over a 40-row relation
// with a chained Σ, runs it on monitors with 1, 2 and 4 workers, and checks
// after every batch that the report equals a fresh Detect and the
// monitor's tables agree with each other. Each op takes three bytes: the
// op and column, a row, and a value. A round-trip op swaps the monitor
// and its substrate for ones decoded from their encoding. The decoded
// member lists are views of that encoding, back to back, so they must
// read the same after every later batch: a list whose append wrote in
// place would overwrite its neighbour. (The row→class tables are views
// too, and batches rewrite them in place by design.)
func FuzzMonitorBatches(f *testing.F) {
	ont, yPool, zPool := monitorStreamOntology()
	pools := [][]string{
		{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"},
		{"y0", "y1", "y2"},
		yPool,
		zPool,
	}
	rows := make([][]string, 40)
	for r := range rows {
		rows[r] = []string{pools[0][r%5], pools[1][r%2], pools[2][(r*7)%len(pools[2])], pools[3][(r*3)%len(pools[3])]}
	}
	f.Add([]byte{0x00, 1, 6, 0x00, 2, 1, 0xf0})                                   // antecedent moves, one batch
	f.Add([]byte{0x00, 1, 5, 0x02, 1, 4, 0xf0, 0x01, 3, 1, 0x03, 3, 2, 0xf0})     // X and A of one row, then Y and B
	f.Add([]byte{0x00, 0, 7, 0x00, 5, 7, 0xf0, 0x80, 9, 7, 0xf0, 0x00, 0, 0})     // a fresh key gains a partner, then an append joins it
	f.Add([]byte{0x00, 0, 3, 0x00, 10, 3, 0x00, 20, 3, 0x00, 30, 3, 0x02, 15, 1}) // a class empties

	// Round trips before an append, and between a batch of moves and the
	// next append and move.
	f.Add([]byte{0xe0, 0, 0, 0x80, 0, 0, 0x00, 2, 6, 0xf0, 0x80, 1, 5, 0xe0, 0, 0, 0x00, 8, 0})
	// A round trip, then one batch that moves every member of the class
	// x0 = rows {0, 5, ..., 35} under X: the key maps are rebuilt with no
	// member left holding its source-state key in the relation.
	f.Add([]byte{0xe0, 0, 0, 0x00, 0, 6, 0x00, 5, 6, 0x00, 10, 6, 0x00, 15, 6, 0x00, 20, 6, 0x00, 25, 6, 0x00, 30, 6, 0x00, 35, 6, 0xf0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		for _, workers := range []int{1, 2, 4} {
			rel, err := relation.FromRows(moveSchema, rows)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), moveSigma(), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			var batch []CellUpdate
			// decoded holds every member list a round trip decoded, as
			// the view of the encoding and a copy of its rows.
			var decoded [][2][]int32
			flush := func(k int) {
				if err := m.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
				checkMonitorState(t, fmt.Sprintf("workers=%d op %d", workers, k), m)
			}
			for k := 0; k+2 < len(prog); k += 3 {
				op, r, v := prog[k], int(prog[k+1]), int(prog[k+2])
				switch {
				case op >= 0xf0: // end the batch
					flush(k)
				case op >= 0xe0: // round-trip the substrate and the monitor body
					m = reopenMonitor(t, m, workers)
					for _, tab := range m.sub.tables {
						for _, l := range tab.tab.Members {
							decoded = append(decoded, [2][]int32{l, slices.Clone(l)})
						}
					}
					checkMonitorState(t, fmt.Sprintf("workers=%d op %d", workers, k), m)
				case op >= 0x80: // append one row
					row := make([]string, len(pools))
					for c, pool := range pools {
						row[c] = pool[(v+c*r)%len(pool)]
					}
					if err := m.AppendRows([][]string{row}); err != nil {
						t.Fatal(err)
					}
					checkMonitorState(t, fmt.Sprintf("workers=%d op %d", workers, k), m)
				default: // write one cell
					c := int(op) % len(pools)
					batch = append(batch, CellUpdate{Row: r % m.NumRows(), Col: c, Value: pools[c][v%len(pools[c])]})
				}
			}
			flush(len(prog))
			for _, d := range decoded {
				if !slices.Equal(d[0], d[1]) {
					t.Fatalf("workers=%d: later batches rewrote a decoded member list %v into %v", workers, d[1], d[0])
				}
			}
		}
	})
}
