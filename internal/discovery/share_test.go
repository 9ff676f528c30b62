package discovery

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// coverTables returns the cover trackers grouped by antecedent.
func coverTables(mt *Maintainer) map[relation.AttrSet][]*coverTracker {
	out := map[relation.AttrSet][]*coverTracker{}
	for _, rs := range mt.rhs {
		for _, ct := range rs.cover {
			out[ct.d.LHS] = append(out[ct.d.LHS], ct)
		}
	}
	return out
}

// trackerState is a copy of a cover tracker's state: its multisets,
// which classes violate, and the violating count.
type trackerState struct {
	counts    [][]live.ValCount
	violates  []bool
	violating int
}

// captureTracker copies ct's state.
func captureTracker(ct *coverTracker) trackerState {
	ts := trackerState{violating: ct.st.Violating()}
	for ci, pairs := range ct.st.Counts() {
		ts.counts = append(ts.counts, slices.Clone(pairs))
		ts.violates = append(ts.violates, ct.st.Violates(int32(ci)))
	}
	return ts
}

// checkTables asserts the substrate's tables and the cover trackers
// against the relation: every cover tracker reads the substrate's state
// of its dependency, on the substrate's table over its antecedent, and
// the substrate holds no other table; a table's classes group exactly the
// rows of one antecedent tuple (a tuple of one row may be lone or a class
// of one), with Sizes counting them; an indexed key map names every row's
// class or lone row; and every tracker's multisets equal a fresh count of
// its consequent over the classes, with verdicts and violating count to
// match.
func checkTables(t *testing.T, label string, mt *Maintainer) {
	t.Helper()
	rel, v := mt.Relation(), mt.sub.Verifier()
	byX := coverTables(mt)
	for x := range byX {
		if mt.sub.Table(x) == nil {
			t.Fatalf("%s: the substrate holds no table over %v", label, x)
		}
	}
	for x, cover := range byX {
		tab := mt.sub.Table(x)
		for _, ct := range cover {
			if ct.st != mt.sub.State(ct.d) || ct.st.Table() != tab {
				t.Fatalf("%s: %v does not read the substrate's state on its table over its antecedent", label, ct.d)
			}
		}
		if len(tab.RowClass) != rel.NumRows() {
			t.Fatalf("%s: table over %v holds %d rows of %d", label, x, len(tab.RowClass), rel.NumRows())
		}
		tuple := make(map[int32]string) // class → its rows' tuple
		rowsOf := make(map[string][]int)
		sizes := make([]int32, len(tab.Sizes))
		for r, ci := range tab.RowClass {
			key := string(live.AppendKey(nil, rel, tab.Cols, r))
			rowsOf[key] = append(rowsOf[key], r)
			if ci < 0 {
				continue
			}
			sizes[ci]++
			if k, ok := tuple[ci]; ok && k != key {
				t.Fatalf("%s: table over %v class %d holds two tuples", label, x, ci)
			}
			tuple[ci] = key
		}
		if !slices.Equal(sizes, tab.Sizes) {
			t.Fatalf("%s: table over %v has sizes %v, its rows count %v", label, x, tab.Sizes, sizes)
		}
		for _, rows := range rowsOf {
			if ci := tab.RowClass[rows[0]]; len(rows) > 1 && (ci < 0 || int(tab.Sizes[ci]) != len(rows)) {
				t.Fatalf("%s: table over %v splits the rows %v of one tuple", label, x, rows)
			}
		}
		if tab.Indexed() {
			for r, ci := range tab.RowClass {
				want := ci
				if ci < 0 {
					want = live.LoneRow(int32(r))
				}
				if got, ok := tab.Lookup(rel, r); !ok || got != want {
					t.Fatalf("%s: table over %v maps row %d's key to (%d, %v), want %d", label, x, r, got, ok, want)
				}
			}
		}
		for _, ct := range cover {
			want := live.CountClasses(tab, rel.Column(ct.d.RHS))
			if !reflect.DeepEqual(ct.st.Counts(), want) {
				t.Fatalf("%s: %v counts %v, its classes hold %v", label, ct.d, ct.st.Counts(), want)
			}
			violating := 0
			for ci, pairs := range want {
				bad := len(pairs) > 1 && !v.ValuesSatisfied(ct.d.RHS, live.Distinct(pairs, nil))
				if ct.st.Violates(int32(ci)) != bad {
					t.Fatalf("%s: %v class %d has violates=%v", label, ct.d, ci, !bad)
				}
				if bad {
					violating++
				}
			}
			if ct.st.Violating() != violating {
				t.Fatalf("%s: %v counts %d violating classes of %d", label, ct.d, ct.st.Violating(), violating)
			}
		}
	}
}

// checkMaintainer asserts the cover equals a fresh Discover and the
// tables agree with the relation (checkTables).
func checkMaintainer(t *testing.T, label string, mt *Maintainer) {
	t.Helper()
	if got, want := mt.Cover(), Discover(mt.Relation(), mt.Ontology(), DefaultOptions()).OFDs; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cover diverged from fresh discovery\n got: %v\nwant: %v", label, got, want)
	}
	checkTables(t, label, mt)
}

// sharedStream returns corrupt/revert batch pairs over two random columns
// of ten random rows each, and appended copies of rows with one cell
// corrupted: the cover grows and shrinks back, moving trackers on and off
// antecedents other trackers share.
func sharedStream(rng *rand.Rand, rel *relation.Relation, pairs int) []streamOp {
	var ops []streamOp
	for pair := 0; pair < pairs; pair++ {
		var corrupt, revert []core.CellUpdate
		cols := rng.Perm(rel.NumCols())[:2]
		for _, r := range rng.Perm(rel.NumRows())[:10] {
			for _, c := range cols {
				corrupt = append(corrupt, core.CellUpdate{Row: r, Col: c, Value: rel.String(rng.Intn(rel.NumRows()), c)})
				revert = append(revert, core.CellUpdate{Row: r, Col: c, Value: rel.String(r, c)})
			}
		}
		row := append([]string(nil), rel.Row(rng.Intn(rel.NumRows()))...)
		c := rng.Intn(len(row))
		row[c] = rel.String(rng.Intn(rel.NumRows()), c)
		ops = append(ops, streamOp{updates: corrupt}, streamOp{updates: revert, appends: [][]string{row}})
	}
	return ops
}

// TestMaintainerSharedTables drives corrupt/revert batches and appends
// through maintainers with 1, 2 and 4 workers and, after every op,
// checks the cover against a fresh Discover and the tables against the
// relation. It counts the commits that share tables: an added cover
// element on an antecedent whose table was live before the batch must
// run on that very table, and an antecedent whose last tracker left must
// lose its table. The stream must exercise both.
func TestMaintainerSharedTables(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 9, Preset: "clinical"})
	base, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	reused, dropped := 0, 0
	for _, workers := range []int{1, 2, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		mt, err := newMaintainer(base.Clone(), ds.FullOnt, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkMaintainer(t, fmt.Sprintf("workers=%d initial", workers), mt)
		for k, op := range sharedStream(rand.New(rand.NewSource(3)), mt.Relation(), 8) {
			before := make(map[relation.AttrSet]*live.Table)
			for x := range coverTables(mt) {
				before[x] = mt.sub.Table(x)
			}
			diff := applyOp(t, mt, op)
			for _, d := range diff.Added {
				if tab := before[d.LHS]; tab != nil {
					if mt.sub.Table(d.LHS) != tab {
						t.Fatalf("workers=%d op %d: %v got a new table beside the live one over its antecedent", workers, k, d)
					}
					reused++
				}
			}
			for _, d := range diff.Removed {
				if before[d.LHS] != nil && slices.IndexFunc(mt.Cover(), func(e core.OFD) bool { return e.LHS == d.LHS }) < 0 {
					if mt.sub.Table(d.LHS) != nil {
						t.Fatalf("workers=%d op %d: the table over %v outlived its last tracker", workers, k, d.LHS)
					}
					dropped++
				}
			}
			checkMaintainer(t, fmt.Sprintf("workers=%d op %d", workers, k), mt)
		}
	}
	if reused == 0 || dropped == 0 {
		t.Fatalf("the stream reused %d live tables and dropped %d; it must do both", reused, dropped)
	}
}

// TestMaintainerRollbackSharedTable cancels batches that write the
// antecedent and both consequents of a table two cover trackers share:
// the substrate unfolds the batch from both trackers' states and undoes
// the table's moves, which must leave the table's row→class array, sizes
// and key map, and each state's multisets, verdicts and violating count
// exactly as before the batch, with the cover untouched. The batch then lands for real, and the cover must equal a
// fresh Discover.
func TestMaintainerRollbackSharedTable(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 9, Preset: "clinical"})
	base, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	// state is a table's and its trackers' contents.
	type state struct {
		rowClass, sizes, lookup []int32
		trackers                []trackerState
	}
	capture := func(rel *relation.Relation, tab *live.Table, cover []*coverTracker) state {
		st := state{rowClass: slices.Clone(tab.RowClass), sizes: slices.Clone(tab.Sizes)}
		for r := range tab.RowClass {
			enc, _ := tab.Lookup(rel, r)
			st.lookup = append(st.lookup, enc)
		}
		for _, ct := range cover {
			st.trackers = append(st.trackers, captureTracker(ct))
		}
		return st
	}
	for _, workers := range []int{1, 2, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		mt, err := newMaintainer(base.Clone(), ds.FullOnt, opts)
		if err != nil {
			t.Fatal(err)
		}
		rel := mt.Relation()
		rng := rand.New(rand.NewSource(5))
		rolled := 0
		for round := 0; round < 6; round++ {
			byX := coverTables(mt)
			xs := make([]relation.AttrSet, 0, len(byX))
			for x := range byX {
				xs = append(xs, x)
			}
			relation.SortSets(xs)
			var shared []*coverTracker
			var x relation.AttrSet
			for _, e := range xs {
				if c := byX[e]; len(c) >= 2 && c[0].d.RHS != c[1].d.RHS {
					shared, x = c, e
					break
				}
			}
			if shared == nil {
				t.Fatalf("workers=%d round %d: no table is shared by two consequents", workers, round)
			}
			label := fmt.Sprintf("workers=%d round %d (table over %v)", workers, round, x)
			var ups []core.CellUpdate
			cols := x.Attrs()
			for _, r := range rng.Perm(rel.NumRows())[:8] {
				for _, c := range []int{cols[rng.Intn(len(cols))], shared[0].d.RHS, shared[1].d.RHS} {
					ups = append(ups, core.CellUpdate{Row: r, Col: c, Value: rel.String(rng.Intn(rel.NumRows()), c)})
				}
			}
			tab := shared[0].st.Table()
			cover, before := mt.Cover(), capture(rel, tab, shared)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := mt.ApplyBatchContext(cancelled, ups); err == nil {
				continue // every write restated its cell's value
			}
			rolled++
			if got := mt.Cover(); !reflect.DeepEqual(got, cover) {
				t.Fatalf("%s: cover changed across the rollback", label)
			}
			if after := capture(rel, tab, shared); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: the rollback did not restore the shared table and its trackers", label)
			}
			checkTables(t, label+" rolled back", mt)
			if _, err := mt.ApplyBatch(ups); err != nil {
				t.Fatal(err)
			}
			checkMaintainer(t, label+" applied", mt)
		}
		if rolled == 0 {
			t.Fatalf("workers=%d: no batch was rolled back", workers)
		}
	}
}

// TestCancelledBatchRestoresTables cancels corrupt/revert batches on a
// maintainer whose substrate also serves a monitor that follows the
// cover, so every table carries member lists, two ways: with a pre-cancelled context, and
// with one that cancels on its nth poll, which for n ≥ 2 lands inside
// the verify phase (cancelAfterPolls). After either, every table's
// row→class array, sizes, member lists and class count deep-equal their
// pre-batch values, every row's key looks up its pre-batch class or lone
// row, and every cover tracker's multisets, verdicts and violating count
// deep-equal theirs.
func TestCancelledBatchRestoresTables(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 9, Preset: "clinical"})
	base, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	type tableState struct {
		rowClass, sizes, lookup []int32
		members                 [][]int32
	}
	capture := func(mt *Maintainer) (map[relation.AttrSet]tableState, map[core.OFD]trackerState) {
		rel := mt.Relation()
		tables := map[relation.AttrSet]tableState{}
		trackers := map[core.OFD]trackerState{}
		for x, cover := range coverTables(mt) {
			tab := mt.sub.Table(x)
			if tab.Members == nil {
				t.Fatalf("the table over %v has no member lists though the monitor reads it", x)
			}
			st := tableState{rowClass: slices.Clone(tab.RowClass), sizes: slices.Clone(tab.Sizes)}
			for r := range tab.RowClass {
				enc, ok := tab.Lookup(rel, r)
				if !ok && tab.Indexed() {
					t.Fatalf("row %d has no key in the table over %v", r, x)
				}
				st.lookup = append(st.lookup, enc)
			}
			for _, l := range tab.Members {
				st.members = append(st.members, slices.Clone(l))
			}
			tables[x] = st
			for _, ct := range cover {
				trackers[ct.d] = captureTracker(ct)
			}
		}
		return tables, trackers
	}
	opts := DefaultOptions()
	opts.Workers = 2
	mt, err := newMaintainer(base, ds.FullOnt, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMonitor(context.Background(), mt.sub, mt.Cover(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	inVerify := 0
	for k, op := range sharedStream(rand.New(rand.NewSource(7)), mt.Relation(), 6) {
		for polls := 0; polls <= 8; polls++ {
			label := fmt.Sprintf("op %d polls %d", k, polls)
			tables, trackers := capture(mt)
			report, _ := json.Marshal(m.Report())
			ctx := context.Context(newCancelAfterPolls(polls))
			if polls == 0 {
				pre, cancel := context.WithCancel(context.Background())
				cancel()
				ctx = pre
			}
			if diff, err := mt.ApplyBatchContext(ctx, op.updates); err == nil {
				// The batch committed before the nth poll; the monitor
				// follows the cover, as a pipeline's does.
				m.Absorb()
				for _, d := range diff.Added {
					if err := m.Register(d); err != nil {
						t.Fatal(err)
					}
				}
				for _, d := range diff.Removed {
					if err := m.Unregister(d); err != nil {
						t.Fatal(err)
					}
				}
				break
			}
			if polls >= 2 {
				inVerify++
			}
			gotTables, gotTrackers := capture(mt)
			if !reflect.DeepEqual(gotTables, tables) {
				t.Fatalf("%s: the cancelled batch left the tables changed", label)
			}
			if !reflect.DeepEqual(gotTrackers, trackers) {
				t.Fatalf("%s: the cancelled batch left the trackers changed", label)
			}
			if got, _ := json.Marshal(m.Report()); !bytes.Equal(got, report) {
				t.Fatalf("%s: the cancelled batch changed the report", label)
			}
		}
		checkMaintainer(t, fmt.Sprintf("op %d", k), mt)
		if got, want := m.Report(), core.Detect(mt.Relation(), mt.Ontology(), m.Sigma()); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: the monitor's report diverged from Detect", k)
		}
	}
	if inVerify == 0 {
		t.Fatal("no batch was cancelled inside the verify phase")
	}
}
