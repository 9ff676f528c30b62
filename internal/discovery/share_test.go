package discovery

import (
	"context"
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

// checkTables asserts the maintainer's tables and cover trackers against
// the relation: every cover tracker runs on the table of its antecedent,
// which lists it, and every table serves a tracker; a table's classes
// group exactly the rows of one antecedent tuple (a tuple of one row may
// be lone or a class of one), with Sizes counting them; an indexed key
// map names every row's class or lone row; and every tracker's
// multisets count its consequent over the classes, with satisfied flags
// and unsat counter to match.
func checkTables(t *testing.T, label string, mt *Maintainer) {
	t.Helper()
	rel, v := mt.Relation(), mt.sub.Verifier()
	trackers := 0
	for _, rs := range mt.rhs {
		for _, ct := range rs.cover {
			if mt.tables[ct.d.LHS] != ct.tt || !slices.Contains(ct.tt.cover, ct) {
				t.Fatalf("%s: %v does not run on its antecedent's table", label, ct.d)
			}
		}
		trackers += len(rs.cover)
	}
	byVal := func(a, b live.ValCount) int { return int(a.Val) - int(b.Val) }
	for x, tt := range mt.tables {
		tab := tt.tab
		if tt.lhs != x || len(tt.cover) == 0 {
			t.Fatalf("%s: the table filed under %v is over %v and serves %d trackers", label, x, tt.lhs, len(tt.cover))
		}
		trackers -= len(tt.cover)
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
		for _, ct := range tt.cover {
			want := live.CountClasses(tab, rel.Column(ct.d.RHS))
			unsat := 0
			for ci := range want {
				have := slices.Clone(ct.counts[ci])
				slices.SortFunc(have, byVal)
				slices.SortFunc(want[ci], byVal)
				if !slices.Equal(have, want[ci]) {
					t.Fatalf("%s: %v class %d counts %v, its rows hold %v", label, ct.d, ci, have, want[ci])
				}
				if ct.sat[ci] != ct.classSatisfied(v, int32(ci)) {
					t.Fatalf("%s: %v class %d flagged satisfied=%v", label, ct.d, ci, ct.sat[ci])
				}
				if !ct.sat[ci] {
					unsat++
				}
			}
			if len(ct.counts) != len(tab.Sizes) || len(ct.sat) != len(tab.Sizes) || ct.unsat != unsat {
				t.Fatalf("%s: %v holds %d multisets, %d flags and unsat %d for %d classes (%d unsatisfied)", label, ct.d, len(ct.counts), len(ct.sat), ct.unsat, len(tab.Sizes), unsat)
			}
		}
	}
	if trackers != 0 {
		t.Fatalf("%s: the tables serve %d trackers fewer than the cover holds", label, trackers)
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
			before := make(map[relation.AttrSet]*trackerTable, len(mt.tables))
			for x, tt := range mt.tables {
				before[x] = tt
			}
			diff := applyOp(t, mt, op)
			for _, d := range diff.Added {
				if tt := before[d.LHS]; tt != nil {
					if mt.tables[d.LHS] != tt {
						t.Fatalf("workers=%d op %d: %v got a new table beside the live one over its antecedent", workers, k, d)
					}
					reused++
				}
			}
			for _, d := range diff.Removed {
				if before[d.LHS] != nil && slices.IndexFunc(mt.Cover(), func(e core.OFD) bool { return e.LHS == d.LHS }) < 0 {
					if mt.tables[d.LHS] != nil {
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

// rowClasses is a table's grouping as class representatives: each row's
// smallest fellow member in a class of two or more rows, else -1. A
// rollback may leave a row in a class of one where it was lone, which is
// the same grouping.
func rowClasses(tab *live.Table) []int32 {
	rep := make(map[int32]int32)
	for r, ci := range tab.RowClass {
		if _, ok := rep[ci]; ci >= 0 && tab.Sizes[ci] >= 2 && !ok {
			rep[ci] = int32(r)
		}
	}
	out := make([]int32, len(tab.RowClass))
	for r, ci := range tab.RowClass {
		out[r] = -1
		if ci >= 0 && tab.Sizes[ci] >= 2 {
			out[r] = rep[ci]
		}
	}
	return out
}

// TestMaintainerRollbackSharedTable cancels batches that write the
// antecedent and both consequents of a table two cover trackers share:
// the rollback runs the inverted log through the table once, and must
// leave its grouping, each tracker's multisets of every class of two or
// more rows, and its satisfied flags and unsat counter as before the
// batch, with the cover untouched. The batch then lands for real, and the
// cover must equal a fresh Discover.
func TestMaintainerRollbackSharedTable(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 9, Preset: "clinical"})
	base, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	byVal := func(a, b live.ValCount) int { return int(a.Val) - int(b.Val) }
	// state is a table's and its trackers' contents keyed by class
	// representative.
	type state struct {
		classes []int32
		counts  map[string][]live.ValCount
		unsat   map[core.OFD]int
	}
	capture := func(tt *trackerTable) state {
		st := state{classes: rowClasses(tt.tab), counts: map[string][]live.ValCount{}, unsat: map[core.OFD]int{}}
		for _, ct := range tt.cover {
			st.unsat[ct.d] = ct.unsat
			for r, rep := range st.classes {
				if rep == int32(r) {
					ci := tt.tab.RowClass[r]
					pairs := slices.Clone(ct.counts[ci])
					slices.SortFunc(pairs, byVal)
					st.counts[fmt.Sprint(ct.d, rep, ct.sat[ci])] = pairs
				}
			}
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
			var shared *trackerTable
			for _, tt := range mt.sortedTables() {
				if len(tt.cover) >= 2 && tt.cover[0].d.RHS != tt.cover[1].d.RHS {
					shared = tt
					break
				}
			}
			if shared == nil {
				t.Fatalf("workers=%d round %d: no table is shared by two consequents", workers, round)
			}
			label := fmt.Sprintf("workers=%d round %d (table over %v)", workers, round, shared.lhs)
			var ups []core.CellUpdate
			x := shared.lhs.Attrs()
			for _, r := range rng.Perm(rel.NumRows())[:8] {
				for _, c := range []int{x[rng.Intn(len(x))], shared.cover[0].d.RHS, shared.cover[1].d.RHS} {
					ups = append(ups, core.CellUpdate{Row: r, Col: c, Value: rel.String(rng.Intn(rel.NumRows()), c)})
				}
			}
			cover, before := mt.Cover(), capture(shared)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := mt.ApplyBatchContext(cancelled, ups); err == nil {
				continue // every write restated its cell's value
			}
			rolled++
			if got := mt.Cover(); !reflect.DeepEqual(got, cover) {
				t.Fatalf("%s: cover changed across the rollback", label)
			}
			if after := capture(shared); !reflect.DeepEqual(after, before) {
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
