package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// newMaintainer builds a standalone maintainer on a substrate of its own.
func newMaintainer(rel *relation.Relation, ont *ontology.Ontology, opts Options) (*Maintainer, error) {
	sub, err := core.NewSubstrate(context.Background(), rel, ont, opts.Workers)
	if err != nil {
		return nil, err
	}
	return NewMaintainer(context.Background(), sub, opts)
}

// streamOp is one step of a synthetic update stream: a batch of cell
// updates, an appended row, or both.
type streamOp struct {
	updates []core.CellUpdate
	appends [][]string
}

// randomStream derives a stream of mixed update/append batches over the
// instance's shape: values drawn from the live domain with occasional
// novel strings, rows/columns unrestricted (the maintainer has no
// antecedent/consequent split).
func randomStream(rng *rand.Rand, rel *relation.Relation, domain, nBatches int) []streamOp {
	ops := make([]streamOp, nBatches)
	rows := rel.NumRows()
	cols := rel.NumCols()
	value := func() string {
		if rng.Intn(6) == 0 {
			return fmt.Sprintf("novel%d", rng.Intn(4))
		}
		return fmt.Sprintf("v%d", rng.Intn(domain))
	}
	for b := range ops {
		nUpd := rng.Intn(5)
		for u := 0; u < nUpd; u++ {
			ops[b].updates = append(ops[b].updates, core.CellUpdate{
				Row: rng.Intn(rows), Col: rng.Intn(cols), Value: value(),
			})
		}
		if rng.Intn(3) == 0 {
			row := make([]string, cols)
			for c := range row {
				row[c] = value()
			}
			ops[b].appends = append(ops[b].appends, row)
			rows++
		}
	}
	return ops
}

// applyOp drives one stream op through a maintainer, folding the diffs.
func applyOp(t *testing.T, mt *Maintainer, op streamOp) Diff {
	t.Helper()
	var total Diff
	d, err := mt.ApplyBatch(op.updates)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	total.Added = append(total.Added, d.Added...)
	total.Removed = append(total.Removed, d.Removed...)
	for _, row := range op.appends {
		d, err := mt.AppendRow(row)
		if err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
		total.Added = append(total.Added, d.Added...)
		total.Removed = append(total.Removed, d.Removed...)
	}
	return total
}

// TestMaintainerMatchesFreshDiscover is the stream-equivalence property
// test: for random instances, ontologies, and mixed update/append
// streams, the maintained cover equals a fresh discovery over the
// current instance after every batch, identically for Workers 1
// (serial), 2, and 0 (all CPUs).
func TestMaintainerMatchesFreshDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	workerSweep := []int{1, 2, 0}
	for trial := 0; trial < 25; trial++ {
		rel, ont := randomInstance(rng)
		domain := 4
		stream := randomStream(rng, rel, domain, 8)
		mts := make([]*Maintainer, len(workerSweep))
		for k, w := range workerSweep {
			opts := DefaultOptions()
			opts.Workers = w
			var err error
			mts[k], err = newMaintainer(rel.Clone(), ont, opts)
			if err != nil {
				t.Fatalf("trial %d: NewMaintainer(workers=%d): %v", trial, w, err)
			}
		}
		for b, op := range stream {
			var first core.Set
			var firstDiff Diff
			for k, mt := range mts {
				diff := applyOp(t, mt, op)
				got := mt.Cover()
				if k == 0 {
					first, firstDiff = got, diff
					opts := DefaultOptions()
					opts.Workers = workerSweep[k]
					want := Discover(mt.Relation(), ont, opts).OFDs
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d batch %d: maintained cover diverged from fresh discovery\n got: %v\nwant: %v\nrows: %v",
							trial, b, got, want, mt.Relation().Rows())
					}
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("trial %d batch %d: workers=%d cover differs from serial\n got: %v\nwant: %v",
						trial, b, workerSweep[k], got, first)
				}
				if !reflect.DeepEqual(diff, firstDiff) {
					t.Fatalf("trial %d batch %d: workers=%d diff differs from serial\n got: %+v\nwant: %+v",
						trial, b, workerSweep[k], diff, firstDiff)
				}
			}
		}
	}
}

// TestMaintainerOnGeneratedWorkload runs the same equivalence check over
// the clinical generator preset — realistic column shapes (unique keys,
// categorical hierarchies, ontology-backed senses) rather than uniform
// random noise.
func TestMaintainerOnGeneratedWorkload(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 9, Preset: "clinical"})
	sub, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers = 2
	mt, err := newMaintainer(sub.Clone(), ds.FullOnt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	pool := make([][]string, sub.NumCols())
	for c := range pool {
		for r := 0; r < sub.NumRows(); r += 7 {
			pool[c] = append(pool[c], sub.Dict(c).String(sub.Value(r, c)))
		}
	}
	for b := 0; b < 6; b++ {
		var ups []core.CellUpdate
		for u := 0; u < 8; u++ {
			c := rng.Intn(sub.NumCols())
			ups = append(ups, core.CellUpdate{
				Row: rng.Intn(mt.NumRows()), Col: c, Value: pool[c][rng.Intn(len(pool[c]))],
			})
		}
		if _, err := mt.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
		got := mt.Cover()
		want := Discover(mt.Relation(), ds.FullOnt, DefaultOptions()).OFDs
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: cover diverged\n got: %v\nwant: %v", b, got, want)
		}
	}
}

// TestMaintainerAppendRowsBatchEquivalence: a batched append and the
// same rows appended one at a time land on the same cover — the batched
// repair pass sees exactly the union of per-row demotions — and both
// match fresh discovery.
func TestMaintainerAppendRowsBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		rel, ont := randomInstance(rng)
		batched, err := newMaintainer(rel.Clone(), ont, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		single, err := newMaintainer(rel.Clone(), ont, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rows := make([][]string, 3+rng.Intn(4))
		for i := range rows {
			row := make([]string, rel.NumCols())
			for c := range row {
				row[c] = fmt.Sprintf("v%d", rng.Intn(4))
			}
			rows[i] = row
		}
		if _, err := batched.AppendRows(rows); err != nil {
			t.Fatalf("trial %d: AppendRows: %v", trial, err)
		}
		for _, row := range rows {
			if _, err := single.AppendRow(row); err != nil {
				t.Fatalf("trial %d: AppendRow: %v", trial, err)
			}
		}
		got := batched.Cover()
		if want := single.Cover(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: batched append cover differs from row-at-a-time\n got: %v\nwant: %v", trial, got, want)
		}
		if want := Discover(batched.Relation(), ont, DefaultOptions()).OFDs; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: batched append cover diverged from fresh discovery\n got: %v\nwant: %v", trial, got, want)
		}
	}
}

// TestMaintainerRejectsUnsupportedOptions: the incremental argument is
// only sound for exact synonym OFDs over the uncapped lattice.
func TestMaintainerRejectsUnsupportedOptions(t *testing.T) {
	rel, ont := randomInstance(rand.New(rand.NewSource(3)))
	bad := []Options{
		{Mode: ModeInheritance, Theta: 5},
		{MinSupport: 0.8},
		{MaxLevel: 3},
	}
	for _, opts := range bad {
		if _, err := newMaintainer(rel, ont, opts); err == nil {
			t.Errorf("NewMaintainer accepted unsupported options %+v", opts)
		}
	}
}

// TestMaintainerCancellationRollsBack: a cancelled batch must leave the
// relation, the cover, the epoch, and all tracker state exactly as
// before the call — verified by continuing the stream afterwards and
// re-checking equivalence with fresh discovery (corrupted trackers would
// diverge on later batches).
func TestMaintainerCancellationRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		rel, ont := randomInstance(rng)
		opts := DefaultOptions()
		opts.Workers = 2
		mt, err := newMaintainer(rel.Clone(), ont, opts)
		if err != nil {
			t.Fatal(err)
		}
		stream := randomStream(rng, mt.Relation(), 4, 4)
		for b, op := range stream {
			// A batch whose writes all restate current values returns
			// before the cancellation point (no state to roll back); the
			// rollback check needs at least one effective write.
			final := make(map[[2]int]string)
			for _, u := range op.updates {
				final[[2]int{u.Row, u.Col}] = u.Value
			}
			effective := false
			for cell, val := range final {
				if mt.Relation().String(cell[0], cell[1]) != val {
					effective = true
					break
				}
			}
			if !effective {
				continue
			}
			coverBefore := mt.Cover()
			epochBefore := mt.Epoch()
			rowsBefore := mt.Relation().Rows()
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := mt.ApplyBatchContext(cancelled, op.updates); err == nil {
				t.Fatalf("trial %d batch %d: cancelled batch did not error", trial, b)
			}
			if got := mt.Cover(); !reflect.DeepEqual(got, coverBefore) {
				t.Fatalf("trial %d batch %d: cover changed across rollback\n got: %v\nwant: %v", trial, b, got, coverBefore)
			}
			if mt.Epoch() != epochBefore {
				t.Fatalf("trial %d batch %d: epoch advanced across rollback", trial, b)
			}
			if got := mt.Relation().Rows(); !reflect.DeepEqual(got, rowsBefore) {
				t.Fatalf("trial %d batch %d: relation changed across rollback", trial, b)
			}
			// Now land the same batch for real and re-verify equivalence:
			// any tracker state the rollback failed to restore surfaces as
			// a divergence here or on a later batch.
			applyOp(t, mt, op)
			got := mt.Cover()
			want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d: post-rollback cover diverged\n got: %v\nwant: %v\nrows: %v",
					trial, b, got, want, mt.Relation().Rows())
			}
		}
	}
}

// TestMaintainerInvalidationReopensPrunedSupersets is the targeted
// regression for candidate-set repair: invalidating a minimal OFD X → A
// must re-open the supersets of X that the original discovery pruned
// under Opt-2, and promote the now-minimal one into the cover.
func TestMaintainerInvalidationReopensPrunedSupersets(t *testing.T) {
	schema := relation.MustSchema("A", "B", "C")
	rel, err := relation.FromRows(schema, [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b2", "c1"},
		{"a2", "b1", "c3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ont := ontology.New() // empty ontology: synonym OFDs degenerate to FDs
	mt, err := newMaintainer(rel, ont, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	aToC := core.OFD{LHS: schema.MustSet("A"), RHS: schema.MustIndex("C")}
	abToC := core.OFD{LHS: schema.MustSet("A", "B"), RHS: schema.MustIndex("C")}
	if cov := mt.Cover(); !cov.Contains(aToC) || cov.Contains(abToC) {
		t.Fatalf("unexpected initial cover %v: want A->C minimal, AB->C pruned", cov)
	}
	// Breaking row 1's C value invalidates A->C (class {r0,r1} now maps to
	// two senses) and B->C; AB->C survives as all-singleton classes.
	diff, err := mt.ApplyBatch([]core.CellUpdate{{Row: 1, Col: schema.MustIndex("C"), Value: "c2"}})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Removed.Contains(aToC) {
		t.Fatalf("diff did not remove demoted A->C: %+v", diff)
	}
	if !diff.Added.Contains(abToC) {
		t.Fatalf("diff did not re-open pruned superset AB->C: %+v", diff)
	}
	got := mt.Cover()
	want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cover diverged after flip\n got: %v\nwant: %v", got, want)
	}
}

// TestMaintainerPromotionDescendsToMinimal: a batch that turns an
// invalid candidate valid must break a negative-border certificate, and
// the descent must find the minimal newly-valid antecedent — not just
// the border node itself.
func TestMaintainerPromotionDescendsToMinimal(t *testing.T) {
	schema := relation.MustSchema("A", "B", "C")
	rel, err := relation.FromRows(schema, [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b2", "c2"},
		{"a2", "b1", "c3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ont := ontology.New()
	mt, err := newMaintainer(rel, ont, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	aToC := core.OFD{LHS: schema.MustSet("A"), RHS: schema.MustIndex("C")}
	if cov := mt.Cover(); cov.Contains(aToC) {
		t.Fatalf("A->C unexpectedly valid initially: %v", cov)
	}
	// Repairing row 1's C value back to c1 re-validates A->C, strictly
	// below the border node AB (the maximal invalid set for C).
	diff, err := mt.ApplyBatch([]core.CellUpdate{{Row: 1, Col: schema.MustIndex("C"), Value: "c1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Added.Contains(aToC) {
		t.Fatalf("promotion did not surface minimal A->C: %+v", diff)
	}
	got := mt.Cover()
	want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cover diverged after promotion\n got: %v\nwant: %v", got, want)
	}
}

// TestMaintainerEpochAndEmptyBatches: epochs advance per applied batch,
// and no-op batches (empty, or rewriting current values) advance nothing.
func TestMaintainerEpochAndEmptyBatches(t *testing.T) {
	rel, ont := randomInstance(rand.New(rand.NewSource(8)))
	mt, err := newMaintainer(rel.Clone(), ont, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mt.Epoch() != 0 {
		t.Fatalf("fresh maintainer epoch = %d", mt.Epoch())
	}
	if d, err := mt.ApplyBatch(nil); err != nil || d.Epoch != 0 || !d.Empty() {
		t.Fatalf("empty batch: diff %+v err %v", d, err)
	}
	cur := rel.Dict(0).String(rel.Value(0, 0))
	if d, err := mt.ApplyBatch([]core.CellUpdate{{Row: 0, Col: 0, Value: cur}}); err != nil || d.Epoch != 0 {
		t.Fatalf("no-op rewrite advanced epoch: diff %+v err %v", d, err)
	}
	if d, err := mt.ApplyBatch([]core.CellUpdate{{Row: 0, Col: 0, Value: "novel-x"}}); err != nil || d.Epoch != 1 {
		t.Fatalf("effective batch epoch: diff %+v err %v", d, err)
	}
	if _, err := mt.ApplyBatch([]core.CellUpdate{{Row: -1, Col: 0, Value: "x"}}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
}

// TestMaintainerLastWritesDedup: a batch with repeated cells and
// value-preserving writes leaves LastWrites holding one last-write-wins
// entry per changed cell, with no no-ops, sorted by (row, col).
func TestMaintainerLastWritesDedup(t *testing.T) {
	schema := relation.MustSchema("A", "B", "C")
	rel, err := relation.FromRows(schema, [][]string{
		{"a1", "b1", "c1"},
		{"a1", "b2", "c1"},
		{"a2", "b1", "c3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := newMaintainer(rel, ontology.New(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	old := func(r, c int) relation.Value { return rel.Value(r, c) }
	want := []core.CellWrite{
		{Row: 0, Col: 2, Old: old(0, 2)},
		{Row: 2, Col: 0, Old: old(2, 0)},
		{Row: 2, Col: 1, Old: old(2, 1)},
	}
	batch := []core.CellUpdate{
		{Row: 2, Col: 1, Value: "b9"},
		{Row: 1, Col: 0, Value: "a1"}, // current value: no-op
		{Row: 2, Col: 0, Value: "a7"},
		{Row: 0, Col: 2, Value: "c8"},
		{Row: 1, Col: 1, Value: "b5"},
		{Row: 2, Col: 1, Value: "b1"}, // back to the current value: no-op
		{Row: 2, Col: 1, Value: "b6"}, // last write wins
		{Row: 1, Col: 1, Value: "b2"}, // back to the current value: no-op
	}
	if _, err := mt.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		want[k].New = rel.Value(want[k].Row, want[k].Col)
	}
	if s := rel.String(2, 1); s != "b6" {
		t.Fatalf("cell (2,1) = %q after the batch, want the last write b6", s)
	}
	if got := mt.LastWrites(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LastWrites = %+v, want %+v", got, want)
	}
}

// TestMaintainerFlatPinsNoReplacedTrackers drives corrupt/revert batch
// pairs through a maintainer: each pair rewrites 20 cells on two columns
// and then restores them, so the cover grows and shrinks back. After
// every batch the substrate must hold a state for exactly the cover
// elements, each the one its tracker reads, so no state of a tracker the
// cover replaced stays reachable for the maintainer's lifetime; and a
// table whose last tracker left must be gone from the substrate.
func TestMaintainerFlatPinsNoReplacedTrackers(t *testing.T) {
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 9, Preset: "clinical"})
	sub, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers = 2
	mt, err := newMaintainer(sub, ds.FullOnt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rel := mt.Relation()
	rng := rand.New(rand.NewSource(3))
	shrank, dropped := 0, 0
	kept := map[relation.AttrSet]bool{}
	for x := range coverTables(mt) {
		kept[x] = true
	}
	left := core.Set{}
	check := func(label string, before core.Set) {
		t.Helper()
		cover := mt.Cover()
		if len(cover) < len(before) {
			shrank++
		}
		for _, d := range cover {
			if st := mt.sub.State(d); st == nil || st != mt.State(d) {
				t.Fatalf("%s: cover element %v does not read the substrate's state of it", label, d)
			}
		}
		for _, d := range before {
			if !cover.Contains(d) {
				left = append(left, d)
			}
		}
		for _, d := range left {
			if !cover.Contains(d) && mt.sub.State(d) != nil {
				t.Fatalf("%s: the substrate still holds the state of %v, which left the cover", label, d)
			}
		}
		now := coverTables(mt)
		for x := range kept {
			if now[x] == nil {
				if mt.sub.Table(x) != nil {
					t.Fatalf("%s: the table over %v outlived its last tracker", label, x)
				}
				dropped++
			}
		}
		kept = map[relation.AttrSet]bool{}
		for x := range now {
			kept[x] = true
		}
	}
	for pair := 0; pair < 12; pair++ {
		var corrupt, revert []core.CellUpdate
		cols := rng.Perm(rel.NumCols())[:2]
		for _, r := range rng.Perm(rel.NumRows())[:10] {
			for _, c := range cols {
				corrupt = append(corrupt, core.CellUpdate{Row: r, Col: c, Value: rel.String(rng.Intn(rel.NumRows()), c)})
				revert = append(revert, core.CellUpdate{Row: r, Col: c, Value: rel.String(r, c)})
			}
		}
		for k, batch := range [][]core.CellUpdate{corrupt, revert} {
			before := mt.Cover()
			if _, err := mt.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("pair %d batch %d", pair, k), before)
		}
	}
	if shrank == 0 || dropped == 0 || len(left) == 0 {
		t.Fatalf("%d batches shrank the cover, %d elements left it and %d tables were dropped; the test exercises nothing", shrank, len(left), dropped)
	}
	if got, want := mt.Cover(), Discover(rel, ds.FullOnt, DefaultOptions()).OFDs; !reflect.DeepEqual(got, want) {
		t.Fatalf("cover after the reverts diverged from fresh discovery\n got: %v\nwant: %v", got, want)
	}
}
