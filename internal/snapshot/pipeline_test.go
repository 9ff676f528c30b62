package snapshot

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
)

// newTestPipeline builds a merged pipeline over a clinical projection and
// returns it with a batch generator (updates drawn from the live value
// pool) and an append-row generator.
func newTestPipeline(t *testing.T, seed int64) (*pipeline.Pipeline, func() []core.CellUpdate, func() []string) {
	t.Helper()
	ds := gen.Generate(gen.Config{Rows: 120, Seed: 11, Preset: "clinical"})
	sub, err := ds.Rel.ProjectColumns([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(context.Background(), sub, ds.FullOnt, pipeline.Options{
		FollowCover: true, Workers: 4,
	})
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]string, sub.NumCols())
	for c := range pool {
		for r := 0; r < sub.NumRows(); r += 7 {
			pool[c] = append(pool[c], sub.Dict(c).String(sub.Value(r, c)))
		}
	}
	batch := func() []core.CellUpdate {
		var ups []core.CellUpdate
		for u := 0; u < 6; u++ {
			c := rng.Intn(sub.NumCols())
			ups = append(ups, core.CellUpdate{
				Row: rng.Intn(p.Relation().NumRows()), Col: c, Value: pool[c][rng.Intn(len(pool[c]))],
			})
		}
		return ups
	}
	appendRow := func() []string {
		row := make([]string, sub.NumCols())
		for c := range row {
			row[c] = pool[c][rng.Intn(len(pool[c]))]
		}
		return row
	}
	return p, batch, appendRow
}

// newDatasetPipeline builds a pipeline over a generated dataset's instance
// and incomplete ontology: sigma nil follows the discovered cover, non-nil
// pins the monitored set.
func newDatasetPipeline(t *testing.T, ds *gen.Dataset, sigma core.Set, workers int) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(context.Background(), ds.Rel, ds.Ont, pipeline.Options{
		Sigma: sigma, FollowCover: sigma == nil, Workers: workers,
	})
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	return p
}

// step is one pipeline input: rows to append when rows is non-nil, a batch
// of cell updates otherwise.
type step struct {
	ups  []core.CellUpdate
	rows [][]string
}

func (s step) apply(p *pipeline.Pipeline) (pipeline.BatchResult, error) {
	if s.rows != nil {
		return p.AppendRows(s.rows)
	}
	return p.ApplyBatch(context.Background(), s.ups)
}

// dirtyRows rewrites every column of rows [0, n) with row (r+shift)'s
// values — a batch that moves tuples between antecedent classes.
func dirtyRows(rel *relation.Relation, n, shift int) step {
	var ups []core.CellUpdate
	for r := 0; r < n; r++ {
		for c := 0; c < rel.NumCols(); c++ {
			ups = append(ups, core.CellUpdate{Row: r, Col: c, Value: rel.String((r+shift)%rel.NumRows(), c)})
		}
	}
	return step{ups: ups}
}

// TestPipelineRoundTrip is the persistence gate: a pipeline — following
// its cover, or pinned to a dependency set — saves and reopens with
// byte-identical report, cover and epochs, without scanning a single
// candidate; Detect and Discover on the restored instance agree with it;
// and the live and restored pipelines co-evolve byte-identically under
// appends (which rebuild the key maps) and antecedent-dirtying
// batches, ending equal to fresh engines over the final instance.
func TestPipelineRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		// setup returns the pipeline, its pinned Σ (nil: the cover), the
		// steps applied before the save, and the steps both pipelines
		// replay after it.
		setup func(t *testing.T) (p *pipeline.Pipeline, sigma core.Set, before, after []step)
	}{
		{"Projection", func(t *testing.T) (*pipeline.Pipeline, core.Set, []step, []step) {
			p, batch, appendRow := newTestPipeline(t, 5)
			before := []step{{ups: batch()}, {ups: batch()}, {ups: batch()}, {rows: [][]string{appendRow(), appendRow()}}}
			var after []step
			for b := 0; b < 3; b++ {
				after = append(after, step{ups: batch()}, step{rows: [][]string{appendRow()}})
			}
			return p, nil, before, after
		}},
		{"FollowCover", func(t *testing.T) (*pipeline.Pipeline, core.Set, []step, []step) {
			ds := gen.Clinical(200, 5)
			p := newDatasetPipeline(t, ds, nil, 2)
			after := []step{{rows: [][]string{ds.Rel.Row(0)}}, dirtyRows(ds.Rel, 30, 3)}
			return p, nil, nil, after
		}},
		{"PinnedSigma", func(t *testing.T) (*pipeline.Pipeline, core.Set, []step, []step) {
			ds := gen.Clinical(1000, 3)
			p := newDatasetPipeline(t, ds, ds.Sigma, 4)
			rhs := ds.Sigma[0].RHS
			// Mutate before saving so overlays, multisets, and epoch are
			// non-trivial.
			var ups []core.CellUpdate
			for r := 0; r < 40; r++ {
				ups = append(ups, core.CellUpdate{Row: r, Col: rhs, Value: ds.Rel.String(r+1, rhs)})
			}
			before := []step{{rows: ds.CleanRel.Rows()[:50]}, {ups: ups}}
			ups = nil
			for r := 0; r < 30; r++ {
				ups = append(ups, core.CellUpdate{Row: r, Col: rhs, Value: ds.Rel.String((r+7)%ds.Rel.NumRows(), rhs)})
			}
			after := []step{{rows: ds.CleanRel.Rows()[50:80]}, {ups: ups}, dirtyRows(ds.Rel, 30, 3)}
			return p, ds.Sigma, before, after
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, sigma, before, after := tc.setup(t)
			for k, s := range before {
				if _, err := s.apply(p); err != nil {
					t.Fatalf("pre-save step %d: %v", k, err)
				}
			}
			wantReport := reportJSON(t, p.Report())
			wantCover := p.Cover()

			got := saveOpen(t, &State{Pipeline: p}, Options{Workers: 2})
			rp := got.Pipeline
			if rp == nil {
				t.Fatal("restored state has no pipeline")
			}
			if gotRep := reportJSON(t, rp.Report()); gotRep != wantReport {
				t.Fatalf("restored report differs\n got: %s\nwant: %s", gotRep, wantReport)
			}
			if gotCover := rp.Cover(); !reflect.DeepEqual(gotCover, wantCover) {
				t.Fatalf("restored cover differs\n got: %v\nwant: %v", gotCover, wantCover)
			}
			if a, b := rp.Monitor().Epoch(), p.Monitor().Epoch(); a != b {
				t.Fatalf("restored monitor epoch %d, want %d", a, b)
			}
			if a, b := rp.Maintainer().Epoch(), p.Maintainer().Epoch(); a != b {
				t.Fatalf("restored maintainer epoch %d, want %d", a, b)
			}
			// The restore must be a state copy, not a rebuild: no candidate
			// has been re-verified beyond what the saved maintainer had done.
			if a, b := rp.Maintainer().Scans(), p.Maintainer().Scans(); a != b {
				t.Fatalf("restore scanned candidates: got %d want %d", a, b)
			}
			// Ground truth on the restored instance, not just
			// self-consistency.
			checkFresh(t, "restored", rp, sigma)

			for k, s := range after {
				d1, err1 := s.apply(p)
				d2, err2 := s.apply(rp)
				if err1 != nil || err2 != nil {
					t.Fatalf("co-evolve step %d: %v / %v", k, err1, err2)
				}
				if fmt.Sprint(d1.Diff) != fmt.Sprint(d2.Diff) || d1.Epoch != d2.Epoch {
					t.Fatalf("co-evolve step %d: diffs diverged: %v @%d vs %v @%d", k, d1.Diff, d1.Epoch, d2.Diff, d2.Epoch)
				}
				if a, b := reportJSON(t, p.Report()), reportJSON(t, rp.Report()); a != b {
					t.Fatalf("co-evolve step %d: reports diverged\noriginal: %s\nrestored: %s", k, a, b)
				}
				if !reflect.DeepEqual(p.Cover(), rp.Cover()) {
					t.Fatalf("co-evolve step %d: covers diverged\noriginal: %v\nrestored: %v", k, p.Cover(), rp.Cover())
				}
			}
			if p.Maintainer().Epoch() != rp.Maintainer().Epoch() {
				t.Fatalf("post-restore maintainer epochs diverged: %d vs %d", p.Maintainer().Epoch(), rp.Maintainer().Epoch())
			}
			checkFresh(t, "evolved", rp, sigma)
		})
	}
}

// checkFresh asserts p's cover equals a fresh Discover and its report a
// fresh Detect of sigma (the cover when nil) over p's current instance.
func checkFresh(t *testing.T, state string, p *pipeline.Pipeline, sigma core.Set) {
	t.Helper()
	ont := p.Monitor().Ontology()
	cover := p.Cover()
	if want := discovery.Discover(p.Relation(), ont, discovery.DefaultOptions()).OFDs; !reflect.DeepEqual(cover, want) {
		t.Fatalf("%s pipeline cover diverged from fresh discovery\n got: %v\nwant: %v", state, cover, want)
	}
	if sigma == nil {
		sigma = cover
	}
	if got, want := reportJSON(t, p.Report()), reportJSON(t, core.Detect(p.Relation(), ont, sigma)); got != want {
		t.Fatalf("%s pipeline report diverged from fresh detect\n got: %s\nwant: %s", state, got, want)
	}
}

// secondSave saves p, reopens it, re-encodes the restored pipeline and
// decodes that image again without mutating in between. Neither engine
// builds or writes a key map in between, so the generation-2 and
// generation-3 images must be byte-identical; it returns generation 3.
func secondSave(t *testing.T, p *pipeline.Pipeline) *pipeline.Pipeline {
	t.Helper()
	gen2 := saveOpen(t, &State{Pipeline: p}, Options{})
	img2, err := Encode(&State{Pipeline: gen2.Pipeline})
	if err != nil {
		t.Fatalf("Encode gen2: %v", err)
	}
	gen3, err := Decode(img2, Options{})
	if err != nil {
		t.Fatalf("Decode gen3: %v", err)
	}
	img3, err := Encode(&State{Pipeline: gen3.Pipeline})
	if err != nil {
		t.Fatalf("Encode gen3: %v", err)
	}
	if string(img2) != string(img3) {
		t.Fatalf("gen-2 and gen-3 images differ (%d vs %d bytes)", len(img2), len(img3))
	}
	return gen3.Pipeline
}

// TestMonitorSecondSaveRoundTrip saves a pipeline pinned to a dependency
// set twice without appending: the third generation reports identically
// at the same monitor epoch and can still append, rebuilding its key maps
// from the twice-saved row→class tables.
func TestMonitorSecondSaveRoundTrip(t *testing.T) {
	ds := gen.Clinical(400, 4)
	p := newDatasetPipeline(t, ds, ds.Sigma, 1)
	want := reportJSON(t, p.Report())
	gen3 := secondSave(t, p)
	if have := reportJSON(t, gen3.Report()); have != want {
		t.Fatalf("third-generation report differs:\n got %s\nwant %s", have, want)
	}
	if a, b := gen3.Monitor().Epoch(), p.Monitor().Epoch(); a != b {
		t.Fatalf("third-generation monitor epoch %d, want %d", a, b)
	}
	if _, err := gen3.AppendRows([][]string{ds.Rel.Row(0)}); err != nil {
		t.Fatalf("AppendRows on gen3: %v", err)
	}
}

// TestMaintainerSecondSaveRoundTrip saves a pipeline following its cover
// twice without mutating: the third generation holds the same cover, has
// scanned no candidate, and still maintains correctly after an append.
func TestMaintainerSecondSaveRoundTrip(t *testing.T) {
	ds := gen.Clinical(200, 11)
	p := newDatasetPipeline(t, ds, nil, 2)
	want := fmt.Sprint(p.Cover())
	gen3 := secondSave(t, p)
	if have := fmt.Sprint(gen3.Cover()); have != want {
		t.Fatalf("third-generation cover differs:\n got %s\nwant %s", have, want)
	}
	if a, b := gen3.Maintainer().Scans(), p.Maintainer().Scans(); a != b {
		t.Fatalf("third generation scanned candidates: got %d want %d", a, b)
	}
	if _, err := gen3.AppendRows([][]string{ds.Rel.Row(0)}); err != nil {
		t.Fatalf("AppendRows on gen3: %v", err)
	}
	checkFresh(t, "third-generation", gen3, nil)
}

// TestPipelineSnapshotSections pins the section layout: a pipeline
// snapshot holds exactly one relation, one ontology and one pipeline
// section, in that order.
func TestPipelineSnapshotSections(t *testing.T) {
	p, batch, _ := newTestPipeline(t, 7)
	if _, err := p.ApplyBatch(context.Background(), batch()); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	img, err := Encode(&State{Pipeline: p})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var names []string
	for _, s := range splitSections(t, img) {
		names = append(names, s.name)
	}
	if want := []string{secRelation, secOntology, secPipeline}; !reflect.DeepEqual(names, want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
}
