package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// randomInstance builds a small random relation plus a random synonym
// ontology over its value universe (mirrors the discovery test harness).
func randomInstance(rng *rand.Rand) (*relation.Relation, *ontology.Ontology) {
	cols := 2 + rng.Intn(4)
	rows := 2 + rng.Intn(12)
	domain := 1 + rng.Intn(4)
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	rel := relation.New(relation.MustSchema(names...))
	row := make([]string, cols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = fmt.Sprintf("v%d", rng.Intn(domain))
		}
		rel.AppendRow(row)
	}
	o := ontology.New()
	numClasses := rng.Intn(5)
	for c := 0; c < numClasses; c++ {
		var syn []string
		for v := 0; v < domain; v++ {
			if rng.Intn(2) == 0 {
				syn = append(syn, fmt.Sprintf("v%d", v))
			}
		}
		o.MustAddClass(fmt.Sprintf("cls%d", c), fmt.Sprintf("sense%d", c%2), ontology.NoClass, syn...)
	}
	return rel, o
}

// streamOp is one step of a synthetic stream: a batch of cell updates
// followed by appended rows.
type streamOp struct {
	updates []core.CellUpdate
	appends [][]string
}

// randomStream derives a stream of mixed update/append batches; rows
// referenced by later batches account for earlier appends.
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

// applyOp drives one stream op through a pipeline (updates, then appends).
func applyOp(t *testing.T, p *Pipeline, op streamOp) {
	t.Helper()
	if _, err := p.ApplyBatch(context.Background(), op.updates); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if len(op.appends) > 0 {
		if _, err := p.AppendRows(op.appends); err != nil {
			t.Fatalf("AppendRows: %v", err)
		}
	}
}

func reportJSON(t *testing.T, rep *core.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// sortedSet returns a canonically ordered copy for order-insensitive
// set comparison (the monitor registers cover diffs in arrival order).
func sortedSet(s core.Set) core.Set {
	out := s.Clone()
	out.Sort()
	return out
}

// TestPipelineMatchesFreshEngines is the merged pipeline's byte-identity
// gate: for random instances and mixed update/append streams, after every
// batch the maintained cover equals a fresh Discover and the published
// report equals a fresh Detect over the current instance — identically
// for every worker count in {1, 2, 4, 0}, with the monitored set
// tracking the cover.
func TestPipelineMatchesFreshEngines(t *testing.T) {
	cfgs := []int{1, 2, 4, 0}
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		rel, ont := randomInstance(rng)
		stream := randomStream(rng, rel, 4, 6)
		ps := make([]*Pipeline, len(cfgs))
		for k, workers := range cfgs {
			var err error
			ps[k], err = New(context.Background(), rel.Clone(), ont, Options{
				FollowCover: true, Workers: workers,
			})
			if err != nil {
				t.Fatalf("trial %d: New(workers=%d): %v", trial, workers, err)
			}
		}
		for b, op := range stream {
			var firstCover core.Set
			var firstReport string
			for k, p := range ps {
				applyOp(t, p, op)
				cover := p.Cover()
				rep := reportJSON(t, p.Report())
				if k == 0 {
					firstCover, firstReport = cover, rep
					want := discovery.Discover(p.Relation(), ont, discovery.DefaultOptions()).OFDs
					if !reflect.DeepEqual(cover, want) {
						t.Fatalf("trial %d batch %d: pipeline cover diverged from fresh discovery\n got: %v\nwant: %v\nrows: %v",
							trial, b, cover, want, p.Relation().Rows())
					}
					wantRep := reportJSON(t, core.Detect(p.Relation(), ont, cover))
					if rep != wantRep {
						t.Fatalf("trial %d batch %d: pipeline report diverged from fresh detect\n got: %s\nwant: %s",
							trial, b, rep, wantRep)
					}
					if got := sortedSet(p.Monitor().Sigma()); !reflect.DeepEqual(got, sortedSet(cover)) {
						t.Fatalf("trial %d batch %d: monitored set stopped following the cover\n got: %v\ncover: %v",
							trial, b, got, cover)
					}
					continue
				}
				if !reflect.DeepEqual(cover, firstCover) {
					t.Fatalf("trial %d batch %d: workers=%d cover differs from config 0\n got: %v\nwant: %v",
						trial, b, cfgs[k], cover, firstCover)
				}
				if rep != firstReport {
					t.Fatalf("trial %d batch %d: workers=%d report differs from config 0\n got: %s\nwant: %s",
						trial, b, cfgs[k], rep, firstReport)
				}
			}
		}
	}
}

// TestPipelineCancelledBatchRollsBack pins the atomicity boundary: a
// batch cancelled inside the maintainer's verify leaves the relation, the
// cover, the monitored report, and the published epoch untouched, and the
// same batch re-applied afterwards lands byte-identical to fresh engines.
func TestPipelineCancelledBatchRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	errored := 0
	for trial := 0; trial < 10; trial++ {
		rel, ont := randomInstance(rng)
		p, err := New(context.Background(), rel.Clone(), ont, Options{
			FollowCover: true, Workers: 4,
		})
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		stream := randomStream(rng, p.Relation(), 4, 3)
		for _, op := range stream[:2] {
			applyOp(t, p, op)
		}
		ups := stream[2].updates
		if len(ups) == 0 {
			ups = []core.CellUpdate{{Row: 0, Col: 0, Value: "novel9"}}
		}
		beforeRel := p.Relation().Clone()
		beforeCover := p.Cover()
		beforeReport := reportJSON(t, p.Report())
		beforeEpoch := p.Monitor().Epoch()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := p.ApplyBatch(ctx, ups); err != nil {
			errored++
			if d, derr := p.Relation().DiffCells(beforeRel); derr != nil || d != 0 {
				t.Fatalf("trial %d: cancelled batch changed %d cells (err %v)", trial, d, derr)
			}
			if got := p.Cover(); !reflect.DeepEqual(got, beforeCover) {
				t.Fatalf("trial %d: cancelled batch changed the cover\n got: %v\nwant: %v", trial, got, beforeCover)
			}
			if got := reportJSON(t, p.Report()); got != beforeReport {
				t.Fatalf("trial %d: cancelled batch changed the report\n got: %s\nwant: %s", trial, got, beforeReport)
			}
			if got := p.Monitor().Epoch(); got != beforeEpoch {
				t.Fatalf("trial %d: cancelled batch published epoch %d (was %d)", trial, got, beforeEpoch)
			}
		}

		// Re-applying the same batch with a live context must land exactly
		// where fresh engines over the final instance land.
		if _, err := p.ApplyBatch(context.Background(), ups); err != nil {
			t.Fatalf("trial %d: re-apply after cancellation: %v", trial, err)
		}
		cover := p.Cover()
		want := discovery.Discover(p.Relation(), ont, discovery.DefaultOptions()).OFDs
		if !reflect.DeepEqual(cover, want) {
			t.Fatalf("trial %d: post-rollback cover diverged\n got: %v\nwant: %v", trial, cover, want)
		}
		if got, want := reportJSON(t, p.Report()), reportJSON(t, core.Detect(p.Relation(), ont, cover)); got != want {
			t.Fatalf("trial %d: post-rollback report diverged\n got: %s\nwant: %s", trial, got, want)
		}
	}
	if errored == 0 {
		t.Fatal("no batch errored under a pre-cancelled context")
	}
}

// TestPipelinePinnedSigma exercises the non-following shape: an explicit
// monitored set stays pinned while the cover drifts underneath, and both
// stay byte-identical to their fresh counterparts after every batch —
// including rows moving between classes when updates touch pinned
// antecedents.
func TestPipelinePinnedSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tested := 0
	for trial := 0; trial < 12 && tested < 6; trial++ {
		rel, ont := randomInstance(rng)
		sigma := discovery.Discover(rel, ont, discovery.DefaultOptions()).OFDs
		if len(sigma) == 0 {
			continue
		}
		tested++
		p, err := New(context.Background(), rel.Clone(), ont, Options{
			Sigma: sigma.Clone(), Workers: 4,
		})
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		for b, op := range randomStream(rng, p.Relation(), 4, 6) {
			applyOp(t, p, op)
			if got := p.Monitor().Sigma(); !reflect.DeepEqual(got, sigma) {
				t.Fatalf("trial %d batch %d: pinned sigma drifted\n got: %v\nwant: %v", trial, b, got, sigma)
			}
			if got, want := reportJSON(t, p.Report()), reportJSON(t, core.Detect(p.Relation(), ont, sigma)); got != want {
				t.Fatalf("trial %d batch %d: pinned-sigma report diverged\n got: %s\nwant: %s", trial, b, got, want)
			}
			cover := p.Cover()
			want := discovery.Discover(p.Relation(), ont, discovery.DefaultOptions()).OFDs
			if !reflect.DeepEqual(cover, want) {
				t.Fatalf("trial %d batch %d: cover diverged under pinned sigma\n got: %v\nwant: %v", trial, b, cover, want)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no trial produced a non-empty initial cover")
	}
}

// TestPipelineRegisterUnregister checks live membership changes on the
// relaxed monitor: registering a new dependency makes its violations
// appear in the next report exactly as a fresh Detect would explain them,
// and unregistering restores the previous report.
func TestPipelineRegisterUnregister(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		rel, ont := randomInstance(rng)
		p, err := New(context.Background(), rel.Clone(), ont, Options{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		base := p.Monitor().Sigma()
		baseReport := reportJSON(t, p.Report())

		// Pick a non-trivial dependency not already monitored.
		var extra core.OFD
		found := false
		for rhs := 0; rhs < rel.NumCols() && !found; rhs++ {
			for lhs := 0; lhs < rel.NumCols() && !found; lhs++ {
				if lhs == rhs {
					continue
				}
				d := core.OFD{LHS: relation.EmptySet.With(lhs), RHS: rhs}
				dup := false
				for _, e := range base {
					if e.LHS == d.LHS && e.RHS == d.RHS {
						dup = true
						break
					}
				}
				if !dup {
					extra, found = d, true
				}
			}
		}
		if !found {
			continue
		}
		if err := p.Monitor().Register(extra); err != nil {
			t.Fatalf("trial %d: Register: %v", trial, err)
		}
		if err := p.Monitor().Register(extra); err == nil {
			t.Fatalf("trial %d: duplicate Register must fail", trial)
		}
		want := reportJSON(t, core.Detect(p.Relation(), ont, append(base.Clone(), extra)))
		if got := reportJSON(t, p.Report()); got != want {
			t.Fatalf("trial %d: post-register report diverged\n got: %s\nwant: %s", trial, got, want)
		}
		if err := p.Monitor().Unregister(extra); err != nil {
			t.Fatalf("trial %d: Unregister: %v", trial, err)
		}
		if err := p.Monitor().Unregister(extra); err == nil {
			t.Fatalf("trial %d: double Unregister must fail", trial)
		}
		if got := reportJSON(t, p.Report()); got != baseReport {
			t.Fatalf("trial %d: post-unregister report diverged\n got: %s\nwant: %s", trial, got, baseReport)
		}
	}
}

// TestPipelineOptionValidation pins the FollowCover/Sigma exclusivity.
func TestPipelineOptionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel, ont := randomInstance(rng)
	_, err := New(context.Background(), rel, ont, Options{
		FollowCover: true,
		Sigma:       core.Set{{LHS: relation.EmptySet.With(0), RHS: 1}},
	})
	if err == nil {
		t.Fatal("FollowCover with explicit Sigma must be rejected")
	}
}
