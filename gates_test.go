package fastofd_test

// Identity gates of the live engines. Each test replays a seeded update
// stream through an engine and asserts that what the engine answers is
// byte-identical (as JSON) to a fresh recomputation over the evolved
// instance: the monitor's report to Detect, the maintainer's cover to
// Discover, both of them through the merged pipeline, and both across a
// snapshot Save/Open. The byte-budgeted partition cache is gated on its
// budget. The per-batch cost of the live engines is measured by perfbench.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

// streamOp is one element of a deterministic maintenance stream: either a
// cell update (part of the surrounding batch) or an appended tuple.
type streamOp struct {
	appendRow []string // non-nil: append this tuple
	update    fastofd.CellUpdate
}

// monitorSigma narrows the planted Σ to monitorable dependencies
// (disjoint antecedents and consequents — true for the Clinical
// generator, but keep the gates robust to preset changes).
func monitorSigma(ds *gen.Dataset) fastofd.Set {
	var lhs, rhs relation.AttrSet
	out := make(fastofd.Set, 0, len(ds.Sigma))
	for _, d := range ds.Sigma {
		if !d.LHS.Intersect(rhs).IsEmpty() || lhs.Has(d.RHS) || d.LHS.Has(d.RHS) {
			continue
		}
		lhs = lhs.Union(d.LHS)
		rhs = rhs.With(d.RHS)
		out = append(out, d)
	}
	return out
}

// monitorStream builds a seeded stream of nBatches batches over the
// dataset: each batch holds batchSize consequent-cell updates plus a few
// appends. Values are drawn from the column's existing pool plus
// occasional novel strings, so the stream exercises both re-verification
// outcomes and the names-table extend-on-intern path. Row ids respect the
// growing instance, so the same stream replays identically on any copy of
// the relation.
func monitorStream(ds *gen.Dataset, sigma fastofd.Set, nBatches, batchSize, appendsPerBatch int, seed int64) [][]streamOp {
	rng := rand.New(rand.NewSource(seed))
	rhsCols := make([]int, 0, len(sigma))
	for _, d := range sigma {
		rhsCols = append(rhsCols, d.RHS)
	}
	pools := make(map[int][]string, len(rhsCols))
	for _, c := range rhsCols {
		pools[c] = ds.Rel.Project(c)
	}
	baseRows := ds.Rel.NumRows()
	nRows := baseRows
	batches := make([][]streamOp, nBatches)
	for b := range batches {
		ops := make([]streamOp, 0, batchSize+appendsPerBatch)
		for k := 0; k < batchSize; k++ {
			col := rhsCols[rng.Intn(len(rhsCols))]
			val := pools[col][rng.Intn(len(pools[col]))]
			if rng.Intn(50) == 0 { // novel, out-of-ontology value
				val = fmt.Sprintf("bench-novel-%d-%d", b, k)
			}
			ops = append(ops, streamOp{update: fastofd.CellUpdate{Row: rng.Intn(nRows), Col: col, Value: val}})
		}
		for k := 0; k < appendsPerBatch; k++ {
			// Appended tuples clone the *base* relation's rows (the stream is
			// generated before any op applies); update row ids may target the
			// whole growing instance, tracked by nRows.
			row := ds.Rel.Row(rng.Intn(baseRows))
			col := rhsCols[rng.Intn(len(rhsCols))]
			row[col] = pools[col][rng.Intn(len(pools[col]))]
			ops = append(ops, streamOp{appendRow: row})
			nRows++
		}
		batches[b] = ops
	}
	return batches
}

// discoveryStream builds a seeded stream of nBatches batches over the
// dataset, shaped like a live ingestion pipeline rather than uniform
// noise: each batch's fresh errors concentrate on a few focus attributes
// (one import job dirties specific fields), half the batch repairs the
// oldest outstanding corruptions back to their original values, and most
// appended tuples are clean re-entries of existing rows. Corruptions
// demote OFDs over the focus consequents; repairs drain columns back to
// clean and promote them again, so the stream drives both flip
// directions. Occasional novel strings fall outside the ontology
// entirely. Row ids stay within the base relation, so the same stream
// replays identically on any copy.
func discoveryStream(ds *gen.Dataset, nBatches, batchSize, appendsPerBatch int, seed int64) [][]streamOp {
	rng := rand.New(rand.NewSource(seed))
	cols := ds.Rel.NumCols()
	pools := make([][]string, cols)
	for c := 0; c < cols; c++ {
		pools[c] = ds.Rel.Project(c)
	}
	baseRows := ds.Rel.NumRows()
	type corruption struct {
		row, col int
		orig     string
	}
	var outstanding []corruption
	batches := make([][]streamOp, nBatches)
	for b := range batches {
		focus := rng.Perm(cols)[:2+rng.Intn(2)]
		ops := make([]streamOp, 0, batchSize+appendsPerBatch)
		for k := 0; k < batchSize; k++ {
			if k%2 == 1 && len(outstanding) > 0 {
				fix := outstanding[0]
				outstanding = outstanding[1:]
				ops = append(ops, streamOp{update: fastofd.CellUpdate{Row: fix.row, Col: fix.col, Value: fix.orig}})
				continue
			}
			col := focus[rng.Intn(len(focus))]
			row := rng.Intn(baseRows)
			val := pools[col][rng.Intn(len(pools[col]))]
			if rng.Intn(50) == 0 { // novel, out-of-ontology value
				val = fmt.Sprintf("bench-novel-%d-%d", b, k)
			}
			outstanding = append(outstanding, corruption{row, col, ds.Rel.String(row, col)})
			ops = append(ops, streamOp{update: fastofd.CellUpdate{Row: row, Col: col, Value: val}})
		}
		for k := 0; k < appendsPerBatch; k++ {
			row := ds.Rel.Row(rng.Intn(baseRows))
			if rng.Intn(5) == 0 { // the rest are clean re-entries
				col := focus[rng.Intn(len(focus))]
				row[col] = pools[col][rng.Intn(len(pools[col]))]
			}
			ops = append(ops, streamOp{appendRow: row})
		}
		batches[b] = ops
	}
	return batches
}

// splitBatch separates one stream batch into its cell updates and its
// appended tuples, preserving order within each kind.
func splitBatch(ops []streamOp) ([]fastofd.CellUpdate, [][]string) {
	var updates []fastofd.CellUpdate
	var appends [][]string
	for _, op := range ops {
		if op.appendRow != nil {
			appends = append(appends, op.appendRow)
			continue
		}
		updates = append(updates, op.update)
	}
	return updates, appends
}

// evolve applies the whole stream to a bare relation and returns it: the
// instance the fresh Detect and Discover references run on.
func evolve(rel *fastofd.Relation, batches [][]streamOp) *fastofd.Relation {
	for _, ops := range batches {
		updates, appends := splitBatch(ops)
		for _, u := range updates {
			rel.SetString(u.Row, u.Col, u.Value)
		}
		for _, row := range appends {
			rel.AppendRow(row)
		}
	}
	return rel
}

// replayPipeline replays the stream through p: each batch's updates in
// one ApplyBatch, then its appended tuples in one AppendRows.
func replayPipeline(ctx context.Context, p *fastofd.Pipeline, batches [][]streamOp) error {
	for _, ops := range batches {
		updates, appends := splitBatch(ops)
		if _, err := p.ApplyBatch(ctx, updates); err != nil {
			return err
		}
		if len(appends) > 0 {
			if _, err := p.AppendRows(appends); err != nil {
				return err
			}
		}
	}
	return nil
}

// mustJSON returns v as canonical JSON.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMonitorReportMatchesDetect: after two batches of 1 % consequent
// updates plus batch/20 appends, the monitor's report is byte-identical
// to a fresh Detect over the evolved instance, for every worker count.
// The 200K-row case keeps every worker under real key fan-out.
func TestMonitorReportMatchesDetect(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		rows    int
		workers []int
	}{
		{300, []int{1, 2, 4}},
		{200_000, []int{4}},
	} {
		ds := gen.Clinical(tc.rows, 1)
		sigma := monitorSigma(ds)
		batchSize := tc.rows / 100
		batches := monitorStream(ds, sigma, 2, batchSize, batchSize/20, 7)
		want := mustJSON(t, fastofd.DetectWorkers(evolve(ds.Rel.Clone(), batches), ds.FullOnt, sigma, 0))
		for _, w := range tc.workers {
			m, err := fastofd.NewMonitor(ctx, ds.Rel.Clone(), ds.FullOnt, sigma, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Appends apply as they come; each batch's updates flush
			// through one ApplyBatchContext.
			for _, ops := range batches {
				updates, appends := splitBatch(ops)
				for _, row := range appends {
					if _, err := m.AppendRow(row); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.ApplyBatchContext(ctx, updates); err != nil {
					t.Fatal(err)
				}
			}
			if got := mustJSON(t, m.Report()); got != want {
				t.Errorf("rows=%d workers=%d: monitor report differs from fresh Detect", tc.rows, w)
			}
		}
	}
}

// TestMaintainerCoverMatchesDiscover: after two ingestion-shaped batches —
// pure updates at 0.1 % of the rows, and 1 % updates with appends — the
// maintained cover is byte-identical to a fresh Discover over the evolved
// instance, for one worker and all CPUs. A maintained batch must also
// cost less than that one fresh Discover; it is two orders of magnitude
// cheaper on two CPUs, so the check holds under -race and a loaded machine.
func TestMaintainerCoverMatchesDiscover(t *testing.T) {
	ctx := context.Background()
	const rows, nBatches = 8000, 2
	ds := gen.Clinical(rows, 1)
	for _, batchSize := range []int{rows / 1000, rows / 100} {
		batches := discoveryStream(ds, nBatches, batchSize, batchSize/20, 7)
		evolved := evolve(ds.Rel.Clone(), batches)
		start := time.Now()
		ref := fastofd.Discover(evolved, ds.FullOnt, fastofd.DefaultDiscoveryOptions())
		fresh := time.Since(start)
		want := mustJSON(t, ref.OFDs)
		for _, w := range []int{1, 0} {
			opts := fastofd.DefaultDiscoveryOptions()
			opts.Workers = w
			mt, err := fastofd.NewMaintainer(ctx, ds.Rel.Clone(), ds.FullOnt, opts)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			for _, ops := range batches {
				updates, appends := splitBatch(ops)
				if _, err := mt.ApplyBatchContext(ctx, updates); err != nil {
					t.Fatal(err)
				}
				if len(appends) > 0 {
					if _, err := mt.AppendRows(appends); err != nil {
						t.Fatal(err)
					}
				}
			}
			perBatch := time.Since(start) / nBatches
			if got := mustJSON(t, mt.Cover()); got != want {
				t.Errorf("batch=%d workers=%d: maintained cover differs from fresh Discover", batchSize, w)
			}
			if perBatch >= fresh {
				t.Errorf("batch=%d workers=%d: a maintained batch took %v, a fresh Discover %v", batchSize, w, perBatch, fresh)
			}
		}
	}
}

// TestPipelineMatchesEngines: the merged pipeline, monitoring its initial
// cover, answers Report() byte-identically to a fresh Detect of that cover
// and Cover() byte-identically to a fresh Discover, both over the evolved
// instance.
func TestPipelineMatchesEngines(t *testing.T) {
	ctx := context.Background()
	const rows = 8000
	ds := gen.Clinical(rows, 1)
	batchSize := rows / 100
	batches := discoveryStream(ds, 2, batchSize, batchSize/20, 13)
	initial := fastofd.Discover(ds.Rel, ds.FullOnt, fastofd.DefaultDiscoveryOptions()).OFDs
	evolved := evolve(ds.Rel.Clone(), batches)
	wantReport := mustJSON(t, fastofd.DetectWorkers(evolved, ds.FullOnt, initial, 0))
	wantCover := mustJSON(t, fastofd.Discover(evolved, ds.FullOnt, fastofd.DefaultDiscoveryOptions()).OFDs)
	for _, w := range []int{1, 4} {
		p, err := fastofd.NewPipeline(ctx, ds.Rel.Clone(), ds.FullOnt, fastofd.PipelineOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := replayPipeline(ctx, p, batches); err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, p.Report()); got != wantReport {
			t.Errorf("workers=%d: pipeline report differs from fresh Detect", w)
		}
		if got := mustJSON(t, p.Cover()); got != wantCover {
			t.Errorf("workers=%d: pipeline cover differs from fresh Discover", w)
		}
	}
}

// TestSnapshotReopenMatchesLive: a 4-worker pipeline saved and reopened
// answers Report() and Cover() byte-identically to the live one, and
// keeps doing so — with the same monitor epoch — after one identical
// batch replayed through both. Reopening must beat the cold build it
// replaces (about 30× at this size).
func TestSnapshotReopenMatchesLive(t *testing.T) {
	ctx := context.Background()
	ds := gen.Clinical(5000, 1)
	start := time.Now()
	p, err := fastofd.NewPipeline(ctx, ds.Rel, ds.FullOnt, fastofd.PipelineOptions{Sigma: monitorSigma(ds), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	path := filepath.Join(t.TempDir(), "state.snapshot")
	if err := fastofd.SaveSnapshot(path, &fastofd.SnapshotState{Pipeline: p}); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	re, err := fastofd.OpenSnapshot(path, fastofd.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reopen := time.Since(start)
	if reopen >= cold {
		t.Errorf("snapshot reopen took %v, no faster than the cold build's %v", reopen, cold)
	}

	same := func(when string) {
		t.Helper()
		if mustJSON(t, re.Pipeline.Report()) != mustJSON(t, p.Report()) {
			t.Errorf("%s: reopened report differs from the live one", when)
		}
		if mustJSON(t, re.Pipeline.Cover()) != mustJSON(t, p.Cover()) {
			t.Errorf("%s: reopened cover differs from the live one", when)
		}
		if re.Pipeline.Monitor().Epoch() != p.Monitor().Epoch() {
			t.Errorf("%s: reopened monitor epoch %d, live %d", when, re.Pipeline.Monitor().Epoch(), p.Monitor().Epoch())
		}
	}
	same("after reopen")

	sigma := p.Monitor().Sigma()
	stream := monitorStream(ds, sigma, 1, 50, 20, 7)
	reStream := monitorStream(&gen.Dataset{Rel: re.Relation}, sigma, 1, 50, 20, 7)
	if err := replayPipeline(ctx, p, stream); err != nil {
		t.Fatal(err)
	}
	if err := replayPipeline(ctx, re.Pipeline, reStream); err != nil {
		t.Fatal(err)
	}
	same("after one batch")
}

// cacheTrace builds a deterministic partition-access trace: a small hot
// set of multi-attribute sets dominates (~70% of accesses, skewed), the
// rest are colder uniform draws over levels 1–3.
func cacheTrace(cols, ops int, seed int64) []relation.AttrSet {
	rng := rand.New(rand.NewSource(seed))
	randomSet := func(k int) relation.AttrSet {
		s := relation.EmptySet
		for _, c := range rng.Perm(cols)[:k] {
			s = s.With(c)
		}
		return s
	}
	hot := make([]relation.AttrSet, 4)
	for i := range hot {
		hot[i] = randomSet(2 + i%2)
	}
	trace := make([]relation.AttrSet, 0, ops)
	for i := 0; i < ops; i++ {
		if rng.Intn(10) < 7 {
			// Skewed: hot[0] twice as likely as hot[3].
			trace = append(trace, hot[rng.Intn(len(hot))*(1+rng.Intn(2))/2])
		} else {
			trace = append(trace, randomSet(1+rng.Intn(3)))
		}
	}
	return trace
}

// replayTrace replays the trace against a fresh cache with the given
// budget (0 = unbounded) and returns the largest payload seen after any
// Get and the largest single partition the trace asked for.
func replayTrace(rel *relation.Relation, trace []relation.AttrSet, budget int64) (peak, maxEntry int64) {
	pc, _ := relation.NewPartitionCacheContext(context.Background(), rel, 0)
	if budget > 0 {
		pc.SetBudget(budget)
	}
	var buf relation.ProductBuffer
	for _, attrs := range trace {
		p := pc.GetWith(attrs, &buf)
		if b := int64(4 * (len(p.Tuples) + len(p.Offsets))); b > maxEntry {
			maxEntry = b
		}
		if b := pc.Stats().Bytes; b > peak {
			peak = b
		}
	}
	return peak, maxEntry
}

// TestCacheBudgetRespected replays the skewed hot/cold trace at ½ and ⅒
// of the unbounded footprint: after every Get the cache payload stays
// within the budget plus the one in-flight partition the contract allows.
func TestCacheBudgetRespected(t *testing.T) {
	ds := gen.Clinical(5000, 1)
	trace := cacheTrace(ds.Rel.NumCols(), 200, 7)
	unbounded, maxEntry := replayTrace(ds.Rel, trace, 0)
	for _, frac := range []float64{0.5, 0.1} {
		budget := max(int64(float64(unbounded)*frac), maxEntry)
		if peak, _ := replayTrace(ds.Rel, trace, budget); peak > budget+maxEntry {
			t.Errorf("budget %d bytes (%.0f%% of %d): payload peaked at %d > budget + %d", budget, frac*100, unbounded, peak, maxEntry)
		}
	}
}
