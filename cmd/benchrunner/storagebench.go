package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/snapshot"
)

// sweepCapRows caps the eviction sweep size: partition Gets are linear in
// the row count, so beyond this the sweep dominates the bench wall clock
// while the budget behaviour it measures is unchanged.
const sweepCapRows = 100_000

// storageReport is the machine-readable output of -storagebench: the
// instant-restart headline (cold pipeline build vs snapshot reopen, with
// byte-identity of the first post-reopen Report and cover)
// and the byte-budgeted partition-cache sweep (cost-model eviction at
// several budgets over one deterministic access trace).
type storageReport struct {
	benchEnv
	Rows int `json:"rows"`
	// SnapshotBytes is the on-disk size of the saved pipeline: relation
	// blocks, ontology, cached partitions, monitor indexes, cover.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// ColdBuildNs is the restart cost without snapshots: pipeline.New (a
	// full discovery plus the monitor build) over the generated instance.
	// SaveNs/ReopenNs are the snapshot path; ReopenSpeedup is the headline
	// ColdBuildNs / ReopenNs.
	ColdBuildNs   float64 `json:"cold_build_ns"`
	SaveNs        float64 `json:"save_ns"`
	ReopenNs      float64 `json:"reopen_ns"`
	ReopenSpeedup float64 `json:"reopen_speedup"`
	// SnapshotIdentical records that the reopened pipeline's first Report
	// and cover were byte-identical (as JSON) to the live ones, and that
	// replaying one identical update stream on the live and reopened
	// pipelines kept both byte-identical.
	SnapshotIdentical bool `json:"snapshot_identical"`
	// SweepRows is the instance size of the eviction sweep (rows capped at
	// sweepCapRows); Sweep holds one row per budget over the shared
	// deterministic trace.
	SweepRows int        `json:"sweep_rows"`
	Sweep     []sweepRow `json:"sweep"`
	// BudgetRespected records that every budgeted configuration kept the
	// cache payload within budget + one in-flight partition after every
	// Get.
	BudgetRespected bool          `json:"budget_respected"`
	Results         []benchResult `json:"results"`
	// Cache aggregates the pipeline partition-cache counters of the restart
	// experiment (the sweep caches are reported per-row in Sweep).
	Cache cacheTotals `json:"cache"`
	// Stats carries the monitor.build / maintain.build / discovery spans
	// accumulated across the runs.
	Stats *exec.Stats `json:"stats"`
}

// sweepRow is one budget of the eviction sweep. Hits and Misses are
// top-level trace outcomes — whether each requested set answered from
// cache — regardless of how deep the miss-path rebuilds recurse;
// Evictions is the trace-only delta (CacheStats.Since from the
// post-warmup snapshot).
type sweepRow struct {
	BudgetBytes int64   `json:"budget_bytes"`
	BudgetFrac  float64 `json:"budget_frac"` // of the unbounded trace footprint
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	Evictions   uint64  `json:"evictions"`
	// PeakBytes is the largest payload observed after any Get of the
	// trace; WithinBudget asserts it never exceeded budget + the largest
	// single partition (the one in-flight insert the contract allows).
	PeakBytes    int64 `json:"peak_bytes"`
	WithinBudget bool  `json:"within_budget"`
}

// storageTrace builds the deterministic partition-access trace the
// eviction sweep replays: a small hot set of multi-attribute sets
// dominates (~70% of accesses, skewed), the rest are colder uniform
// draws over levels 1–3. The same seed always yields the same trace, so
// budgets compare exactly.
func storageTrace(cols, ops int, seed int64) []relation.AttrSet {
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

// traceRun is one replayed trace's outcome: top-level hit/miss counts
// (per trace op — recursive subset rebuilds inside a miss are excluded,
// so the rate is comparable across budgets with different rebuild
// depths), the trace-only counter deltas, the observed post-Get payload
// peak, and the wall time.
type traceRun struct {
	hits, misses uint64
	delta        relation.CacheStats
	peak         int64
	ns           float64
}

// replayTrace replays the trace against a fresh cache configured with the
// given budget. A zero budget leaves the cache unbounded (the
// footprint-reference run).
func replayTrace(rel *relation.Relation, trace []relation.AttrSet, budget int64) traceRun {
	pc := relation.NewPartitionCacheParallel(rel, 0)
	if budget > 0 {
		pc.SetBudget(budget)
	}
	prev := pc.Stats()
	var run traceRun
	var buf relation.ProductBuffer
	lastMisses := prev.Misses
	start := time.Now()
	for _, attrs := range trace {
		pc.GetWith(attrs, &buf)
		st := pc.Stats()
		// A trace op hit at the top level iff the Get caused no miss at
		// all (a top-level hit never recurses).
		if st.Misses == lastMisses {
			run.hits++
		} else {
			run.misses++
		}
		lastMisses = st.Misses
		if st.Bytes > run.peak {
			run.peak = st.Bytes
		}
	}
	run.ns = float64(time.Since(start).Nanoseconds())
	run.delta = pc.Stats().Since(prev)
	return run
}

// runStorageBench measures the storage tier and writes BENCH_storage.json:
// a cold pipeline build vs snapshot Save/Open at rows tuples (asserting
// byte-identical reports and cover, and identical evolution under one
// replayed update stream), then the eviction sweep at several byte
// budgets. smoke shrinks the trace and budget grid for CI. A
// cancelled ctx stops between stages; the rows measured so far are still
// written before the error returns.
func runStorageBench(ctx context.Context, stats *exec.Stats, path string, rows int, smoke bool) error {
	report := storageReport{
		benchEnv:          newBenchEnv(),
		Rows:              rows,
		SnapshotIdentical: true,
		BudgetRespected:   true,
		Stats:             stats,
	}
	partial := partialWriter(path, &report, &report.Results, 30)
	addRow := func(name string, ns float64) {
		report.Results = append(report.Results, benchResult{Name: name, Iterations: 1, NsPerOp: ns})
	}

	// --- Instant restart: cold build vs snapshot reopen -----------------
	ds := gen.Clinical(rows, 1)

	start := time.Now()
	p, err := pipeline.New(ctx, ds.Rel, ds.FullOnt, pipeline.Options{
		Sigma: monitorSigma(ds), Shards: 4, Stats: stats,
	})
	if err != nil {
		return partial(err)
	}
	report.ColdBuildNs = float64(time.Since(start).Nanoseconds())
	addRow("cold-pipeline-build", report.ColdBuildNs)

	liveReport, liveCover, err := pipelineJSON(p)
	if err != nil {
		return partial(err)
	}

	dir, err := os.MkdirTemp("", "storagebench-")
	if err != nil {
		return partial(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "state.snapshot")
	start = time.Now()
	if err := snapshot.Save(snapPath, &snapshot.State{Pipeline: p}); err != nil {
		return partial(err)
	}
	report.SaveNs = float64(time.Since(start).Nanoseconds())
	addRow("snapshot-save", report.SaveNs)
	if fi, err := os.Stat(snapPath); err == nil {
		report.SnapshotBytes = fi.Size()
	}

	start = time.Now()
	re, err := snapshot.Open(snapPath, snapshot.Options{Workers: 0, Stats: stats})
	if err != nil {
		return partial(err)
	}
	report.ReopenNs = float64(time.Since(start).Nanoseconds())
	addRow("snapshot-reopen", report.ReopenNs)
	report.ReopenSpeedup = report.ColdBuildNs / report.ReopenNs

	// First post-reopen report and cover must be byte-identical to the
	// live ones.
	reReport, reCover, err := pipelineJSON(re.Pipeline)
	if err != nil {
		return partial(err)
	}
	if reReport != liveReport {
		report.SnapshotIdentical = false
		fmt.Fprintln(os.Stderr, "storagebench: reopened pipeline report differs from live report")
	}
	if reCover != liveCover {
		report.SnapshotIdentical = false
		fmt.Fprintln(os.Stderr, "storagebench: reopened pipeline cover differs from live cover")
	}

	// The reopened pipeline must also evolve identically: replay one
	// identical update stream through both and compare again.
	evolveBatch := rows / 100
	if evolveBatch > 500 {
		evolveBatch = 500
	}
	if evolveBatch < 10 {
		evolveBatch = 10
	}
	sigma := p.Monitor().Sigma()
	stream := monitorStream(ds, sigma, 1, evolveBatch, 20, 7)
	reStream := monitorStream(&gen.Dataset{Rel: re.Relation}, sigma, 1, evolveBatch, 20, 7)
	if err := replayPipeline(ctx, p, stream); err != nil {
		return partial(err)
	}
	if err := replayPipeline(ctx, re.Pipeline, reStream); err != nil {
		return partial(err)
	}
	liveReport, liveCover, err = pipelineJSON(p)
	if err != nil {
		return partial(err)
	}
	reReport, reCover, err = pipelineJSON(re.Pipeline)
	if err != nil {
		return partial(err)
	}
	if reReport != liveReport || reCover != liveCover || p.Monitor().Epoch() != re.Pipeline.Monitor().Epoch() {
		report.SnapshotIdentical = false
		fmt.Fprintln(os.Stderr, "storagebench: post-reopen evolution diverged between live and reopened pipelines")
	}
	report.Cache.add(p.CacheStats())
	report.Cache.add(re.Pipeline.CacheStats())

	if err := exec.Interrupted(ctx, "storagebench"); err != nil {
		return partial(err)
	}

	// --- Eviction sweep -------------------------------------------------
	sweepRows := rows
	if sweepRows > sweepCapRows {
		sweepRows = sweepCapRows
	}
	report.SweepRows = sweepRows
	sds := ds
	if sweepRows != rows {
		sds = gen.Clinical(sweepRows, 1)
	}
	ops := 600
	fracs := []float64{0.5, 0.25, 0.1}
	if smoke {
		ops = 200
		fracs = []float64{0.5, 0.1}
	}
	trace := storageTrace(sds.Rel.NumCols(), ops, 7)

	// Unbounded reference run: its steady-state footprint anchors the
	// budget fractions, and its largest single partition is the allowed
	// one-in-flight overshoot.
	ref := replayTrace(sds.Rel, trace, 0)
	addRow("sweep-unbounded", ref.ns)
	var maxEntry int64
	{
		pc := relation.NewPartitionCacheParallel(sds.Rel, 0)
		var buf relation.ProductBuffer
		for _, attrs := range trace {
			p := pc.GetWith(attrs, &buf)
			if b := int64(4 * (len(p.Tuples) + len(p.Offsets))); b > maxEntry {
				maxEntry = b
			}
		}
	}

	for _, frac := range fracs {
		if err := exec.Interrupted(ctx, "storagebench"); err != nil {
			return partial(err)
		}
		budget := int64(float64(ref.peak) * frac)
		if budget < maxEntry {
			budget = maxEntry
		}
		run := replayTrace(sds.Rel, trace, budget)
		rate := 0.0
		if run.hits+run.misses > 0 {
			rate = float64(run.hits) / float64(run.hits+run.misses)
		}
		within := run.peak <= budget+maxEntry
		if !within {
			report.BudgetRespected = false
			fmt.Fprintf(os.Stderr, "storagebench: budget %d bytes peaked at %d (> budget + %d)\n",
				budget, run.peak, maxEntry)
		}
		report.Sweep = append(report.Sweep, sweepRow{
			BudgetBytes:  budget,
			BudgetFrac:   frac,
			Hits:         run.hits,
			Misses:       run.misses,
			HitRate:      rate,
			Evictions:    run.delta.Evictions,
			PeakBytes:    run.peak,
			WithinBudget: within,
		})
		addRow(fmt.Sprintf("sweep-b%02.0f", frac*100), run.ns)
	}

	if err := writeBenchReport(path, report, report.Results, 30); err != nil {
		return err
	}
	fmt.Printf("snapshot reopen: %.1fx faster than cold build (%.0fms vs %.0fms, %d rows, %d snapshot bytes)\n",
		report.ReopenSpeedup, report.ReopenNs/1e6, report.ColdBuildNs/1e6, rows, report.SnapshotBytes)
	fmt.Printf("snapshot identical: %v; budget respected: %v\n",
		report.SnapshotIdentical, report.BudgetRespected)
	fmt.Printf("wrote %s\n", path)
	return exec.Interrupted(ctx, "storagebench")
}
