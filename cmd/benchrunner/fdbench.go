package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/fd"
	"github.com/fastofd/fastofd/internal/gen"
)

// fdReport is the machine-readable output of -fdbench. It follows the
// BENCH_partition.json row format and adds the Exp-1 runtime curve (every FD
// algorithm vs tuple count on the Clinical generator), agree-set
// micro-benchmarks against the pre-engine pair-enumeration baseline, and a
// determinism check of parallel vs sequential discovery.
type fdReport struct {
	benchEnv
	Rows int `json:"rows"`
	// AgreeSpeedup / AgreeAllocRatio are the headline engine-vs-baseline
	// ratios on the agree-set micro-bench at Rows tuples (sequential engine,
	// so the factor is algorithmic, not parallelism).
	AgreeSpeedup    float64 `json:"agree_speedup"`
	AgreeAllocRatio float64 `json:"agree_alloc_ratio"`
	// Deterministic records that every algorithm produced byte-identical
	// results with Workers=1 and Workers=NumCPU at Rows tuples.
	Deterministic bool          `json:"deterministic"`
	Results       []benchResult `json:"results"`
	// Stats holds the discovery engines' per-stage spans (fd.<algo>,
	// evidence.*) accumulated across every run of the curve.
	Stats *exec.Stats `json:"stats"`
}

// runFDBench measures the seven FD-discovery baselines on the Clinical
// workload and writes BENCH_fd.json. smoke shrinks the curve to one small
// size and single iterations for CI. A cancelled ctx stops between runs;
// the rows measured so far are still written before the error returns.
func runFDBench(ctx context.Context, stats *exec.Stats, path string, rows int, smoke bool) error {
	sizes := []int{rows / 8, rows / 4, rows / 2, rows}
	iters := 3
	if smoke {
		sizes = []int{rows}
		iters = 1
	}

	report := fdReport{
		benchEnv: newBenchEnv(),
		Rows:     rows,
		Stats:    stats,
	}
	partial := partialWriter(path, &report, &report.Results, 28)

	// Exp-1 curve: per-algorithm wall time, and the bytes and allocations
	// the process made meanwhile (runtime.MemStats deltas), of the fastest
	// of iters runs at each size, and the FD count found.
	discOpts := fd.DefaultOptions()
	discOpts.Stats = stats
	for _, n := range sizes {
		if n < 2 {
			continue
		}
		ds := gen.Clinical(n, 1)
		for _, alg := range fd.Algorithms() {
			row := benchResult{Name: fmt.Sprintf("discover-%s-n%d", alg, n), Iterations: iters}
			for it := 0; it < iters; it++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				res, err := fd.DiscoverContext(ctx, alg, ds.Rel, discOpts)
				ns := float64(time.Since(start).Nanoseconds())
				runtime.ReadMemStats(&after)
				if err != nil {
					return partial(err)
				}
				if it == 0 || ns < row.NsPerOp {
					row.NsPerOp = ns
					row.BytesPerOp = int64(after.TotalAlloc - before.TotalAlloc)
					row.AllocsPerOp = int64(after.Mallocs - before.Mallocs)
				}
				row.FDs = len(res.FDs)
			}
			report.Results = append(report.Results, row)
		}
	}

	// Agree-set micro-benchmarks at the base size: the cluster engine
	// (sequential and parallel) against the pre-engine pair-enumeration
	// baseline, with allocation accounting.
	if err := exec.Interrupted(ctx, "fdbench"); err != nil {
		return partial(err)
	}
	ds := gen.Clinical(rows, 1)
	addMicro := func(name string, fn func(b *testing.B)) benchResult {
		r := testing.Benchmark(fn)
		row := benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		report.Results = append(report.Results, row)
		return row
	}
	engine := addMicro("agree-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fd.ComputeEvidence(ds.Rel, fd.Options{Workers: 1})
		}
	})
	addMicro("agree-engine-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fd.ComputeEvidence(ds.Rel, fd.Options{})
		}
	})
	baseline := addMicro("agree-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fd.AgreeSetsBaseline(ds.Rel)
		}
	})
	report.AgreeSpeedup = baseline.NsPerOp / engine.NsPerOp
	if engine.AllocsPerOp > 0 {
		report.AgreeAllocRatio = float64(baseline.AllocsPerOp) / float64(engine.AllocsPerOp)
	}

	// Determinism: parallel output must be byte-identical to sequential for
	// every algorithm at the base size.
	report.Deterministic = true
	for _, alg := range fd.Algorithms() {
		seq, err := fd.DiscoverContext(ctx, alg, ds.Rel, fd.Options{Workers: 1, Stats: stats})
		if err != nil {
			return partial(err)
		}
		par, err := fd.DiscoverContext(ctx, alg, ds.Rel, fd.Options{Workers: 0, Stats: stats})
		if err != nil {
			return partial(err)
		}
		if !reflect.DeepEqual(seq.FDs, par.FDs) || seq.RawCount != par.RawCount {
			report.Deterministic = false
			fmt.Fprintf(os.Stderr, "fdbench: %s parallel output differs from sequential\n", alg)
		}
	}

	if err := writeBenchReport(path, report, report.Results, 28); err != nil {
		return err
	}
	fmt.Printf("agree-set engine vs baseline: %.2fx faster, %.1fx fewer allocs (rows=%d)\n",
		report.AgreeSpeedup, report.AgreeAllocRatio, rows)
	fmt.Printf("deterministic across worker counts: %v\n", report.Deterministic)
	fmt.Printf("wrote %s\n", path)
	return nil
}
