package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

// rebuildCapRows caps the per-batch full-rebuild baseline: beyond this
// size a DetectContext after every batch dominates the wall clock without
// adding information (the incremental-vs-rebuild gap only grows with n).
// Larger sizes still get one final Detect as the byte-identity reference.
const rebuildCapRows = 250_000

// monitorReport is the machine-readable output of -monitorbench:
// incremental violation maintenance (Monitor.ApplyBatch + AppendRow)
// against full DetectContext rebuilds on identical update streams over
// the Clinical workload, swept across tuple counts, batch sizes, LHS-key
// shard counts, and worker counts.
type monitorReport struct {
	benchEnv
	Rows int `json:"rows"`
	// Shards and Cpus are the swept shard and worker counts (as given;
	// series names carry the effective values).
	Shards []int `json:"shards"`
	Cpus   []int `json:"cpus"`
	// Speedup is the incremental-vs-rebuild headline: full-rebuild ns over
	// best incremental ns at the largest size with a measured rebuild
	// baseline, 1%-of-rows batches.
	Speedup float64 `json:"speedup"`
	// ShardSpeedup compares the sharded monitor against the single-shard
	// one: best s=1 ns over best s>1 ns at the largest size, largest
	// batches (0 when the sweep has no multi-shard config). On a 1-CPU
	// host this hovers near 1.0 — sharding pays off with cores.
	ShardSpeedup float64 `json:"shard_speedup"`
	// ReportsIdentical records that, for every configuration, shard count,
	// and worker count, the monitor's final report was byte-identical (as
	// JSON) to a fresh Detect over the evolved instance.
	ReportsIdentical bool          `json:"reports_identical"`
	Results          []benchResult `json:"results"`
	// Cache aggregates the relation.PartitionCache counters across every
	// monitor the bench built: total hits/misses, and the peak
	// entries/bytes footprint of any single cache.
	Cache cacheTotals `json:"cache"`
	// Stats carries the monitor.build / monitor.route / monitor.apply /
	// monitor.merge / detect.verify spans accumulated across the runs.
	Stats *exec.Stats `json:"stats"`
}

// cacheTotals is the aggregated partition-cache block of monitorReport.
type cacheTotals struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	PeakEntries int    `json:"peak_entries"`
	PeakBytes   int64  `json:"peak_bytes"`
}

func (c *cacheTotals) add(st relation.CacheStats) {
	c.Hits += st.Hits
	c.Misses += st.Misses
	c.peak(st)
}

// peak raises the peak gauges to st's without counting its lookups.
func (c *cacheTotals) peak(st relation.CacheStats) {
	if st.Entries > c.PeakEntries {
		c.PeakEntries = st.Entries
	}
	if st.Bytes > c.PeakBytes {
		c.PeakBytes = st.Bytes
	}
}

// monitorOp is one element of a deterministic maintenance stream: either a
// cell update (part of the surrounding batch) or an appended tuple.
type monitorOp struct {
	appendRow []string // non-nil: append this tuple
	update    core.CellUpdate
}

// monitorStream builds a seeded stream of nBatches batches over the dataset:
// each batch holds batchSize consequent-cell updates plus a few appends.
// Values are drawn from the column's existing pool plus occasional novel
// strings, so the stream exercises both re-verification outcomes and the
// names-table extend-on-intern path. Row ids respect the growing instance,
// so the same stream replays identically on any copy of the relation.
func monitorStream(ds *gen.Dataset, sigma core.Set, nBatches, batchSize, appendsPerBatch int, seed int64) [][]monitorOp {
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
	batches := make([][]monitorOp, nBatches)
	for b := range batches {
		ops := make([]monitorOp, 0, batchSize+appendsPerBatch)
		for k := 0; k < batchSize; k++ {
			col := rhsCols[rng.Intn(len(rhsCols))]
			val := pools[col][rng.Intn(len(pools[col]))]
			if rng.Intn(50) == 0 { // novel, out-of-ontology value
				val = fmt.Sprintf("bench-novel-%d-%d", b, k)
			}
			ops = append(ops, monitorOp{update: core.CellUpdate{Row: rng.Intn(nRows), Col: col, Value: val}})
		}
		for k := 0; k < appendsPerBatch; k++ {
			// Appended tuples clone the *base* relation's rows (the stream is
			// generated before any op applies); update row ids may target the
			// whole growing instance, tracked by nRows.
			row := ds.Rel.Row(rng.Intn(baseRows))
			col := rhsCols[rng.Intn(len(rhsCols))]
			row[col] = pools[col][rng.Intn(len(pools[col]))]
			ops = append(ops, monitorOp{appendRow: row})
			nRows++
		}
		batches[b] = ops
	}
	return batches
}

// replayIncremental applies the stream through the monitor, flushing each
// batch's updates through one ApplyBatchContext call.
func replayIncremental(ctx context.Context, m *core.Monitor, batches [][]monitorOp) error {
	var updates []core.CellUpdate
	for _, ops := range batches {
		updates = updates[:0]
		for _, op := range ops {
			if op.appendRow != nil {
				if _, err := m.AppendRow(op.appendRow); err != nil {
					return err
				}
				continue
			}
			updates = append(updates, op.update)
		}
		if err := m.ApplyBatchContext(ctx, updates); err != nil {
			return err
		}
	}
	return nil
}

// replayRebuild applies the stream to a bare relation and pays a full
// DetectContext — fresh partitions, fresh verifier — after every batch,
// which is what maintaining a live violation report costs without the
// incremental engine. Returns the final report.
func replayRebuild(ctx context.Context, rel *relation.Relation, ds *gen.Dataset, sigma core.Set, batches [][]monitorOp, workers int, stats *exec.Stats) (*core.Report, error) {
	var rep *core.Report
	for _, ops := range batches {
		for _, op := range ops {
			if op.appendRow != nil {
				rel.AppendRow(op.appendRow)
				continue
			}
			rel.SetString(op.update.Row, op.update.Col, op.update.Value)
		}
		var err error
		rep, err = core.DetectContext(ctx, rel, ds.FullOnt, sigma, workers, stats)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// detectEvolved applies the stream to a bare relation and runs one final
// Detect — the byte-identity reference when the per-batch rebuild
// baseline is capped out at large sizes.
func detectEvolved(ctx context.Context, rel *relation.Relation, ds *gen.Dataset, sigma core.Set, batches [][]monitorOp, stats *exec.Stats) (*core.Report, error) {
	for _, ops := range batches {
		for _, op := range ops {
			if op.appendRow != nil {
				rel.AppendRow(op.appendRow)
				continue
			}
			rel.SetString(op.update.Row, op.update.Col, op.update.Value)
		}
	}
	return core.DetectContext(ctx, rel, ds.FullOnt, sigma, 0, stats)
}

// monitorSigma narrows the planted Σ to monitorable dependencies (disjoint
// antecedents and consequents — true for the Clinical generator, but keep
// the bench robust to preset changes).
func monitorSigma(ds *gen.Dataset) core.Set {
	var lhs, rhs relation.AttrSet
	out := make(core.Set, 0, len(ds.Sigma))
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

// runMonitorBench measures incremental batch maintenance — single-shard
// vs sharded, across worker counts — against full rebuilds, and writes
// BENCH_monitor.json. The shard sweep always includes 1 so the sharded
// series has its single-shard baseline. smoke shrinks the grid to one
// size with two batches for CI. A cancelled ctx stops between
// configurations; the rows measured so far are still written before the
// error returns.
func runMonitorBench(ctx context.Context, stats *exec.Stats, path string, rows int, shardList, cpuList []int, smoke bool) error {
	sizes := []int{rows / 4, rows / 2, rows}
	batchPcts := []float64{0.1, 1.0} // percent of rows updated per batch
	nBatches := 4
	if smoke {
		sizes = []int{rows}
		batchPcts = []float64{1.0}
		nBatches = 2
	}
	// The single-shard baseline anchors the sharded series.
	if !containsInt(shardList, 1) {
		shardList = append([]int{1}, shardList...)
	}
	if len(cpuList) == 0 {
		cpuList = []int{0}
	}

	report := monitorReport{
		benchEnv:         newBenchEnv(),
		Rows:             rows,
		Shards:           shardList,
		Cpus:             cpuList,
		ReportsIdentical: true,
		Stats:            stats,
	}
	partial := partialWriter(path, &report, &report.Results, 30)

	for _, n := range sizes {
		if n < 16 {
			continue
		}
		ds := gen.Clinical(n, 1)
		sigma := monitorSigma(ds)
		for _, pct := range batchPcts {
			batchSize := int(float64(n) * pct / 100)
			if batchSize < 1 {
				batchSize = 1
			}
			appends := batchSize / 20
			batches := monitorStream(ds, sigma, nBatches, batchSize, appends, 7)

			// Incremental maintenance for every (shards, workers) combo, on
			// its own copy of the instance; every run must converge to the
			// same report. Effective shard counts dedup the grid (e.g.
			// shards=0 resolving to an explicit entry).
			type combo struct{ s, w int }
			seen := map[combo]bool{}
			var singleNs, shardedNs float64 // best s=1 / best s>1 at this config
			var incReports []string
			for _, s := range shardList {
				for _, w := range cpuList {
					if err := exec.Interrupted(ctx, "monitorbench"); err != nil {
						return partial(err)
					}
					m, err := fastofd.NewMonitor(ctx, ds.Rel.Clone(), ds.FullOnt, sigma, s, w, stats)
					if err != nil {
						return partial(err)
					}
					eff := combo{m.NumShards(), exec.Workers(w)}
					if seen[eff] {
						continue
					}
					seen[eff] = true
					// The cache is fullest right after the build: appends
					// sweep its row-stale entries during the replay.
					report.Cache.peak(m.CacheStats())
					start := time.Now()
					if err := replayIncremental(ctx, m, batches); err != nil {
						return partial(err)
					}
					perBatch := float64(time.Since(start).Nanoseconds()) / float64(nBatches)
					report.Cache.add(m.CacheStats())
					rep, err := json.Marshal(m.Report())
					if err != nil {
						return partial(err)
					}
					incReports = append(incReports, string(rep))
					report.Results = append(report.Results, benchResult{
						Name:       fmt.Sprintf("incremental-n%d-b%d-s%d-w%d", n, batchSize, eff.s, eff.w),
						Iterations: nBatches,
						NsPerOp:    perBatch,
					})
					if eff.s == 1 {
						if singleNs == 0 || perBatch < singleNs {
							singleNs = perBatch
						}
					} else if shardedNs == 0 || perBatch < shardedNs {
						shardedNs = perBatch
					}
				}
			}

			// Full rebuild baseline (parallel partitions — its best case),
			// capped at rebuildCapRows; larger sizes get one final Detect as
			// the byte-identity reference only.
			if err := exec.Interrupted(ctx, "monitorbench"); err != nil {
				return partial(err)
			}
			var refReport *core.Report
			var rebuildNs float64
			if n <= rebuildCapRows {
				rebuildRel := ds.Rel.Clone()
				start := time.Now()
				rep, err := replayRebuild(ctx, rebuildRel, ds, sigma, batches, 0, stats)
				if err != nil {
					return partial(err)
				}
				rebuildNs = float64(time.Since(start).Nanoseconds()) / float64(nBatches)
				refReport = rep
				report.Results = append(report.Results, benchResult{
					Name:       fmt.Sprintf("rebuild-n%d-b%d-w0", n, batchSize),
					Iterations: nBatches,
					NsPerOp:    rebuildNs,
				})
			} else {
				rep, err := detectEvolved(ctx, ds.Rel.Clone(), ds, sigma, batches, stats)
				if err != nil {
					return partial(err)
				}
				refReport = rep
			}

			refJSON, err := json.Marshal(refReport)
			if err != nil {
				return partial(err)
			}
			for _, r := range incReports {
				if r != string(refJSON) {
					report.ReportsIdentical = false
					fmt.Fprintf(os.Stderr, "monitorbench: n=%d batch=%d: incremental report differs from fresh Detect\n", n, batchSize)
					break
				}
			}
			if pct == batchPcts[len(batchPcts)-1] {
				if rebuildNs > 0 && singleNs > 0 {
					best := singleNs
					if shardedNs > 0 && shardedNs < best {
						best = shardedNs
					}
					report.Speedup = rebuildNs / best
				}
				if n == sizes[len(sizes)-1] && singleNs > 0 && shardedNs > 0 {
					report.ShardSpeedup = singleNs / shardedNs
				}
			}
		}
	}

	if err := writeBenchReport(path, report, report.Results, 30); err != nil {
		return err
	}
	fmt.Printf("incremental vs rebuild, 1%% batches: %.1fx faster\n", report.Speedup)
	if report.ShardSpeedup > 0 {
		fmt.Printf("sharded vs single-shard at n=%d: %.2fx (num_cpu=%d)\n", sizes[len(sizes)-1], report.ShardSpeedup, report.NumCPU)
	}
	fmt.Printf("reports identical to fresh Detect: %v\n", report.ReportsIdentical)
	fmt.Printf("wrote %s\n", path)
	return nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
