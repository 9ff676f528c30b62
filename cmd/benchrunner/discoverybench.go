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
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

// rediscoverCapRows caps the per-batch fresh-rediscovery baseline: beyond
// this size one full lattice run after every batch dominates the bench
// wall clock without adding information. Larger sizes still get one final
// DiscoverContext as the cover-identity reference.
const rediscoverCapRows = 100_000

// discoveryReport is the machine-readable output of -discoverybench:
// incremental cover maintenance (discovery.Maintainer) against fresh
// FastOFD re-runs on identical update streams over the Clinical
// workload, swept across tuple counts, batch sizes, and worker counts.
type discoveryReport struct {
	benchEnv
	Rows int   `json:"rows"`
	Cpus []int `json:"cpus"`
	// IncrementalSpeedup is the headline: fresh-rediscovery ns per batch
	// over best maintained ns per batch at the largest size with a
	// measured baseline, 1%-of-rows batches.
	IncrementalSpeedup float64 `json:"incremental_speedup"`
	// CoverIdentical records that, for every configuration and worker
	// count, the maintained cover was byte-identical (as JSON) to a fresh
	// discovery over the evolved instance.
	CoverIdentical bool `json:"cover_identical"`
	// CoverSize and CoverChurn describe the largest configuration: final
	// cover cardinality and total diff traffic (|added| + |removed|
	// across all batches).
	CoverSize  int `json:"cover_size"`
	CoverChurn int `json:"cover_churn"`
	// Configs pins every (size, batch) combination's own speedup, cover
	// identity, and repair-verifier counters — including the update-heavy
	// configurations (small batches over sub-headline sizes) CI gates on.
	Configs []discoveryConfig `json:"configs"`
	Results []benchResult     `json:"results"`
	// Stats carries the maintain.build / maintain.dirty / maintain.verify
	// / maintain.commit spans (and the baselines' discover.* spans)
	// accumulated across the runs; maintain.verify's skipped counter is
	// the oracle's pruning rate.
	Stats *exec.Stats `json:"stats"`
}

// discoveryVerifierStats is one maintained run's repair-verifier
// telemetry: the oracle's pruning rate over re-opened lattice nodes, the
// split of verified nodes between root refinement and partition walks, and
// the persistent repair cache's cross-batch behaviour (counters are deltas over the replay, so
// construction-time warmup is excluded).
type discoveryVerifierStats struct {
	// Scans and Skips split the repaired lattice nodes into verified vs
	// oracle-answered; OracleHitRate = skips / (scans + skips).
	Scans         int64   `json:"scans"`
	Skips         int64   `json:"skips"`
	OracleHitRate float64 `json:"oracle_hit_rate"`
	// RefinedProbes is the subset of Scans answered by root refinement —
	// BFS climb nodes decided from the demoted seed's tracked unsatisfied
	// classes without a partition walk.
	RefinedProbes int64 `json:"refined_probes"`
	// KernelTraversals is the number of Π*_X partition walks repair
	// verification performed — the Scans root refinement did not answer.
	KernelTraversals int64 `json:"kernel_traversals"`
	// Cross-batch partition-cache effectiveness of the persistent repair
	// substrate: hits answered from cache, misses recomputed, resident
	// payload bytes at the end of the replay.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheEvictions uint64 `json:"cache_evictions"`
}

// discoveryConfig summarizes one (size, batch) combination: its own
// incremental speedup and cover identity, plus the best maintained run's
// verifier telemetry. UpdateHeavy marks the pinned update-dominated
// configurations (sub-headline sizes with 0.1%/1% batches) that CI's
// smoke gate checks beyond the headline numbers.
type discoveryConfig struct {
	N               int                    `json:"n"`
	BatchSize       int                    `json:"batch_size"`
	AppendsPerBatch int                    `json:"appends_per_batch"`
	UpdateHeavy     bool                   `json:"update_heavy"`
	MaintainedNs    float64                `json:"maintained_ns_per_batch"`
	RediscoverNs    float64                `json:"rediscover_ns_per_batch"`
	Speedup         float64                `json:"incremental_speedup"`
	CoverIdentical  bool                   `json:"cover_identical"`
	Verifier        discoveryVerifierStats `json:"verifier"`
}

// discoveryStream builds a seeded stream of nBatches batches over the
// dataset, shaped like a live ingestion pipeline rather than uniform
// noise: each batch's fresh errors concentrate on a few focus attributes
// (one import job dirties specific fields), half the batch repairs the
// oldest outstanding corruptions back to their original values, and most
// appended tuples are clean re-entries of existing rows. Corruptions
// demote OFDs over the focus consequents; repairs drain columns back to
// clean and promote them again, so the stream drives both flip
// directions while keeping each batch's dirty lattice region a slice of
// the whole — the regime incremental maintenance exists for. Occasional
// novel strings fall outside the ontology entirely. Row ids stay within
// the base relation, so the same stream replays identically on any copy.
func discoveryStream(ds *gen.Dataset, nBatches, batchSize, appendsPerBatch int, seed int64) [][]monitorOp {
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
	batches := make([][]monitorOp, nBatches)
	for b := range batches {
		focus := rng.Perm(cols)[:2+rng.Intn(2)]
		ops := make([]monitorOp, 0, batchSize+appendsPerBatch)
		for k := 0; k < batchSize; k++ {
			if k%2 == 1 && len(outstanding) > 0 {
				fix := outstanding[0]
				outstanding = outstanding[1:]
				ops = append(ops, monitorOp{update: core.CellUpdate{Row: fix.row, Col: fix.col, Value: fix.orig}})
				continue
			}
			col := focus[rng.Intn(len(focus))]
			row := rng.Intn(baseRows)
			val := pools[col][rng.Intn(len(pools[col]))]
			if rng.Intn(50) == 0 { // novel, out-of-ontology value
				val = fmt.Sprintf("bench-novel-%d-%d", b, k)
			}
			outstanding = append(outstanding, corruption{row, col, ds.Rel.String(row, col)})
			ops = append(ops, monitorOp{update: core.CellUpdate{Row: row, Col: col, Value: val}})
		}
		for k := 0; k < appendsPerBatch; k++ {
			row := ds.Rel.Row(rng.Intn(baseRows))
			if rng.Intn(5) == 0 { // the rest are clean re-entries
				col := focus[rng.Intn(len(focus))]
				row[col] = pools[col][rng.Intn(len(pools[col]))]
			}
			ops = append(ops, monitorOp{appendRow: row})
		}
		batches[b] = ops
	}
	return batches
}

// replayMaintained applies the stream through the maintainer, flushing
// each batch's updates through one ApplyBatchContext call and its
// appended tuples through one AppendRows call, and returns the total
// diff traffic.
func replayMaintained(ctx context.Context, mt *discovery.Maintainer, batches [][]monitorOp) (int, error) {
	churn := 0
	var updates []core.CellUpdate
	var appends [][]string
	for _, ops := range batches {
		updates = updates[:0]
		appends = appends[:0]
		for _, op := range ops {
			if op.appendRow != nil {
				appends = append(appends, op.appendRow)
				continue
			}
			updates = append(updates, op.update)
		}
		d, err := mt.ApplyBatchContext(ctx, updates)
		if err != nil {
			return churn, err
		}
		churn += len(d.Added) + len(d.Removed)
		if len(appends) > 0 {
			d, err := mt.AppendRows(appends)
			if err != nil {
				return churn, err
			}
			churn += len(d.Added) + len(d.Removed)
		}
	}
	return churn, nil
}

// replayRediscover applies the stream to a bare relation and pays a
// fresh DiscoverContext — partitions, lattice, verification — after
// every batch, which is what keeping the cover current costs without the
// maintainer. Returns the final cover.
func replayRediscover(ctx context.Context, rel *relation.Relation, ds *gen.Dataset, batches [][]monitorOp, workers int, stats *exec.Stats) (core.Set, error) {
	var cover core.Set
	opts := discovery.DefaultOptions()
	opts.Workers = workers
	opts.Stats = stats
	for _, ops := range batches {
		for _, op := range ops {
			if op.appendRow != nil {
				rel.AppendRow(op.appendRow)
				continue
			}
			rel.SetString(op.update.Row, op.update.Col, op.update.Value)
		}
		res, err := discovery.DiscoverContext(ctx, rel, ds.FullOnt, opts)
		if err != nil {
			return nil, err
		}
		cover = res.OFDs
	}
	return cover, nil
}

// discoverEvolved applies the whole stream and runs one final discovery
// — the cover-identity reference when the per-batch rediscovery baseline
// is capped out at large sizes.
func discoverEvolved(ctx context.Context, rel *relation.Relation, ds *gen.Dataset, batches [][]monitorOp, stats *exec.Stats) (core.Set, error) {
	for _, ops := range batches {
		for _, op := range ops {
			if op.appendRow != nil {
				rel.AppendRow(op.appendRow)
				continue
			}
			rel.SetString(op.update.Row, op.update.Col, op.update.Value)
		}
	}
	opts := discovery.DefaultOptions()
	opts.Stats = stats
	res, err := discovery.DiscoverContext(ctx, rel, ds.FullOnt, opts)
	if err != nil {
		return nil, err
	}
	return res.OFDs, nil
}

// runDiscoveryBench measures incremental cover maintenance against fresh
// per-batch rediscovery on identical Clinical update streams and writes
// BENCH_discovery.json. Every maintained run must end with a cover
// byte-identical to a fresh discovery over the evolved instance
// (cover_identical). smoke shrinks the grid to one size with two batches
// for CI. A cancelled ctx stops between configurations; the rows
// measured so far are still written before the error returns.
func runDiscoveryBench(ctx context.Context, stats *exec.Stats, path string, rows int, cpuList []int, smoke bool) error {
	sizes := []int{rows / 4, rows / 2, rows}
	batchPcts := []float64{0.1, 1.0} // percent of rows updated per batch
	nBatches := 4
	if smoke {
		// Two batch sizes even in smoke: the 0.1% config is the update-heavy
		// gate (appends = batch/20 rounds to ~0, so batches are pure-update),
		// the 1% config the headline speedup.
		sizes = []int{rows}
		batchPcts = []float64{0.1, 1.0}
		nBatches = 2
	}
	if len(cpuList) == 0 {
		cpuList = []int{1, 0}
	}

	report := discoveryReport{
		benchEnv:       newBenchEnv(),
		Rows:           rows,
		Cpus:           cpuList,
		CoverIdentical: true,
		Stats:          stats,
	}
	partial := partialWriter(path, &report, &report.Results, 34)

	for _, n := range sizes {
		if n < 16 {
			continue
		}
		ds := gen.Clinical(n, 1)
		for _, pct := range batchPcts {
			batchSize := int(float64(n) * pct / 100)
			if batchSize < 1 {
				batchSize = 1
			}
			appends := batchSize / 20
			batches := discoveryStream(ds, nBatches, batchSize, appends, 7)

			// Maintained runs for every worker count, each on its own copy
			// of the instance; effective worker counts dedup the grid.
			seen := map[int]bool{}
			var bestNs float64
			var bestVerifier discoveryVerifierStats
			var covers []string
			churn := 0
			for _, w := range cpuList {
				if err := exec.Interrupted(ctx, "discoverybench"); err != nil {
					return partial(err)
				}
				eff := exec.Workers(w)
				if seen[eff] {
					continue
				}
				seen[eff] = true
				opts := discovery.DefaultOptions()
				opts.Workers = w
				opts.Stats = stats
				mt, err := fastofd.NewMaintainer(ctx, ds.Rel.Clone(), ds.FullOnt, opts)
				if err != nil {
					return partial(err)
				}
				scans0, skips0 := mt.Scans(), mt.Skips()
				refines0 := mt.Refines()
				trav0, _ := mt.KernelStats()
				cache0 := mt.Substrate().Cache().Stats()
				start := time.Now()
				c, err := replayMaintained(ctx, mt, batches)
				if err != nil {
					return partial(err)
				}
				perBatch := float64(time.Since(start).Nanoseconds()) / float64(nBatches)
				vs := discoveryVerifierStats{
					Scans:         mt.Scans() - scans0,
					Skips:         mt.Skips() - skips0,
					RefinedProbes: mt.Refines() - refines0,
				}
				if total := vs.Scans + vs.Skips; total > 0 {
					vs.OracleHitRate = float64(vs.Skips) / float64(total)
				}
				trav, _ := mt.KernelStats()
				vs.KernelTraversals = trav - trav0
				cs := mt.Substrate().Cache().Stats().Since(cache0)
				vs.CacheHits, vs.CacheMisses = cs.Hits, cs.Misses
				vs.CacheBytes = mt.Substrate().Cache().Stats().Bytes
				vs.CacheEvictions = cs.Evictions
				churn = c
				cov, err := json.Marshal(mt.Cover())
				if err != nil {
					return partial(err)
				}
				covers = append(covers, string(cov))
				report.Results = append(report.Results, benchResult{
					Name:       fmt.Sprintf("maintained-n%d-b%d-w%d", n, batchSize, eff),
					Iterations: nBatches,
					NsPerOp:    perBatch,
				})
				if bestNs == 0 || perBatch < bestNs {
					bestNs = perBatch
					bestVerifier = vs
				}
			}

			// Fresh rediscovery baseline (parallel — its best case), capped
			// at rediscoverCapRows; larger sizes get one final discovery as
			// the cover-identity reference only.
			if err := exec.Interrupted(ctx, "discoverybench"); err != nil {
				return partial(err)
			}
			var refCover core.Set
			var rediscoverNs float64
			if n <= rediscoverCapRows {
				start := time.Now()
				cov, err := replayRediscover(ctx, ds.Rel.Clone(), ds, batches, 0, stats)
				if err != nil {
					return partial(err)
				}
				rediscoverNs = float64(time.Since(start).Nanoseconds()) / float64(nBatches)
				refCover = cov
				report.Results = append(report.Results, benchResult{
					Name:       fmt.Sprintf("rediscover-n%d-b%d-w0", n, batchSize),
					Iterations: nBatches,
					NsPerOp:    rediscoverNs,
				})
			} else {
				cov, err := discoverEvolved(ctx, ds.Rel.Clone(), ds, batches, stats)
				if err != nil {
					return partial(err)
				}
				refCover = cov
			}

			refJSON, err := json.Marshal(refCover)
			if err != nil {
				return partial(err)
			}
			cfgIdentical := true
			for _, c := range covers {
				if c != string(refJSON) {
					report.CoverIdentical = false
					cfgIdentical = false
					fmt.Fprintf(os.Stderr, "discoverybench: n=%d batch=%d: maintained cover differs from fresh discovery\n", n, batchSize)
					break
				}
			}
			cfg := discoveryConfig{
				N:               n,
				BatchSize:       batchSize,
				AppendsPerBatch: appends,
				UpdateHeavy:     (n == rows/4 && pct == 1.0) || (n == rows/2 && pct == batchPcts[0]) || (smoke && pct == batchPcts[0]),
				MaintainedNs:    bestNs,
				RediscoverNs:    rediscoverNs,
				CoverIdentical:  cfgIdentical,
				Verifier:        bestVerifier,
			}
			if rediscoverNs > 0 && bestNs > 0 {
				cfg.Speedup = rediscoverNs / bestNs
			}
			report.Configs = append(report.Configs, cfg)
			if n == sizes[len(sizes)-1] && pct == batchPcts[len(batchPcts)-1] {
				if rediscoverNs > 0 && bestNs > 0 {
					report.IncrementalSpeedup = rediscoverNs / bestNs
				}
				report.CoverSize = len(refCover)
				report.CoverChurn = churn
			}
		}
	}

	if err := writeBenchReport(path, report, report.Results, 34); err != nil {
		return err
	}
	fmt.Printf("incremental vs fresh rediscovery, 1%% batches: %.1fx faster\n", report.IncrementalSpeedup)
	fmt.Printf("covers identical to fresh discovery: %v (final cover: %d OFDs, churn: %d)\n",
		report.CoverIdentical, report.CoverSize, report.CoverChurn)
	fmt.Printf("wrote %s\n", path)
	return nil
}
