package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/pipeline"
)

// pipelineReport is the machine-readable output of -pipelinebench: the
// merged discover→detect pipeline (one shared cache, verifier, and live
// overlay registry under both engines) against the separate engines (a
// maintainer and a monitor each on their own relation clone with their own
// cache) replaying identical seeded Clinical streams.
type pipelineReport struct {
	benchEnv
	Rows int `json:"rows"`
	// OneIndexSpeedup is the headline: separate-engines ns per batch over
	// merged-pipeline ns per batch at the largest size (both timings
	// include engine construction — the merged pipeline discovers and
	// warms once where the separate engines pay twice).
	OneIndexSpeedup float64 `json:"one_index_speedup"`
	// ReportsIdentical records that, for every configuration, the merged
	// pipeline's violation report was byte-identical (as JSON) to the
	// separate monitor's over the same evolved instance.
	ReportsIdentical bool `json:"reports_identical"`
	// CoverIdentical records the same for the maintained minimal cover.
	CoverIdentical bool          `json:"cover_identical"`
	Results        []benchResult `json:"results"`
	Stats          *exec.Stats   `json:"stats"`
}

// splitBatch separates one stream batch into its cell updates and its
// appended tuples, preserving order within each kind.
func splitBatch(ops []monitorOp) ([]core.CellUpdate, [][]string) {
	var updates []core.CellUpdate
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

// replayMerged builds a merged pipeline over a clone of the dataset and
// replays the stream through it, returning the final report and cover as
// canonical JSON. Construction is inside the timed region on purpose: the
// one-index claim includes paying discovery and cache warmup once.
func replayMerged(ctx context.Context, ds *gen.Dataset, batches [][]monitorOp, shards, workers int, stats *exec.Stats) (reportJSON, coverJSON string, err error) {
	p, err := pipeline.New(ctx, ds.Rel.Clone(), ds.FullOnt, pipeline.Options{
		Shards: shards, Workers: workers, Stats: stats,
	})
	if err != nil {
		return "", "", err
	}
	if err := replayPipeline(ctx, p, batches); err != nil {
		return "", "", err
	}
	return pipelineJSON(p)
}

// replayPipeline replays the stream through p: each batch's updates in
// one ApplyBatch, then its appended tuples in one AppendRows.
func replayPipeline(ctx context.Context, p *pipeline.Pipeline, batches [][]monitorOp) error {
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

// pipelineJSON returns p's report and cover as canonical JSON.
func pipelineJSON(p *pipeline.Pipeline) (reportJSON, coverJSON string, err error) {
	return engineJSON(p.Report(), p.Cover())
}

// engineJSON marshals a report and a cover as canonical JSON.
func engineJSON(rep *core.Report, cover core.Set) (reportJSON, coverJSON string, err error) {
	r, err := json.Marshal(rep)
	if err != nil {
		return "", "", err
	}
	c, err := json.Marshal(cover)
	if err != nil {
		return "", "", err
	}
	return string(r), string(c), nil
}

// replaySeparate builds the pre-merge engine pair — a maintainer and a
// monitor, each on its own clone with its own substrate — and replays the
// same stream through both. The monitor watches the initial cover (the
// same set the merged pipeline monitors when Sigma is nil), so the two
// sides do identical semantic work: maintain the cover AND detect against
// the initial cover.
func replaySeparate(ctx context.Context, ds *gen.Dataset, batches [][]monitorOp, shards, workers int, stats *exec.Stats) (reportJSON, coverJSON string, err error) {
	dopts := discovery.DefaultOptions()
	dopts.Workers = workers
	dopts.Stats = stats
	mt, err := fastofd.NewMaintainer(ctx, ds.Rel.Clone(), ds.FullOnt, dopts)
	if err != nil {
		return "", "", err
	}
	m, err := fastofd.NewMonitor(ctx, ds.Rel.Clone(), ds.FullOnt, mt.Cover(), shards, workers, stats)
	if err != nil {
		return "", "", err
	}
	for _, ops := range batches {
		updates, appends := splitBatch(ops)
		if _, err := mt.ApplyBatchContext(ctx, updates); err != nil {
			return "", "", err
		}
		if err := m.ApplyBatchContext(ctx, updates); err != nil {
			return "", "", err
		}
		if len(appends) > 0 {
			if _, err := mt.AppendRows(appends); err != nil {
				return "", "", err
			}
			if err := m.AppendRows(appends); err != nil {
				return "", "", err
			}
		}
	}
	return engineJSON(m.Report(), mt.Cover())
}

// runPipelineBench measures the merged pipeline against the separate
// engine pair on identical Clinical streams and writes BENCH_pipeline.json.
// Every configuration must produce a byte-identical report and cover on
// both sides (reports_identical / cover_identical). smoke shrinks the grid
// to one size with two batches for CI. A cancelled ctx stops between
// configurations; the rows measured so far are still written.
func runPipelineBench(ctx context.Context, stats *exec.Stats, path string, rows int, cpuList []int, smoke bool) error {
	sizes := []int{rows / 2, rows}
	nBatches := 4
	if smoke {
		sizes = []int{rows}
		nBatches = 2
	}
	if len(cpuList) == 0 {
		cpuList = []int{1, 0}
	}

	report := pipelineReport{
		benchEnv:         newBenchEnv(),
		Rows:             rows,
		ReportsIdentical: true,
		CoverIdentical:   true,
		Stats:            stats,
	}
	partial := partialWriter(path, &report, &report.Results, 34)

	for _, n := range sizes {
		if n < 16 {
			continue
		}
		ds := gen.Clinical(n, 1)
		batchSize := n / 100
		if batchSize < 1 {
			batchSize = 1
		}
		appends := batchSize / 20
		batches := discoveryStream(ds, nBatches, batchSize, appends, 13)

		seen := map[int]bool{}
		for _, w := range cpuList {
			if err := exec.Interrupted(ctx, "pipelinebench"); err != nil {
				return partial(err)
			}
			eff := exec.Workers(w)
			if seen[eff] {
				continue
			}
			seen[eff] = true
			shards := 4

			// Each replay is one full construct-and-stream pass, so a single
			// timing is exposed to whatever else the host is doing for
			// seconds at a time; take the best of two passes per side (the
			// standard benchmark floor — noise only ever adds time). Smoke
			// runs keep it too: the CI gate compares the two sides, and one
			// noisy pass on a shared runner would flake it.
			reps := 2
			measure := func(replay func() (string, string, error)) (float64, string, string, error) {
				best := 0.0
				var rep, cov string
				for i := 0; i < reps; i++ {
					start := time.Now()
					r, c, err := replay()
					if err != nil {
						return 0, "", "", err
					}
					ns := float64(time.Since(start).Nanoseconds()) / float64(nBatches)
					if i == 0 || ns < best {
						best = ns
					}
					rep, cov = r, c
				}
				return best, rep, cov, nil
			}

			mergedNs, mergedRep, mergedCov, err := measure(func() (string, string, error) {
				return replayMerged(ctx, ds, batches, shards, w, stats)
			})
			if err != nil {
				return partial(err)
			}

			sepNs, sepRep, sepCov, err := measure(func() (string, string, error) {
				return replaySeparate(ctx, ds, batches, shards, w, stats)
			})
			if err != nil {
				return partial(err)
			}

			if mergedRep != sepRep {
				report.ReportsIdentical = false
				fmt.Printf("pipelinebench: n=%d w=%d: merged report differs from separate engines\n", n, eff)
			}
			if mergedCov != sepCov {
				report.CoverIdentical = false
				fmt.Printf("pipelinebench: n=%d w=%d: merged cover differs from separate engines\n", n, eff)
			}
			report.Results = append(report.Results,
				benchResult{Name: fmt.Sprintf("merged-n%d-w%d", n, eff), Iterations: nBatches, NsPerOp: mergedNs},
				benchResult{Name: fmt.Sprintf("separate-n%d-w%d", n, eff), Iterations: nBatches, NsPerOp: sepNs},
			)
			if n == sizes[len(sizes)-1] && mergedNs > 0 {
				report.OneIndexSpeedup = sepNs / mergedNs
			}
		}
	}

	if err := writeBenchReport(path, report, report.Results, 34); err != nil {
		return err
	}
	fmt.Printf("merged pipeline vs separate engines: %.2fx faster (one shared index)\n", report.OneIndexSpeedup)
	fmt.Printf("reports identical: %v, covers identical: %v\n", report.ReportsIdentical, report.CoverIdentical)
	fmt.Printf("wrote %s\n", path)
	return nil
}
