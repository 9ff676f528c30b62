package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// small returns shrunken copies of the workloads: same code paths, a few
// hundred rows.
func small() []*workload {
	return []*workload{
		{
			name: "churn-small", rows: 800,
			stream: streamShape{batches: 12, updates: 9, appends: 2, appendDirtyEvery: 5},
		},
		{
			name: "ingest-small", rows: 1500,
			stream: streamShape{batches: 12, updates: 4, appends: 25, appendDirtyEvery: 10},
		},
	}
}

func runSmall(t *testing.T, w *workload, seed int64, workers int) *runner {
	t.Helper()
	r, err := execute(context.Background(), w, seed, config{workers: workers, seconds: 1, dir: t.TempDir(), tracer: newTracer()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if r.aborted || r.failed != 0 || len(r.problems) != 0 {
		t.Fatalf("%s: %d of %d operations failed; problems: %v", w.name, r.failed, r.attempted, r.problems)
	}
	return r
}

// TestChecksPass runs every shrunken workload traced and requires every
// correctness check to pass and every metric of both sets to be measured.
func TestChecksPass(t *testing.T) {
	for _, w := range small() {
		r := runSmall(t, w, 5, 2)
		for _, set := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range set {
				if _, ok := r.values[m.name]; !ok {
					t.Errorf("%s: metric %s not measured", w.name, m.name)
				}
			}
		}
	}
}

// deterministicPair runs each shrunken live workload twice on one seed
// with the benchmark's two workers.
func deterministicPair(t *testing.T) map[string][2]*runner {
	t.Helper()
	out := map[string][2]*runner{}
	for _, w := range small() {
		out[w.name] = [2]*runner{runSmall(t, w, 3, 2), runSmall(t, w, 3, 2)}
	}
	return out
}

// TestCountsDeterministic pins the work counters later changes may cite
// as counts: two runs of one seed do exactly the same maintainer, monitor
// and detect work.
func TestCountsDeterministic(t *testing.T) {
	keys := []string{
		"maintainer.scans", "maintainer.oracle_ratio", "maintainer.refines", "maintainer.kernel_traversals",
		"maintainer.kernel_fan_in", "maintainer.cover_churn", "monitor.reverified", "monitor.violations",
		"detect.violations", "discovery.cover_size",
	}
	for name, ab := range deterministicPair(t) {
		for _, k := range keys {
			if ab[0].values[k] != ab[1].values[k] {
				t.Errorf("%s: %s differs between identical runs: %v vs %v", name, k, ab[0].values[k], ab[1].values[k])
			}
		}
		if ab[0].values["maintainer.scans"] == 0 {
			t.Errorf("%s: the stream did no maintainer work", name)
		}
	}
}

// TestCacheCountsDeterministic asks the same of the partition cache's
// hits and misses (evictions are known to drift and are not checked). It
// fails at the commit that adds it: churn-small's misses differ by a few
// dozen in ~9,500 between identical runs, with one worker as with two,
// so cache counts cannot yet be cited as exact counts.
func TestCacheCountsDeterministic(t *testing.T) {
	for name, ab := range deterministicPair(t) {
		if ab[0].meta["cache_hits"] != ab[1].meta["cache_hits"] {
			t.Errorf("%s: cache hits differ between identical runs: %v vs %v", name, ab[0].meta["cache_hits"], ab[1].meta["cache_hits"])
		}
		if a, b := ab[0].values["relation.cache_misses"], ab[1].values["relation.cache_misses"]; a != b {
			t.Errorf("%s: cache misses differ between identical runs: %v vs %v", name, a, b)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, v, ok := tail(xs)
	if !ok || p != 66 || v != 20 {
		t.Fatalf("tail of 1..30 = p%d %v %v, want p66 20 true", p, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples must not exist")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
