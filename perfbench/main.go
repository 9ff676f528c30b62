// Command perfbench is the repository benchmark: it generates one
// workload's inputs from a seed, drives the live discover→detect pipeline,
// its snapshot tier, Detect and OFDClean through the public API from one
// calling goroutine, checks every output against a fresh recomputation,
// and prints the workload's metrics as one JSON object on the last line
// of standard output.
//
//	go run . --workload churn-12k --seed 1 --seconds 2 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans around every call and prints the per-layer
// metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// rows is the size of the generated Clinical instance.
	rows   int
	stream streamShape
	// reps are the repetitions of the short phases at --seconds 2,
	// sized to about a second or two each.
	reps phaseReps
}

type phaseReps struct{ detect, clean, resume int }

var workloads = []*workload{
	{
		name: "churn-12k", rows: 12_500,
		stream: streamShape{batches: 20, updates: 125, appends: 6, appendDirtyEvery: 5},
		reps:   phaseReps{25, 25, 15},
	},
	{
		name: "ingest-50k", rows: 50_000,
		stream: streamShape{batches: 30, updates: 20, appends: 250, appendDirtyEvery: 100},
		reps:   phaseReps{15, 15, 20},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 2, "scales the repetitions of the short phases (their counts are set for 2)")
	trace := fs.Int("trace", 0, "1: record spans and print per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(root, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{workers: runtime.NumCPU(), seconds: float64(*seconds), dir: dir}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	r, err := execute(context.Background(), w, *seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.tracer != nil {
		path := filepath.Join(root, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := cfg.tracer.write(path); err != nil {
			r.problem("write trace: %v", err)
		}
		r.meta["trace_file"] = path
	}

	want, other := endToEnd, perLayer
	if cfg.tracer != nil {
		want, other = perLayer, endToEnd
	}
	res := result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			r.problem("metric %s was not measured", m.name)
			res.Correct = false
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	// The other set goes to the metadata line, so a traced run can be
	// compared with an untraced one.
	otherVals := map[string]float64{}
	for _, m := range other {
		if v, ok := r.values[m.name]; ok {
			otherVals[m.name] = v
		}
	}
	r.meta["other_metrics"] = otherVals
	r.meta["problems"] = r.problems
	if err := printJSON(map[string]any{"meta": r.meta}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.aborted {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; detect and clean figures come from checking and
// repairing the instance the workload's stream left.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"setup_cpu_s", "s"},
	{"detect_ms", "ms"}, {"detect_cpu_ms", "ms"},
	{"clean_s", "s"}, {"clean_cpu_s", "s"},
	{"batch_p50_ms", "ms"}, {"batch_tail_ms", "ms"},
	{"ops_per_s", "1/s"}, {"stream_cpu_s", "s"},
	{"resume_s", "s"}, {"resident_mb", "MB"},
}

// phases are the spans the runtime.* metrics are split by.
var phases = []string{"setup", "stream", "detect", "clean", "resume"}

// perLayer are the traced run's metrics, grouped by the module they
// observe.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"relation.load_s", "s"}, {"relation.cache_hit_ratio", "ratio"}, {"relation.cache_misses", "count"},
		{"relation.cache_evictions", "count"}, {"relation.cache_peak_mb", "MB"}, {"relation.overlay_mb", "MB"},
		{"discovery.discover_s", "s"}, {"discovery.discover_cpu_s", "s"}, {"discovery.cover_size", "count"},
		{"discovery.alloc_mb", "MB"},
		{"maintainer.ms_per_batch", "ms"}, {"maintainer.scans", "count"}, {"maintainer.oracle_ratio", "ratio"},
		{"maintainer.refines", "count"}, {"maintainer.kernel_traversals", "count"},
		{"maintainer.kernel_fan_in", "ratio"}, {"maintainer.cover_churn", "count"},
		{"monitor.ms_per_batch", "ms"}, {"monitor.reverified", "count"}, {"monitor.violations", "count"},
		{"detect.violations", "count"}, {"detect.calls", "count"},
		{"pipeline.glue_ms_per_batch", "ms"},
		{"snapshot.save_s", "s"}, {"snapshot.open_s", "s"}, {"snapshot.mb", "MB"},
		{"repair.assign_s", "s"}, {"repair.beam_s", "s"}, {"repair.materialize_s", "s"},
		{"repair.candidates", "count"}, {"repair.pareto_size", "count"},
	}
	for _, p := range phases {
		defs = append(defs,
			metricDef{"runtime." + p + ".alloc_mb", "MB"}, metricDef{"runtime." + p + ".mallocs", "count"},
			metricDef{"runtime." + p + ".gc_cycles", "count"}, metricDef{"runtime." + p + ".gc_cpu_frac", "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"})
}()
