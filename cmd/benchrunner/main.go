// Command benchrunner regenerates every table and figure of the paper's
// evaluation section on the synthetic substitute workloads, printing the
// same rows/series the paper reports. Absolute numbers differ (different
// hardware, synthetic data, laptop-scale N); the shapes — who wins, by
// what rough factor, where curves bend — are the reproduction target.
//
// Usage:
//
//	benchrunner [-exp all|1,2,5-7] [-rows N] [-seeds K] [-timeout 10m]
//
// Experiment ids follow the paper: 1..5 are FastOFD (scalability in N and
// n, optimizations, lattice levels, false positives), 6..8 sense selection,
// 9..14 OFDClean (beam, err%, inc%, |Σ|, N, HoloClean comparison).
//
// SIGINT/SIGTERM or an elapsed -timeout stop the run cooperatively: the
// experiment loop stops between experiments, the bench modes write their
// report with the rows measured so far, a per-stage execution table goes to
// stderr, and the process exits with status 3. The -partitionbench,
// -repairbench and -fdbench reports embed the per-stage span registry as a
// "stats" block, so CI artifacts carry stage-level timings alongside the
// benchmark rows.
//
// The live engines (monitor, cover maintainer, merged pipeline, snapshots)
// are measured by the perfbench module, not here; their identity gates are
// tests of the root package.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/fastofd/fastofd/internal/cli"
	"github.com/fastofd/fastofd/internal/exec"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiments to run: 'all' or comma list with ranges, e.g. 1,3,6-8")
		rows      = flag.Int("rows", 4000, "base tuple count for repair experiments and -repairbench")
		discRows  = flag.Int("discrows", 4000, "base tuple count for discovery experiments")
		seeds     = flag.Int("seeds", 3, "seeds to average accuracy metrics over")
		partBench = flag.String("partitionbench", "", "run the partition-engine micro-benchmarks and write JSON results to this path (e.g. BENCH_partition.json), then exit")
		repBench  = flag.String("repairbench", "", "run the repair-engine benchmarks and write JSON results to this path (e.g. BENCH_repair.json), then exit")
		fdBench   = flag.String("fdbench", "", "run the FD-discovery benchmarks (Exp-1 curve + agree-set micro-benches) and write JSON results to this path (e.g. BENCH_fd.json), then exit")
		smoke     = flag.Bool("benchsmoke", false, "single-iteration benchmark mode for CI smoke runs")
		timeout   = flag.Duration("timeout", 0, "abort after this duration, keeping partial results (0 = no timeout)")
	)
	flag.Parse()
	ctx, stop := cli.Context(*timeout)
	defer stop()
	stageStats := exec.NewStats()
	finish := func(err error) {
		if err == nil {
			return
		}
		if cli.Interrupted(err) {
			cli.ExitInterruptedWith("benchrunner", err, stageStats)
		}
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}

	if *partBench != "" {
		finish(runPartitionBench(ctx, stageStats, *partBench, *discRows))
		return
	}
	if *repBench != "" {
		finish(runRepairBench(ctx, stageStats, *repBench, *rows, *smoke))
		return
	}
	if *fdBench != "" {
		finish(runFDBench(ctx, stageStats, *fdBench, *discRows, *smoke))
		return
	}

	want, err := parseExpList(*expFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}
	cfg := runConfig{rows: *rows, discRows: *discRows, seeds: *seeds}

	type experiment struct {
		id    int
		title string
		run   func(runConfig)
	}
	experiments := []experiment{
		{1, "Exp-1 (Fig 7a, Table 6): discovery scalability in N — FastOFD vs 7 FD algorithms", exp1VaryN},
		{2, "Exp-2 (Fig 7b): discovery scalability in n (attributes)", exp2VaryAttrs},
		{3, "Exp-3 (Fig 7c): pruning-optimization benefits", exp3Optimizations},
		{4, "Exp-4: efficiency over lattice levels", exp4LatticeLevels},
		{5, "Exp-5: false-positive FD errors eliminated by OFDs", exp5FalsePositives},
		{6, "Exp-6 (Fig 8a,b): sense selection vs |λ|", exp6VarySenses},
		{7, "Exp-7 (Fig 8c,d): sense selection vs err%", exp7VaryErr},
		{8, "Exp-8 (Table 6 right): sense assignment vs N", exp8SenseVaryN},
		{9, "Exp-9 (Fig 10a,b): repair accuracy/time vs beam size b", exp9VaryBeam},
		{10, "Exp-10/14 (Fig 10c,d): OFDClean vs HoloClean across err%", exp10VsHoloClean},
		{11, "Exp-11 (Fig 9a): repair accuracy vs inc%", exp11VaryInc},
		{12, "Exp-12 (Fig 9b): repair accuracy vs |Σ|", exp12VarySigma},
		{13, "Exp-13 (Table 7): OFDClean scalability in N", exp13CleanVaryN},
		{15, "Exp-Q (qualitative): interesting synonym and inheritance OFDs", expQualitative},
	}
	for _, e := range experiments {
		if !want[e.id] {
			continue
		}
		if err := exec.Interrupted(ctx, "experiments"); err != nil {
			finish(err)
		}
		fmt.Printf("\n=== %s ===\n", e.title)
		e.run(cfg)
	}
}

type runConfig struct {
	rows     int
	discRows int
	seeds    int
}

// parseExpList parses "all" or "1,3,6-8" into a set of experiment ids.
// Experiment 14 is folded into 10 (the paper's comparative discussion).
func parseExpList(s string) (map[int]bool, error) {
	out := make(map[int]bool)
	if s == "all" || s == "" {
		for i := 1; i <= 13; i++ {
			out[i] = true
		}
		out[15] = true // qualitative
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad range %q", part)
			}
			for i := a; i <= b; i++ {
				out[normalizeExp(i)] = true
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad experiment id %q", part)
		}
		out[normalizeExp(n)] = true
	}
	return out, nil
}

func normalizeExp(n int) int {
	if n == 14 {
		return 10
	}
	return n
}
