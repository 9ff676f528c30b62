// Command ofddetect reports OFD violations on a CSV relation with
// per-class explanations, and quantifies the false positives a plain-FD
// error detector would report.
//
// Usage:
//
//	ofddetect -data trials.csv -ontology drugs.json \
//	          -ofd "CC -> CTRY" -ofd "SYMP,DIAG -> MED" [-sigma sigma.txt]
//	          [-updates stream.csv] [-batch 64] [-workers 4] [-timeout 30s]
//
// With -updates, ofddetect replays a maintenance stream on top of the
// loaded instance through the incremental monitor instead of running a
// one-shot detection. The stream is read incrementally — memory stays
// O(batch) however long it is — and per-batch flush latency percentiles
// are reported at the end; -workers bounds how many dependencies a batch
// updates at once (0 = all CPUs). Each CSV record of the stream is either
// a cell write
//
//	row,attr,value       set cell (row, attr) to value (0-based row ids,
//	                     attr by name)
//
// or an appended tuple
//
//	+,v1,v2,...,vk       append a full row (k = number of attributes)
//
// Lines starting with '#' are comments. Updates are flushed through the
// monitor in batches of -batch cell writes (appends apply immediately);
// the final violation report — identical to re-running detection from
// scratch on the evolved instance — is printed as usual.
//
// With -discover alongside -updates, ofddetect runs the merged pipeline
// instead: the discovery maintainer and the monitor share one relation,
// one partition cache, and one live-index substrate, and -workers fans
// both engines out inside the pipeline. -ofd/-sigma are optional here: when given, the monitor
// watches that pinned set; when omitted, it follows the maintained cover
// itself. Every batch that changes the minimal OFD cover prints a
// "cover @N: +... -..." diff line to stdout; per-batch maintain and
// detect latency percentiles are reported separately at the end, and the
// final maintained cover — identical to a fresh discovery over the
// evolved instance — is summarized to stderr.
//
// SIGINT/SIGTERM or an elapsed -timeout stop detection (or the replay,
// between batches) cooperatively: the violations found so far are printed
// along with a per-stage execution table, and the process exits with
// status 3. A batch interrupted mid-flight is rolled back, never
// half-applied.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/cli"
	"github.com/fastofd/fastofd/internal/core"
)

type ofdList []string

func (l *ofdList) String() string     { return fmt.Sprint(*l) }
func (l *ofdList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var ofds ofdList
	var (
		dataPath  = flag.String("data", "", "CSV file with a header row (required)")
		ontPath   = flag.String("ontology", "", "ontology JSON file (required)")
		sigmaFile = flag.String("sigma", "", "file with one OFD per line (alternative to -ofd)")
		workers   = flag.Int("workers", 1, "workers for detection (one antecedent per work item), its partition-cache warm-up and the incremental engines (0 = all CPUs)")
		updates   = flag.String("updates", "", "CSV update stream to replay through the incremental monitor (records: row,attr,value or +,v1,...,vk)")
		batchSize = flag.Int("batch", 64, "cell updates per monitor batch when replaying -updates")
		discover  = flag.Bool("discover", false, "with -updates: maintain the minimal OFD cover live over the stream, printing per-batch cover diffs")
		stats     = flag.Bool("stats", false, "print the per-stage execution table")
		timeout   = flag.Duration("timeout", 0, "abort after this duration, printing the partial report (0 = no timeout)")
	)
	flag.Var(&ofds, "ofd", "OFD as \"A,B -> C\" (repeatable)")
	flag.Parse()
	if *dataPath == "" || *ontPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	rel, err := fastofd.ReadCSVFile(*dataPath)
	if err != nil {
		fail(err)
	}
	ont, err := fastofd.ReadOntologyFile(*ontPath)
	if err != nil {
		fail(err)
	}
	sigma, err := fastofd.ParseOFDs(rel.Schema(), ofds)
	if err != nil {
		fail(err)
	}
	if *sigmaFile != "" {
		fromFile, err := core.ReadSetFile(*sigmaFile, rel.Schema())
		if err != nil {
			fail(err)
		}
		sigma = append(sigma, fromFile...)
	}
	if len(sigma) == 0 && !*discover {
		fail(fmt.Errorf("no OFDs given (use -ofd or -sigma)"))
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	stageStats := fastofd.NewStats()

	if *discover && *updates == "" {
		fail(fmt.Errorf("-discover requires -updates (it maintains the cover over a replayed stream)"))
	}
	var rep *fastofd.Report
	var derr error
	if *updates != "" && *discover {
		rep, derr = replayPipeline(ctx, rel, ont, sigma, *updates, *batchSize, *workers, stageStats)
	} else if *updates != "" {
		rep, derr = replayUpdates(ctx, rel, ont, sigma, *updates, *batchSize, *workers, stageStats)
	} else {
		rep, derr = fastofd.DetectContext(ctx, rel, ont, sigma, *workers, stageStats)
	}
	if derr != nil && !cli.Interrupted(derr) {
		fail(derr)
	}
	for _, v := range rep.Violations {
		fmt.Println(v.Format(rel.Schema(), ont))
	}
	fmt.Fprintf(os.Stderr, "%d violating classes; %d tuples flagged; %d tuples an FD would falsely flag\n",
		len(rep.Violations), rep.TuplesFlagged, rep.FDOnlyFlagged)
	if derr != nil {
		cli.ExitInterruptedWith("ofddetect", derr, stageStats)
	}
	if *stats {
		fmt.Fprint(os.Stderr, stageStats.Table())
	}
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

// replayUpdates streams the update file through the incremental monitor
// batch by batch and materializes the final violation report —
// byte-identical to running detection from scratch on the evolved
// instance. The stream is never loaded whole: records are decoded off a
// buffered reader one at a time and cell writes batch up to batchSize
// before flushing through ApplyBatchContext, so replay memory is O(batch)
// regardless of stream length. '+' records append immediately (appends
// re-verify only the class the tuple joins). Per-batch flush latencies
// are summarized to stderr as percentiles when the stream ends. On
// interrupt the report reflects the stream replayed so far: a cut batch
// rolls back, so no half-applied batch is ever reported.
func replayUpdates(ctx context.Context, rel *fastofd.Relation, ont *fastofd.Ontology, sigma fastofd.Set, path string, batchSize, workers int, stats *fastofd.Stats) (*fastofd.Report, error) {
	if batchSize < 1 {
		batchSize = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := fastofd.NewMonitor(ctx, rel, ont, sigma, workers, stats)
	if err != nil {
		return nil, err
	}

	r := csv.NewReader(bufio.NewReaderSize(f, 1<<16))
	r.FieldsPerRecord = -1 // cell writes and appends have different widths
	r.Comment = '#'
	r.ReuseRecord = false
	schema := rel.Schema()
	batch := make([]fastofd.CellUpdate, 0, batchSize)
	var latencies []time.Duration
	defer func() {
		reportLatencies(os.Stderr, latencies)
	}()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		start := time.Now()
		err := m.ApplyBatchContext(ctx, batch)
		if err == nil {
			latencies = append(latencies, time.Since(start))
		}
		batch = batch[:0]
		return err
	}
	line := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return m.Report(), err
		}
		line++
		if len(rec) > 0 && rec[0] == "+" {
			// Appends see the batched writes before them in stream order.
			if err := flush(); err != nil {
				return m.Report(), err
			}
			if _, err := m.AppendRow(rec[1:]); err != nil {
				return m.Report(), fmt.Errorf("updates record %d: %w", line, err)
			}
			continue
		}
		if len(rec) != 3 {
			return m.Report(), fmt.Errorf("updates record %d: want row,attr,value or +,v1,...,vk; got %d fields", line, len(rec))
		}
		row, err := strconv.Atoi(rec[0])
		if err != nil {
			return m.Report(), fmt.Errorf("updates record %d: bad row id %q", line, rec[0])
		}
		col, ok := schema.Index(rec[1])
		if !ok {
			return m.Report(), fmt.Errorf("updates record %d: unknown attribute %q", line, rec[1])
		}
		batch = append(batch, fastofd.CellUpdate{Row: row, Col: col, Value: rec[2]})
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return m.Report(), err
			}
		}
	}
	if err := flush(); err != nil {
		return m.Report(), err
	}
	return m.Report(), nil
}

// replayPipeline streams the update file through the merged
// discover→detect pipeline: the maintainer and the monitor share one
// relation, one partition cache, and one live-index substrate, so each
// batch is validated, deduplicated, and applied exactly once and both
// engines absorb it from the same index — no second copy of the
// instance.
// The monitored set is the user's sigma (pinned); the cover is
// discovered at startup and maintained live, printing a diff line per
// batch that changes it. Each batch's maintain and detect phases are
// timed separately by the pipeline (BatchResult.MaintainNanos /
// DetectNanos) and summarized as percentiles when the stream ends. On
// interrupt the report reflects the stream replayed so far: a cut batch
// rolls back in both engines, so no half-applied batch is ever reported.
func replayPipeline(ctx context.Context, rel *fastofd.Relation, ont *fastofd.Ontology, sigma fastofd.Set, path string, batchSize, workers int, stats *fastofd.Stats) (*fastofd.Report, error) {
	if batchSize < 1 {
		batchSize = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := fastofd.NewPipeline(ctx, rel, ont, fastofd.PipelineOptions{
		Sigma:   sigma,
		Workers: workers,
		Stats:   stats,
	})
	if err != nil {
		return nil, err
	}
	monitored := len(sigma)
	if monitored == 0 {
		monitored = len(p.Cover()) // no pinned sigma: the monitor follows the cover
	}
	fmt.Fprintf(os.Stderr, "pipeline: maintaining a cover of %d OFDs and monitoring %d on one shared index\n",
		len(p.Cover()), monitored)

	r := csv.NewReader(bufio.NewReaderSize(f, 1<<16))
	r.FieldsPerRecord = -1 // cell writes and appends have different widths
	r.Comment = '#'
	r.ReuseRecord = false
	schema := rel.Schema()
	batch := make([]fastofd.CellUpdate, 0, batchSize)
	var maintainLat, detectLat []time.Duration
	defer func() {
		if len(detectLat) > 0 {
			fmt.Fprintf(os.Stderr, "replayed %d batches through the pipeline\n", len(detectLat))
			fmt.Fprintf(os.Stderr, "detect latency %s\n", fmtLatencies(detectLat))
		}
		reportMaintain(os.Stderr, p.Maintainer(), maintainLat)
	}()
	record := func(res fastofd.PipelineBatchResult) {
		maintainLat = append(maintainLat, time.Duration(res.MaintainNanos))
		detectLat = append(detectLat, time.Duration(res.DetectNanos))
		printDiff(os.Stdout, schema, res.Diff)
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res, err := p.ApplyBatch(ctx, batch)
		if err == nil {
			record(res)
		}
		batch = batch[:0]
		return err
	}
	line := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return p.Report(), err
		}
		line++
		if len(rec) > 0 && rec[0] == "+" {
			// Appends see the batched writes before them in stream order.
			if err := flush(); err != nil {
				return p.Report(), err
			}
			res, err := p.AppendRows([][]string{rec[1:]})
			if err != nil {
				return p.Report(), fmt.Errorf("updates record %d: %w", line, err)
			}
			record(res)
			continue
		}
		if len(rec) != 3 {
			return p.Report(), fmt.Errorf("updates record %d: want row,attr,value or +,v1,...,vk; got %d fields", line, len(rec))
		}
		row, err := strconv.Atoi(rec[0])
		if err != nil {
			return p.Report(), fmt.Errorf("updates record %d: bad row id %q", line, rec[0])
		}
		col, ok := schema.Index(rec[1])
		if !ok {
			return p.Report(), fmt.Errorf("updates record %d: unknown attribute %q", line, rec[1])
		}
		batch = append(batch, fastofd.CellUpdate{Row: row, Col: col, Value: rec[2]})
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return p.Report(), err
			}
		}
	}
	if err := flush(); err != nil {
		return p.Report(), err
	}
	return p.Report(), nil
}

// printDiff writes one batch's cover changes as a single diff line
// (silent when the cover is unchanged).
func printDiff(w io.Writer, schema *fastofd.Schema, diff fastofd.CoverDiff) {
	if diff.Empty() {
		return
	}
	fmt.Fprintf(w, "cover @%d:", diff.Epoch)
	for _, d := range diff.Added {
		fmt.Fprintf(w, " +[%s]", d.Format(schema))
	}
	for _, d := range diff.Removed {
		fmt.Fprintf(w, " -[%s]", d.Format(schema))
	}
	fmt.Fprintln(w)
}

// reportMaintain prints the final maintained cover and its per-batch
// latency percentiles.
func reportMaintain(w io.Writer, mtn *fastofd.Maintainer, latencies []time.Duration) {
	cover := mtn.Cover()
	fmt.Fprintf(w, "maintained cover: %d OFDs after %d batches (%d full candidate scans)\n",
		len(cover), mtn.Epoch(), mtn.Scans())
	if len(latencies) == 0 {
		return
	}
	fmt.Fprintf(w, "maintain latency %s\n", fmtLatencies(latencies))
}

// reportLatencies prints p50/p95/p99/max over the recorded per-batch
// flush latencies, the live-replay health numbers an operator watches.
func reportLatencies(w io.Writer, latencies []time.Duration) {
	if len(latencies) == 0 {
		return
	}
	fmt.Fprintf(w, "replayed %d batches; batch latency %s\n", len(latencies), fmtLatencies(latencies))
}

// fmtLatencies renders a latency series as p50/p95/p99/max percentiles.
func fmtLatencies(latencies []time.Duration) string {
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) time.Duration {
		k := int(p * float64(len(sorted)-1))
		return sorted[k]
	}
	return fmt.Sprintf("p50=%s p95=%s p99=%s max=%s",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), sorted[len(sorted)-1].Round(time.Microsecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ofddetect:", err)
	os.Exit(1)
}
