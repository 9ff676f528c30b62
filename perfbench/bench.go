package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/core"
)

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 3

// config is how one run executes.
type config struct {
	workers int
	seconds float64
	dir     string
	tracer  *tracer // nil: untraced
}

// runner accumulates one run's operations, failed checks and values.
type runner struct {
	ctx context.Context
	w   *workload
	cfg config
	tr  *tracer

	attempted, failed int
	problems          []string
	// aborted is set when an operation failed and the rest of the run
	// could not be measured.
	aborted bool
	values  map[string]float64
	meta    map[string]any
	mem     map[string]memDelta
	peaks   map[string]float64
}

// problem records a failed correctness check.
func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	r.problems = append(r.problems, msg)
}

// op counts one attempted operation and reports whether it succeeded; a
// failed one aborts the run.
func (r *runner) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.aborted = true
		r.problem("%s: %v", what, err)
		return false
	}
	return true
}

// call runs fn inside a span and counts it as one operation.
func (r *runner) call(name string, parent, batch int, fn func() error) bool {
	id := r.tr.begin(name, parent, batch)
	err := fn()
	r.tr.end(id)
	return r.op(name, err)
}

// phase is one repeated, timed operation.
type phase struct {
	name string
	reps int
	// body runs repetition i inside span; it returns a check that runs
	// after the clock stops, or ok=false to abort the run.
	body func(i, span int) (check func(), ok bool)
	// done records the phase's values from its repetitions.
	done func(walls, cpus []float64)
}

// run times ph.reps repetitions of ph back to back and records their
// medians. The heap is collected before the first (and, with reset, reset
// drops what the previous repetition built and the heap is collected
// before every one). Without reset the repetitions pay for their own
// garbage: with a fixed count, the collections their allocations trigger
// fall on the same repetitions in every run.
func (r *runner) run(ph *phase, reset func()) bool {
	var mem memSample
	var walls, cpus []float64
	for i := 0; i < ph.reps; i++ {
		if reset != nil {
			reset()
		}
		if reset != nil || i == 0 {
			runtime.GC()
		}
		m0 := readMem()
		c := now()
		sp := r.tr.begin(ph.name, -1, -1)
		check, ok := ph.body(i, sp)
		r.tr.end(sp)
		w, cpu := c.since()
		mem = mem.plus(readMem().minus(m0))
		if !ok {
			return false
		}
		if check != nil {
			check()
		}
		walls, cpus = append(walls, w), append(cpus, cpu)
	}
	r.mem[ph.name] = mem.perCall(ph.reps)
	r.notePeak(ph.name)
	ph.done(walls, cpus)
	return true
}

// setup runs setupReps setups; reset drops the previous one.
func (r *runner) setup(reset func(), body func(span int) bool) bool {
	return r.run(&phase{name: "setup", reps: setupReps,
		body: func(_, sp int) (func(), bool) { return nil, body(sp) },
		done: func(walls, cpus []float64) {
			r.values["setup_s"], r.values["setup_cpu_s"] = median(walls), median(cpus)
		}}, reset)
}

// reps scales a workload's repetition count, set for --seconds 2, to
// the run's --seconds.
func (r *runner) reps(at2s int) int {
	return max(int(math.Ceil(float64(at2s)*r.cfg.seconds/2)), 3)
}

// notePeak records the peak resident size after a phase in the metadata,
// to show which phase sets resident_mb.
func (r *runner) notePeak(phase string) {
	if rss, err := peakRSSMB(); err == nil {
		r.peaks[phase] = rss
	}
}

func marshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return data
}

// execute generates the workload's inputs for seed and runs it.
func execute(ctx context.Context, w *workload, seed int64, cfg config) (*runner, error) {
	r := &runner{ctx: ctx, w: w, cfg: cfg, tr: cfg.tracer, values: map[string]float64{}, meta: map[string]any{}, mem: map[string]memDelta{}, peaks: map[string]float64{}}
	ticks0, stealErr := readCPUTicks()
	in, err := writeInputs(w, seed, cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	start := now()
	r.live(in)
	wall, cpu := start.since()
	for p, d := range r.mem {
		r.values["runtime."+p+".alloc_mb"] = d.AllocMB
		r.values["runtime."+p+".mallocs"] = d.Mallocs
		r.values["runtime."+p+".gc_cycles"] = d.GCCycles
		r.values["runtime."+p+".gc_cpu_frac"] = d.GCCPUFrac
	}
	if r.tr != nil {
		r.values["trace.overhead_frac"] = r.tr.self.Seconds() / wall
	}
	r.meta["workload"] = w.name
	r.meta["seed"] = seed
	r.meta["nproc"] = runtime.NumCPU()
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.meta["workers"] = cfg.workers
	r.meta["go_version"] = runtime.Version()
	r.meta["traced"] = r.tr != nil
	r.meta["run_wall_s"] = wall
	r.meta["run_cpu_s"] = cpu
	r.meta["phase_mem"] = r.mem
	r.meta["peak_rss_mb_after"] = r.peaks
	if ticks1, err := readCPUTicks(); stealErr == nil && err == nil {
		r.meta["steal_share"] = stealShare(ticks0, ticks1)
	}
	return r, nil
}

// loaded is one setup's inputs read back from disk.
type loaded struct {
	base  *fastofd.Relation
	ont   *fastofd.Ontology
	sigma fastofd.Set
}

// load reads the files setup needs, each call in a span under parent.
func (r *runner) load(in *inputs, parent int) (*loaded, bool) {
	var l loaded
	ok := r.call("ReadCSVFile", parent, -1, func() (err error) {
		l.base, err = fastofd.ReadCSVFile(in.base)
		return err
	}) && r.call("ReadOntologyFile", parent, -1, func() (err error) {
		l.ont, err = fastofd.ReadOntologyFile(in.ontology)
		return err
	}) && r.call("ReadSetFile", parent, -1, func() (err error) {
		l.sigma, err = core.ReadSetFile(in.sigma, l.base.Schema())
		return err
	})
	return &l, ok
}

func (r *runner) discover(rel *fastofd.Relation, ont *fastofd.Ontology, parent int) (*fastofd.DiscoveryResult, bool) {
	var res *fastofd.DiscoveryResult
	opts := fastofd.DefaultDiscoveryOptions()
	opts.Workers = r.cfg.workers
	ok := r.call("DiscoverContext", parent, -1, func() (err error) {
		res, err = fastofd.DiscoverContext(r.ctx, rel, ont, opts)
		return err
	})
	return res, ok
}

// splitSetup runs one extra discovery over the setup's base relation, to
// show how much of NewPipeline is the lattice, and records it as the
// discovery layer's figures.
func (r *runner) splitSetup(rel *fastofd.Relation, ont *fastofd.Ontology) bool {
	sp := r.tr.begin("setup.split", -1, -1)
	defer r.tr.end(sp)
	m0 := readMem()
	c := now()
	res, ok := r.discover(rel, ont, sp)
	if !ok {
		return false
	}
	r.values["discovery.discover_s"], r.values["discovery.discover_cpu_s"] = c.since()
	r.values["discovery.alloc_mb"] = readMem().minus(m0).perCall(1).AllocMB
	r.values["discovery.cover_size"] = float64(len(res.OFDs))
	return true
}

func (r *runner) newPipeline(rel *fastofd.Relation, ont *fastofd.Ontology, parent int) (*fastofd.Pipeline, bool) {
	var p *fastofd.Pipeline
	ok := r.call("NewPipeline", parent, -1, func() (err error) {
		p, err = fastofd.NewPipeline(r.ctx, rel, ont, fastofd.PipelineOptions{Workers: r.cfg.workers})
		return err
	})
	return p, ok
}

// live runs a workload: setup (load + NewPipeline), the
// closed-loop stream, then repeated Detect on the final instance (each
// report must equal the pipeline's), Clean of the planted Σ on it and
// reopening its snapshot, and last the cover check.
func (r *runner) live(in *inputs) {
	var l *loaded
	var p *fastofd.Pipeline
	if !r.setup(func() { l, p = nil, nil }, func(sp int) bool {
		var ok bool
		if l, ok = r.load(in, sp); !ok {
			return false
		}
		p, ok = r.newPipeline(l.base, l.ont, sp)
		return ok
	}) {
		return
	}
	if r.tr != nil {
		r.values["relation.load_s"] = median(r.tr.childSeconds("setup", "ReadCSVFile"))
		if !r.splitSetup(p.Relation(), l.ont) {
			return
		}
	}
	if !r.stream(p, in.stream) {
		return
	}
	want := marshal(p.Report())
	sigma := p.Monitor().Sigma()
	detect := r.detectPhase(func() (*fastofd.Report, error) {
		return fastofd.DetectContext(r.ctx, p.Relation(), l.ont, sigma, r.cfg.workers, nil)
	}, func(rep *fastofd.Report) {
		if !bytes.Equal(marshal(rep), want) {
			r.problem("pipeline report differs from a fresh Detect on the final instance")
		}
	})
	resume := r.resumePhase(p)
	if resume == nil {
		return
	}
	for _, ph := range []*phase{detect, r.cleanPhase(p.Relation(), l.ont, l.sigma), resume} {
		if !r.run(ph, nil) {
			return
		}
	}
	// The peak is read before the cover check, which recomputes the final
	// state from scratch, so resident_mb is the measured phases' footprint.
	if rss, err := peakRSSMB(); r.op("read VmHWM", err) {
		r.values["resident_mb"] = rss
	}
	r.checkCover(p, l.ont)
}

// checkCover is the gate Cover ≡ a fresh DiscoverContext on the final
// instance, compared as JSON bytes.
func (r *runner) checkCover(p *fastofd.Pipeline, ont *fastofd.Ontology) {
	sp := r.tr.begin("check", -1, -1)
	res, ok := r.discover(p.Relation(), ont, sp)
	r.tr.end(sp)
	if ok && !bytes.Equal(marshal(p.Cover()), marshal(res.OFDs)) {
		r.problem("maintained cover differs from a fresh Discover on the final instance")
	}
}

// detectPhase times detect, checking every report with check.
func (r *runner) detectPhase(detect func() (*fastofd.Report, error), check func(*fastofd.Report)) *phase {
	var rep *fastofd.Report
	return &phase{name: "detect", reps: r.reps(r.w.reps.detect),
		body: func(_, sp int) (func(), bool) {
			ok := r.call("DetectContext", sp, -1, func() (err error) {
				rep, err = detect()
				return err
			})
			return func() { check(rep) }, ok
		},
		done: func(walls, cpus []float64) {
			r.values["detect_ms"] = median(walls) * 1e3
			r.values["detect_cpu_ms"] = median(cpus) * 1e3
			r.values["detect.violations"] = float64(len(rep.Violations))
			r.values["detect.calls"] = float64(len(walls))
		}}
}

// cleanPhase times CleanContext. Every repetition must choose the same
// best repair, and a best repair within τ must leave no violation of Σ
// on the repaired instance and ontology.
func (r *runner) cleanPhase(rel *fastofd.Relation, ont *fastofd.Ontology, sigma fastofd.Set) *phase {
	opts := fastofd.DefaultCleanOptions()
	opts.Workers = r.cfg.workers
	var res *fastofd.CleanResult
	var assign, beam, mat []float64
	var firstBest []byte
	return &phase{name: "clean", reps: r.reps(r.w.reps.clean),
		body: func(i, sp int) (func(), bool) {
			ok := r.call("CleanContext", sp, -1, func() (err error) {
				res, err = fastofd.CleanContext(r.ctx, rel, ont, sigma, opts)
				return err
			})
			return func() {
				assign = append(assign, res.AssignElapsed.Seconds())
				beam = append(beam, res.BeamElapsed.Seconds())
				mat = append(mat, res.MaterializeElapsed.Seconds())
				best := marshal(res.Best)
				if i == 0 {
					firstBest = best
					r.checkResidual(res, sigma)
				} else if !bytes.Equal(best, firstBest) {
					r.problem("repeated Clean chose a different best repair")
				}
			}, ok
		},
		done: func(walls, cpus []float64) {
			r.values["clean_s"], r.values["clean_cpu_s"] = median(walls), median(cpus)
			r.values["repair.assign_s"] = median(assign)
			r.values["repair.beam_s"] = median(beam)
			r.values["repair.materialize_s"] = median(mat)
			r.values["repair.candidates"] = float64(res.Candidates)
			r.values["repair.pareto_size"] = float64(len(res.Pareto))
		}}
}

// checkResidual asserts that Clean's best repair, when within τ, leaves
// zero violations of Σ on the repaired instance and ontology.
func (r *runner) checkResidual(res *fastofd.CleanResult, sigma fastofd.Set) {
	within := res.Best != nil && res.Best.WithinTau
	r.meta["clean_best_within_tau"] = within
	if !within {
		return
	}
	r.meta["clean_best_cells"], r.meta["clean_best_ont_changes"] = res.Best.DataDist, res.Best.OntDist
	rep, err := fastofd.DetectContext(r.ctx, res.Instance, res.Ontology, sigma, r.cfg.workers, nil)
	if !r.op("DetectContext residual", err) {
		return
	}
	r.meta["clean_residual_violations"] = len(rep.Violations)
	if len(rep.Violations) != 0 {
		r.problem("best repair leaves %d violations of the planted Σ", len(rep.Violations))
	}
}

// stream drives the closed loop: each batch's updates through one
// ApplyBatch and its appends through one AppendRows, timed together.
func (r *runner) stream(p *fastofd.Pipeline, batches []batch) bool {
	mt, mon := p.Maintainer(), p.Monitor()
	scans0, skips0, refines0 := mt.Scans(), mt.Skips(), mt.Refines()
	trav0, probes0 := mt.KernelStats()
	cache0 := p.CacheStats()
	reverified0 := mon.Reverified()
	var walls, maintain, detect []float64
	// effective counts the cell writes left after the batch's
	// last-write-wins dedup; ops counts the submitted updates and rows.
	ops, effective, churn := 0, 0, 0
	runtime.GC()
	m0 := readMem()
	sp := r.tr.begin("stream", -1, -1)
	c := now()
	for i, b := range batches {
		bs := r.tr.begin("batch", sp, i)
		t := time.Now()
		var res []fastofd.PipelineBatchResult
		ok := r.call("ApplyBatch", bs, i, func() error {
			br, err := p.ApplyBatch(r.ctx, b.updates)
			res = append(res, br)
			return err
		})
		effective += len(mt.LastWrites())
		if ok && len(b.appends) > 0 {
			ok = r.call("AppendRows", bs, i, func() error {
				br, err := p.AppendRows(b.appends)
				res = append(res, br)
				return err
			})
		}
		wall := time.Since(t)
		r.tr.end(bs)
		if !ok {
			return false
		}
		var m, d int64
		for _, br := range res {
			m += br.MaintainNanos
			d += br.DetectNanos
			churn += len(br.Diff.Added) + len(br.Diff.Removed)
		}
		walls = append(walls, float64(wall.Nanoseconds())/1e6)
		maintain = append(maintain, float64(m)/1e6)
		detect = append(detect, float64(d)/1e6)
		ops += len(b.updates) + len(b.appends)
	}
	wall, cpu := c.since()
	r.tr.end(sp)
	r.mem["stream"] = readMem().minus(m0).perCall(1)
	r.notePeak("stream")

	r.values["batch_p50_ms"] = median(walls)
	if pct, v, ok := tail(walls); ok {
		r.values["batch_tail_ms"] = v
		r.meta["batch_tail_percentile"] = pct
	}
	r.meta["batches"] = len(walls)
	r.meta["effective_writes"] = effective
	r.meta["stream_wall_s"] = wall
	r.values["ops_per_s"] = float64(ops) / wall
	r.values["stream_cpu_s"] = cpu

	glue := make([]float64, len(walls))
	for i := range walls {
		glue[i] = walls[i] - maintain[i] - detect[i]
	}
	r.values["maintainer.ms_per_batch"] = mean(maintain)
	r.values["monitor.ms_per_batch"] = mean(detect)
	r.values["pipeline.glue_ms_per_batch"] = mean(glue)

	scans, skips := mt.Scans()-scans0, mt.Skips()-skips0
	trav, probes := mt.KernelStats()
	r.values["maintainer.scans"] = float64(scans)
	r.values["maintainer.oracle_ratio"] = ratio(float64(skips), float64(scans+skips))
	r.values["maintainer.refines"] = float64(mt.Refines() - refines0)
	r.values["maintainer.kernel_traversals"] = float64(trav - trav0)
	r.values["maintainer.kernel_fan_in"] = ratio(float64(probes-probes0), float64(trav-trav0))
	r.values["maintainer.cover_churn"] = float64(churn)

	cs := p.CacheStats()
	d := cs.Since(cache0)
	r.values["relation.cache_hit_ratio"] = ratio(float64(d.Hits), float64(d.Hits+d.Misses))
	r.values["relation.cache_misses"] = float64(d.Misses)
	r.values["relation.cache_evictions"] = float64(d.Evictions)
	r.values["relation.cache_peak_mb"] = float64(cs.PeakBytes) / (1 << 20)
	r.values["relation.overlay_mb"] = float64(cs.OverlayBytes) / (1 << 20)
	r.meta["cache_hits"] = d.Hits

	r.values["monitor.reverified"] = float64(mon.Reverified() - reverified0)
	r.values["monitor.violations"] = float64(len(p.Report().Violations))
	return true
}

// resumePhase saves the pipeline and returns the phase that reopens the
// snapshot; every reopened snapshot's Cover and Report must equal the
// pre-save ones. It returns nil when the save fails.
func (r *runner) resumePhase(p *fastofd.Pipeline) *phase {
	wantReport, wantCover := marshal(p.Report()), marshal(p.Cover())
	path := filepath.Join(r.cfg.dir, "state.snap")
	c := now()
	if !r.call("SaveSnapshot", -1, -1, func() error {
		return fastofd.SaveSnapshot(path, &fastofd.SnapshotState{Pipeline: p})
	}) {
		return nil
	}
	r.values["snapshot.save_s"], _ = c.since()
	fi, err := os.Stat(path)
	if !r.op("stat snapshot", err) {
		return nil
	}
	r.values["snapshot.mb"] = float64(fi.Size()) / (1 << 20)

	var opens []float64
	return &phase{name: "resume", reps: r.reps(r.w.reps.resume),
		body: func(_, sp int) (func(), bool) {
			var st *fastofd.SnapshotState
			t := time.Now()
			if !r.call("OpenSnapshot", sp, -1, func() (err error) {
				st, err = fastofd.OpenSnapshot(path, fastofd.SnapshotOptions{Workers: r.cfg.workers})
				if err == nil && st.Pipeline == nil {
					err = fmt.Errorf("snapshot has no pipeline")
				}
				return err
			}) {
				return nil, false
			}
			opens = append(opens, time.Since(t).Seconds())
			var rep *fastofd.Report
			var cover fastofd.Set
			r.call("Report", sp, -1, func() error { rep = st.Pipeline.Report(); return nil })
			r.call("Cover", sp, -1, func() error { cover = st.Pipeline.Cover(); return nil })
			return func() {
				if !bytes.Equal(marshal(rep), wantReport) || !bytes.Equal(marshal(cover), wantCover) {
					r.problem("reopened snapshot's report or cover differs from the saved pipeline's")
				}
			}, true
		},
		done: func(walls, _ []float64) {
			r.values["resume_s"] = median(walls)
			r.values["snapshot.open_s"] = median(opens)
		}}
}
