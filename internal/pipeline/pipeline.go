// Package pipeline merges the two incremental engines — the violation
// monitor (core.Monitor) and the minimal-cover maintainer
// (discovery.Maintainer) — onto one shared live-index substrate: one
// relation, verifier and partition cache serve maintenance, detection and
// repair verification together, one class table per antecedent and one
// consequent state per dependency (core.DepState) serve either engine. A
// single ApplyBatch has the substrate apply a batch, moving each table's
// rows and folding each state once, inside the maintainer's atomic
// protocol; the maintainer reads the verdicts, the monitor
// re-materializes the classes they dirtied, and (optionally) the
// monitored set follows the discovered cover as it drifts — one pass over
// the shared index instead of two engines' private copies.
//
// Everything observable is byte-identical to running the engines
// separately: the maintained cover matches a fresh Discover and the
// published reports match a fresh Detect over the final instance, for any
// worker count — including after a cancelled (rolled back) batch. The
// substrate tests pin this down.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// Options configures a merged pipeline.
type Options struct {
	// Sigma is the dependency set to monitor. Nil monitors the discovered
	// initial cover (the usual merged-pipeline shape); non-nil pins an
	// explicit set instead.
	Sigma core.Set
	// FollowCover, when set, keeps the monitored set equal to the
	// maintained cover: every batch's cover diff registers the added OFDs
	// with the monitor and unregisters the removed ones before the batch
	// returns. Requires Sigma == nil.
	FollowCover bool
	// Workers parallelizes both engines on the shared exec substrate.
	Workers int
	// Stats, when non-nil, receives both engines' stage stats.
	Stats *exec.Stats
	// Discovery configures the initial cover discovery and the maintainer
	// (Workers and Stats are overridden by the pipeline's). Nil means
	// discovery.DefaultOptions().
	Discovery *discovery.Options
}

// BatchResult is one batch's combined outcome across the engines.
type BatchResult struct {
	// Diff is the batch's change to the maintained minimal cover.
	Diff discovery.Diff
	// Epoch is the monitor's published epoch after absorbing the batch;
	// Report/ReportAt observe exactly this batch's violations.
	Epoch uint64
	// MaintainNanos is the wall time of the maintainer's validate + apply
	// + fold + repair-verify phase; DetectNanos the monitor's absorb + publish
	// phase (plus cover registration when FollowCover).
	MaintainNanos int64
	DetectNanos   int64
}

// Pipeline is the merged engine pair over one shared substrate.
type Pipeline struct {
	sub *core.Substrate
	mt  *discovery.Maintainer
	m   *core.Monitor

	followCover bool
}

// New builds the merged pipeline: one substrate (core.NewSubstrate), the
// maintainer (running the initial discovery) on it, and the monitor on
// the same substrate.
func New(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, opts Options) (*Pipeline, error) {
	if opts.FollowCover && opts.Sigma != nil {
		return nil, fmt.Errorf("pipeline: FollowCover requires Sigma == nil (the cover is the monitored set)")
	}
	dopts := discovery.DefaultOptions()
	if opts.Discovery != nil {
		dopts = *opts.Discovery
	}
	dopts.Workers = opts.Workers
	dopts.Stats = opts.Stats
	if err := discovery.CheckMaintainerOptions(dopts); err != nil {
		return nil, err
	}

	sub, err := core.NewSubstrate(ctx, rel, ont, opts.Workers)
	if err != nil {
		return nil, err
	}
	mt, err := discovery.NewMaintainer(ctx, sub, dopts)
	if err != nil {
		return nil, err
	}
	sigma := opts.Sigma
	if sigma == nil {
		sigma = mt.Cover()
	}
	m, err := core.NewMonitor(ctx, sub, sigma, opts.Workers, opts.Stats)
	if err != nil {
		return nil, err
	}
	return &Pipeline{sub: sub, mt: mt, m: m, followCover: opts.FollowCover}, nil
}

// ApplyBatch runs one update batch through the merged pipeline:
//
//  1. The maintainer has the substrate validate, deduplicate and apply
//     the batch, which moves the rows of every table and folds every
//     dependency state it touches (timed under maintain.dirty), then
//     repair-verifies it atomically (a cancelled batch is undone by the
//     substrate, tables and states included, and leaves both engines at
//     the pre-batch state).
//  2. The monitor re-materializes the classes the batch dirtied in its
//     dependencies' states — the same states the maintainer read — and
//     publishes one epoch.
//  3. With FollowCover, the cover diff registers/unregisters monitored
//     dependencies so the monitored set tracks the cover.
//
// The atomicity boundary is the maintainer's verify phase: once it
// commits, the remaining steps are deterministic bookkeeping and run
// uncancellable.
func (p *Pipeline) ApplyBatch(ctx context.Context, updates []core.CellUpdate) (BatchResult, error) {
	return p.run(func() (discovery.Diff, error) { return p.mt.ApplyBatchContext(ctx, updates) })
}

// AppendRows appends a batch of tuples through the merged pipeline: the
// maintainer has the substrate append the rows (row-stale cache entries
// are dropped) and repairs (appends only demote, so this is uncancellable-fast).
// The monitor then absorbs the rows as one batch, exactly like a batch of
// cell writes, and steps 2 and 3 of ApplyBatch follow.
func (p *Pipeline) AppendRows(rows [][]string) (BatchResult, error) {
	return p.run(func() (discovery.Diff, error) { return p.mt.AppendRows(rows) })
}

// run is the shared body of ApplyBatch and AppendRows: maintain runs the
// batch through the maintainer, then the monitor absorbs whatever the
// substrate changed (core.Monitor.Absorb) and the cover diff is followed.
func (p *Pipeline) run(maintain func() (discovery.Diff, error)) (BatchResult, error) {
	start := time.Now()
	diff, err := maintain()
	if err != nil {
		return BatchResult{}, err
	}
	maintainDone := time.Now()
	p.m.Absorb()
	if err := p.followDiff(diff); err != nil {
		return BatchResult{}, err
	}
	return BatchResult{
		Diff:          diff,
		Epoch:         p.m.Epoch(),
		MaintainNanos: maintainDone.Sub(start).Nanoseconds(),
		DetectNanos:   time.Since(maintainDone).Nanoseconds(),
	}, nil
}

// followDiff applies a cover diff to the monitored set (FollowCover
// mode): added dependencies register, then removed ones unregister, so
// an antecedent whose removed dependency an added one replaces keeps its
// member lists.
func (p *Pipeline) followDiff(diff discovery.Diff) error {
	if !p.followCover || diff.Empty() {
		return nil
	}
	for _, d := range diff.Added {
		if err := p.m.Register(d); err != nil {
			return fmt.Errorf("pipeline: cover follow: %w", err)
		}
	}
	for _, d := range diff.Removed {
		if err := p.m.Unregister(d); err != nil {
			return fmt.Errorf("pipeline: cover follow: %w", err)
		}
	}
	return nil
}

// FollowCover reports whether the monitored set tracks the cover.
func (p *Pipeline) FollowCover() bool { return p.followCover }

// Monitor returns the pipeline's monitor (reports, epochs, violating
// classes). Mutate only through the pipeline.
func (p *Pipeline) Monitor() *core.Monitor { return p.m }

// Maintainer returns the pipeline's maintainer (cover, epochs). Mutate
// only through the pipeline.
func (p *Pipeline) Maintainer() *discovery.Maintainer { return p.mt }

// Verifier returns the shared verifier all three roles consult.
func (p *Pipeline) Verifier() *core.Verifier { return p.sub.Verifier() }

// Relation returns the shared relation.
func (p *Pipeline) Relation() *relation.Relation { return p.sub.Relation() }

// Cover returns the maintained minimal cover (a fresh copy).
func (p *Pipeline) Cover() core.Set { return p.mt.Cover() }

// Report returns the monitor's latest published report.
func (p *Pipeline) Report() *core.Report { return p.m.Report() }

// CacheStats reports the shared partition cache's counters.
func (p *Pipeline) CacheStats() relation.CacheStats { return p.sub.Cache().Stats() }
