// Package discovery implements FastOFD (Algorithms 2–4 of the paper): a
// level-wise, Apriori-style traversal of the set-containment lattice of
// attribute sets that discovers a complete and minimal set of synonym OFDs
// holding on a relation instance w.r.t. an ontology. The axiomatization
// yields the pruning rules Opt-1..Opt-4 (§3.2); each is individually
// toggleable so the optimization-benefit experiment can ablate them.
package discovery

import (
	"context"
	"sort"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// Options configure a discovery run. The zero value disables every
// optimization; use DefaultOptions for the paper's full configuration.
type Options struct {
	// PruneAugmentation enables Opt-2: candidate sets C⁺(X) prune supersets
	// of already-discovered antecedents, so non-minimal OFDs are never
	// verified. When disabled, every candidate is verified and minimality
	// is enforced by filtering against the discovered set.
	PruneAugmentation bool
	// PruneKeys enables Opt-3: once an attribute set is known to be a
	// (super)key — its stripped partition is empty — candidates over it
	// validate without verification and partition products for its
	// supersets are skipped.
	PruneKeys bool
	// FDShortcut enables Opt-4: before per-class sense verification, test
	// whether the traditional FD X → A holds using the partition-error
	// comparison e(X) = e(X ∪ A); if so the OFD holds by subsumption.
	FDShortcut bool
	// MaxLevel caps the lattice depth (antecedent size ≤ MaxLevel−1).
	// Zero means no cap. The paper's Exp-4 motivates capping: ~61% of OFDs
	// appear in the top 6 levels for ~25% of the time.
	MaxLevel int
	// MinSupport is the approximate-OFD support threshold κ in (0, 1].
	// A value of 0 or 1 requests exact OFDs.
	MinSupport float64
	// Mode selects the ontological relationship: synonym OFDs (default)
	// or inheritance OFDs (is-a within Theta hops).
	Mode Mode
	// Theta is the inheritance path-length bound (only used with
	// ModeInheritance; the paper's experiments use θ = 5).
	Theta int
	// Workers parallelizes candidate verification and partition products
	// across goroutines on the shared exec substrate. 0 selects NumCPU; 1
	// runs serially; the output is byte-identical for any worker count.
	// Constraint: candidate VERIFICATION parallelizes only when
	// PruneAugmentation is on — the ablation path reads the evolving
	// discovered set and must stay sequential. Partition products (the
	// dominant cost) honor Workers in every configuration; when
	// verification is forced sequential despite Workers > 1, the run
	// records a note in its stage stats (Result.Stats) instead of
	// silently ignoring the setting.
	Workers int
	// Stats, when non-nil, is the stage-stats registry the run reports
	// into (per-level build/verify spans, cache hit rates, notes). When
	// nil, Discover creates a private registry, exposed as Result.Stats.
	Stats *exec.Stats
}

// Mode selects which ontological relationship candidate dependencies use.
type Mode int

const (
	// ModeSynonym discovers synonym OFDs (Definition 1).
	ModeSynonym Mode = iota
	// ModeInheritance discovers inheritance OFDs: consequent values must
	// share an ancestor within Theta is-a steps.
	ModeInheritance
)

// DefaultOptions is the configuration used in the paper's main experiments:
// all optimizations on, exact OFDs, unbounded depth.
func DefaultOptions() Options {
	return Options{PruneAugmentation: true, PruneKeys: true, FDShortcut: true}
}

// LevelStat records per-lattice-level effort and yield (Exp-4).
type LevelStat struct {
	Level      int           // antecedent size + 1 (lattice level l)
	Nodes      int           // attribute sets visited at this level
	Candidates int           // candidate OFDs verified
	Discovered int           // minimal OFDs found
	Elapsed    time.Duration // wall time spent at this level
}

// Result is the output of a discovery run. On a cancelled or timed-out
// context it is a well-formed partial result: OFDs holds the (sorted)
// dependencies verified before the interrupt, Levels the fully completed
// levels, and the accompanying error wraps context.Canceled or
// context.DeadlineExceeded.
type Result struct {
	OFDs              core.Set    // complete, minimal set of discovered OFDs
	Levels            []LevelStat // per-level statistics
	CandidatesChecked int         // total validity checks performed
	Elapsed           time.Duration
	// Stats is the run's per-stage observability registry (level build and
	// verification spans, partition-cache hit rates, notes such as the
	// sequential-verification fallback). Never nil.
	Stats *exec.Stats
}

type node struct {
	attrs    relation.AttrSet
	cplus    relation.AttrSet // C⁺(X) as a bitset
	part     *relation.Partition
	superkey bool
}

type discoverer struct {
	rel      *relation.Relation
	verifier *core.Verifier
	opts     Options
	pool     *exec.Pool
	all      relation.AttrSet
	sigma    core.Set
	kappa    float64
	result   *Result
	// prodBufs are per-worker product buffers, retained across lattice
	// levels so probe arrays are allocated once per worker, not per level.
	prodBufs []relation.ProductBuffer
	// levelBuilt, when set, runs after each nextLevel, when the cache
	// holds the most lattice levels it ever holds at once; the resident
	// level test reads the cache there.
	levelBuilt func(*relation.PartitionCache)
}

// Discover runs FastOFD over the relation and ontology and returns the
// complete, minimal set of synonym OFDs that hold (with support ≥ κ when
// Options.MinSupport is set). It is DiscoverContext under a background
// context, which cannot be interrupted, so the error is statically nil.
func Discover(rel *relation.Relation, ont *ontology.Ontology, opts Options) *Result {
	res, _ := DiscoverContext(context.Background(), rel, ont, opts)
	return res
}

// DiscoverContext is Discover with cooperative cancellation: a cancelled or
// deadline-exceeded ctx stops lattice traversal between nodes (verification)
// and between partition products (level building), returning the partial
// result accumulated so far — sorted OFDs, fully completed level stats —
// together with an error wrapping the context error. For an uncancelled
// run the result is byte-identical to Discover's for any worker count.
func DiscoverContext(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, opts Options) (*Result, error) {
	return discover(ctx, rel, ont, opts, nil)
}

// discover is DiscoverContext with the discoverer's levelBuilt hook.
func discover(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, opts Options, levelBuilt func(*relation.PartitionCache)) (*Result, error) {
	start := time.Now()
	stats := opts.Stats
	if stats == nil {
		stats = exec.NewStats()
	}
	totalSpan := stats.Span("discover.total")
	pool := exec.NewPool(opts.Workers, stats)
	// Build the initial single-column partitions with the same worker
	// count the traversal will use.
	buildSpan := stats.Span("discover.partitions")
	buildSpan.Workers(pool.Size())
	pc, err := relation.NewPartitionCacheContext(ctx, rel, pool.Size())
	buildSpan.Items(rel.NumCols())
	buildSpan.End()
	d := &discoverer{
		rel:        rel,
		verifier:   core.NewVerifier(rel, ont, pc),
		opts:       opts,
		pool:       pool,
		all:        rel.Schema().All(),
		kappa:      opts.MinSupport,
		result:     &Result{Stats: stats},
		levelBuilt: levelBuilt,
	}
	if d.kappa <= 0 || d.kappa > 1 {
		d.kappa = 1
	}
	if err == nil {
		err = d.run(ctx)
	}
	d.result.OFDs = d.sigma
	d.result.OFDs.Sort()
	d.result.Elapsed = time.Since(start)
	st := pc.Stats()
	totalSpan.Cache(st.Hits, st.Misses)
	totalSpan.Workers(pool.Size())
	totalSpan.Items(d.result.CandidatesChecked)
	totalSpan.End()
	return d.result, err
}

func (d *discoverer) run(ctx context.Context) error {
	n := d.rel.NumCols()
	pc := d.verifier.Partitions()
	// Level-1 candidates have LHS = ∅; the first verification computes and
	// caches the empty-set partition on demand (the cache is sharded and
	// locked, so concurrent workers missing on it at once are safe).

	// Level 1: singleton attribute sets. C⁺(∅) = R, so C⁺({A}) = R.
	buildStart := time.Now()
	level := make(map[relation.AttrSet]*node, n)
	for a := 0; a < n; a++ {
		s := relation.Single(a)
		p := pc.Get(s)
		level[s] = &node{attrs: s, cplus: d.all, part: p, superkey: p.IsKeyOver()}
	}
	buildTime := time.Since(buildStart)

	for l := 1; len(level) > 0; l++ {
		if d.opts.MaxLevel > 0 && l > d.opts.MaxLevel {
			break
		}
		lvlStart := time.Now()
		stat := LevelStat{Level: l, Nodes: len(level)}
		verifySpan := d.pool.Stats().Span("discover.verify")
		verifySpan.Workers(d.verifyWorkers())
		var err error
		if d.verifyWorkers() > 1 {
			err = d.computeOFDsParallel(ctx, level, &stat)
		} else {
			err = d.computeOFDs(ctx, level, &stat)
		}
		verifySpan.Items(stat.Candidates)
		verifySpan.End()
		if err != nil {
			return err
		}
		// A level's cost includes building it (the partition products of
		// calculateNextLevel) plus verifying its candidates.
		stat.Elapsed = buildTime + time.Since(lvlStart)
		d.result.Levels = append(d.result.Levels, stat)
		// Level l's verification was the last reader of level l−1's
		// partitions: nextLevel multiplies level l's, and level l+1
		// verifies against levels l and l+1. Dropping l−1 here, before
		// the products, keeps two lattice levels resident at the peak,
		// not three (singles stay: they are the cache's rebuild base).
		if l-1 >= 2 {
			pc.Evict(l - 1)
		}
		buildStart = time.Now()
		nextSpan := d.pool.Stats().Span("discover.next_level")
		nextSpan.Workers(d.pool.Size())
		next, err := d.nextLevel(ctx, level)
		if next != nil {
			nextSpan.Items(len(next))
		}
		nextSpan.End()
		if err != nil {
			return err
		}
		if d.levelBuilt != nil {
			d.levelBuilt(pc)
		}
		level = next
		buildTime = time.Since(buildStart)
	}
	return nil
}

// computeOFDs implements Algorithm 4 sequentially: intersect parent
// candidate sets, then verify each non-trivial candidate (X \ A) → A with
// A ∈ X ∩ C⁺(X). The context is checked between nodes (the same work-item
// granularity as the parallel path); on cancellation the level's
// already-verified OFDs stay in Σ and the wrapped error is returned.
func (d *discoverer) computeOFDs(ctx context.Context, level map[relation.AttrSet]*node, stat *LevelStat) error {
	nodes := make([]*node, 0, len(level))
	for _, nd := range level {
		nodes = append(nodes, nd)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].attrs < nodes[j].attrs })
	for _, nd := range nodes {
		if err := exec.Interrupted(ctx, "discovery verification"); err != nil {
			return err
		}
		x := nd.attrs
		for _, a := range x.Attrs() {
			candidate := core.OFD{LHS: x.Without(a), RHS: a}
			if d.opts.PruneAugmentation {
				if !nd.cplus.Has(a) {
					continue
				}
			} else if d.impliedByDiscovered(candidate) {
				// Ablation path: still verify (paying the cost Opt-2
				// avoids) but never emit a non-minimal OFD.
				stat.Candidates++
				d.result.CandidatesChecked++
				d.valid(candidate, nd)
				continue
			}
			stat.Candidates++
			d.result.CandidatesChecked++
			if d.valid(candidate, nd) {
				d.sigma = append(d.sigma, candidate)
				stat.Discovered++
				nd.cplus = nd.cplus.Without(a)
			}
		}
	}
	return nil
}

// impliedByDiscovered reports whether some already-discovered Y → A with
// Y ⊆ X makes the candidate non-minimal (Augmentation).
func (d *discoverer) impliedByDiscovered(c core.OFD) bool {
	for _, f := range d.sigma {
		if f.RHS == c.RHS && f.LHS.SubsetOf(c.LHS) {
			return true
		}
	}
	return false
}

// valid checks whether (X \ A) → A holds on the instance, applying Opt-3
// (keys) and Opt-4 (FD shortcut) when enabled. nd is the lattice node for X
// whose partition enables the FD error test.
func (d *discoverer) valid(c core.OFD, nd *node) bool {
	pc := d.verifier.Partitions()
	if d.opts.PruneKeys {
		// Opt-3: an empty stripped partition over the antecedent means the
		// antecedent is a superkey; the dependency holds vacuously.
		if pc.Get(c.LHS).IsKeyOver() {
			return true
		}
	}
	if d.opts.FDShortcut && d.kappa >= 1 && nd.part != nil {
		// Opt-4: X\A → A is a traditional FD iff e(X\A) = e(X); partition
		// errors are O(#classes) to compare and already computed.
		lhsPart := pc.Get(c.LHS)
		if lhsPart.Error() == nd.part.Error() {
			return true
		}
	}
	if d.opts.Mode == ModeInheritance {
		if d.kappa < 1 {
			return d.verifier.SupportInh(c, d.opts.Theta) >= d.kappa
		}
		return d.verifier.HoldsInh(c, d.opts.Theta)
	}
	if d.kappa < 1 {
		return d.verifier.HoldsApprox(c, d.kappa)
	}
	return d.verifier.HoldsSyn(c)
}
