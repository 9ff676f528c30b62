package discovery

import (
	"context"
	"fmt"
	"sort"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/fd"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
)

// Diff is one batch's change to the maintained minimal cover: the OFDs
// that entered and left it, each sorted in canonical core.Set order.
// Epoch is the maintainer's state version after the batch; an unchanged
// cover still advances the epoch, so consumers can correlate diffs with
// the monitor's per-batch reports.
type Diff struct {
	Epoch   uint64
	Added   core.Set
	Removed core.Set
}

// Empty reports whether the batch left the cover unchanged.
func (d Diff) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// rhsState is the maintained lattice state for one consequent attribute:
// the minimal cover antichain (full class trackers), the negative border
// — the maximal invalid antecedents, each carrying a violating-class
// certificate — and the minimal transversals of the cover the border is
// derived from (border node = space minus transversal). Both slices are
// kept in canonical SortSets order so every traversal is deterministic.
type rhsState struct {
	rhs    int
	cover  []*coverTracker
	border []*witnessTracker
	trans  []relation.AttrSet
}

func (rs *rhsState) coverSets() []relation.AttrSet {
	out := make([]relation.AttrSet, len(rs.cover))
	for i, ct := range rs.cover {
		out[i] = ct.d.LHS
	}
	return out
}

// Maintainer keeps the complete minimal synonym-OFD cover of a mutating
// relation live: it consumes the same cell-update batches and row appends
// as core.Monitor and emits a per-batch Diff of the cover, re-verifying
// only lattice nodes a batch could have flipped instead of re-running
// discovery. The incremental argument has two halves, both resting on the
// upward closure of exact synonym-OFD validity in the antecedent lattice:
//
//   - Demotions (valid → invalid) can only strike minimal valid nodes
//     first, and the maintainer holds full equivalence-class state for
//     exactly those — the cover elements — so a batch detects them in
//     O(touched rows) per tracker.
//   - Promotions (invalid → valid) must lift some maximal invalid node —
//     the negative border — and each border node carries a pinned
//     violating class whose certificate a promoting batch provably
//     breaks, so the (rare) full rescans are confined to border nodes
//     whose certificate broke.
//
// Every flip re-opens a bounded repair region (repairer) rather than the
// lattice: BFS up from demotions through the invalidated region, descent
// down from promotions through the newly valid one, both answering most
// nodes from the old cover plus the batch's touched-column set.
//
// Batches are atomic: a cancelled batch rolls the relation and every
// tracker back to the pre-batch state and leaves the cover untouched.
// The cover is byte-identical to a fresh Discover over the final instance
// for every worker count and batch partitioning.
//
// The maintainer supports the configuration the incremental argument is
// sound for: exact synonym OFDs over the full lattice (MinSupport 0 or 1,
// ModeSynonym, MaxLevel 0). NewMaintainer rejects anything else —
// approximate support breaks upward closure, and a depth cap makes the
// border ill-defined.
type Maintainer struct {
	workers int
	stats   *exec.Stats

	// sub is the live substrate both tracker maintenance and repair
	// verification run on (the pipeline's shared one, or a standalone
	// maintainer's own). It applies every batch and append and keeps its
	// cache consistent with them, so the cache is reused across batches
	// instead of being rebuilt per batch.
	sub *core.Substrate

	all   relation.AttrSet
	rhs   []*rhsState
	flat  []batchTracker // all trackers, for batch fan-out
	epoch uint64

	scans int64 // cumulative full-candidate verifications
	skips int64 // cumulative oracle-answered nodes (not persisted)
	// refines counts the subset of scans answered by root refinement —
	// climb nodes decided from the demoted seed's tracked unsatisfied
	// classes instead of a partition walk; walks counts the rest, one
	// Π*_X walk each (neither is persisted).
	refines int64
	walks   int64

	// needHydrate marks a snapshot-restored maintainer whose cover-tracker
	// key indexes are still in frozen array form; the first mutating
	// operation hydrates them (Cover and Epoch never consult them).
	needHydrate bool
}

// hydrate materializes every cover tracker's LHS-key map from its frozen
// snapshot form — called once, by the first batch or append after a
// restore (the only operations that consult the maps).
func (mt *Maintainer) hydrate() {
	span := mt.stats.Span("maintain.hydrate")
	w := exec.Workers(mt.workers)
	span.Workers(w)
	defer span.End()
	_ = exec.For(context.Background(), len(mt.flat), w, func(_, i int) {
		if ct, ok := mt.flat[i].(*coverTracker); ok {
			ct.hydrate()
		}
	})
	mt.needHydrate = false
}

// NewMaintainer builds a maintainer over sub, running a fresh discovery
// for the initial cover. A cancelled build returns a nil maintainer and an
// error satisfying errors.Is(err, ctx.Err()).
func NewMaintainer(ctx context.Context, sub *core.Substrate, opts Options) (*Maintainer, error) {
	if err := CheckMaintainerOptions(opts); err != nil {
		return nil, err
	}
	rel := sub.Relation()
	res, err := DiscoverContext(ctx, rel, sub.Verifier().Ontology(), opts)
	if err != nil {
		return nil, err
	}
	mt := &Maintainer{
		sub:     sub,
		workers: opts.Workers,
		stats:   opts.Stats,
		all:     rel.Schema().All(),
		rhs:     make([]*rhsState, rel.NumCols()),
	}
	w := exec.Workers(opts.Workers)
	span := mt.stats.Span("maintain.build")
	span.Workers(w)
	defer span.End()
	for c := 0; c < rel.NumCols(); c++ {
		mt.rhs[c] = &rhsState{rhs: c}
	}
	cover := res.OFDs
	// Full class trackers for every cover element, built in parallel (each
	// tracker is self-contained) against the substrate's verifier — cover
	// and border antecedents overlap heavily, so cached subset products
	// compound across the whole build and stay warm for the first batch's
	// repair pass.
	trackers := make([]*coverTracker, len(cover))
	err = exec.For(ctx, len(cover), w, func(_, i int) {
		trackers[i] = newCoverTrackerParts(mt.sub.Verifier(), cover[i])
	})
	if err != nil {
		return nil, err
	}
	span.Items(len(cover))
	for i, d := range cover {
		mt.rhs[d.RHS].cover = append(mt.rhs[d.RHS].cover, trackers[i])
	}
	for _, rs := range mt.rhs {
		sortCoverTrackers(rs.cover)
		rs.trans = fd.MinimalHittingSets(lhsSets(rs.cover))
		if err := mt.buildBorder(ctx, rs, nil); err != nil {
			return nil, err
		}
		span.Items(len(rs.border))
	}
	mt.rebuildFlat()
	return mt, nil
}

// CheckMaintainerOptions rejects configurations the incremental argument
// is not sound for (see the Maintainer doc comment). NewMaintainer runs
// it first; callers that build a substrate for the maintainer run it
// before that build, so a rejected configuration costs nothing.
func CheckMaintainerOptions(opts Options) error {
	if opts.Mode != ModeSynonym {
		return fmt.Errorf("discovery: maintainer supports synonym OFDs only")
	}
	if opts.MinSupport != 0 && opts.MinSupport != 1 {
		return fmt.Errorf("discovery: maintainer requires exact OFDs (MinSupport 0 or 1), got %v", opts.MinSupport)
	}
	if opts.MaxLevel != 0 {
		return fmt.Errorf("discovery: maintainer requires an uncapped lattice (MaxLevel 0), got %d", opts.MaxLevel)
	}
	return nil
}

// sortCoverTrackers orders trackers canonically (length, then bit
// pattern — the SortSets order).
func sortCoverTrackers(cover []*coverTracker) {
	sort.Slice(cover, func(i, j int) bool {
		a, b := cover[i].d.LHS, cover[j].d.LHS
		if la, lb := a.Len(), b.Len(); la != lb {
			return la < lb
		}
		return a < b
	})
}

func lhsSets(cover []*coverTracker) []relation.AttrSet {
	out := make([]relation.AttrSet, len(cover))
	for i, ct := range cover {
		out[i] = ct.d.LHS
	}
	return out
}

// buildBorder materializes rs.border from rs.trans: one witness tracker
// per maximal invalid node, reusing entries from keep (the previous
// border, keyed by antecedent) and scanning the rest in parallel. Every
// border node is invalid by construction — each transversal hits every
// cover element, so its complement contains none — and the defensive
// check turns a violated invariant into a panic rather than silent
// cover corruption.
func (mt *Maintainer) buildBorder(ctx context.Context, rs *rhsState, keep map[relation.AttrSet]*witnessTracker) error {
	space := mt.all.Without(rs.rhs)
	rs.border = make([]*witnessTracker, len(rs.trans))
	var scanIdx []int
	for i, tr := range rs.trans {
		w := space.Minus(tr)
		if wt := keep[w]; wt != nil {
			rs.border[i] = wt
		} else {
			scanIdx = append(scanIdx, i)
		}
	}
	err := exec.For(ctx, len(scanIdx), exec.Workers(mt.workers), func(_, k int) {
		i := scanIdx[k]
		d := core.OFD{LHS: space.Minus(rs.trans[i]), RHS: rs.rhs}
		res := witnessScanParts(mt.sub.Verifier(), d, nil)
		if res.valid {
			panic(fmt.Sprintf("discovery: border node %v is valid; cover for attribute %d is not a cover",
				d.LHS.Format(mt.sub.Relation().Schema()), rs.rhs))
		}
		rs.border[i] = newWitnessTracker(d, res.witKey, res.witSize, res.witVals)
	})
	return err
}

// rebuildFlat regenerates the batch fan-out list over all trackers.
func (mt *Maintainer) rebuildFlat() {
	mt.flat = mt.flat[:0]
	for _, rs := range mt.rhs {
		for _, ct := range rs.cover {
			mt.flat = append(mt.flat, ct)
		}
		for _, wt := range rs.border {
			mt.flat = append(mt.flat, wt)
		}
	}
}

// Cover returns the maintained minimal cover in canonical core.Set order.
// The returned set is a fresh copy.
func (mt *Maintainer) Cover() core.Set {
	var out core.Set
	for _, rs := range mt.rhs {
		for _, ct := range rs.cover {
			out = append(out, ct.d)
		}
	}
	out.Sort()
	return out
}

// Epoch returns the number of successfully applied batches and appends.
func (mt *Maintainer) Epoch() uint64 { return mt.epoch }

// NumRows returns the maintained relation's current row count.
func (mt *Maintainer) NumRows() int { return mt.sub.Relation().NumRows() }

// Relation returns the maintained relation.
func (mt *Maintainer) Relation() *relation.Relation { return mt.sub.Relation() }

// Ontology returns the maintainer's ontology.
func (mt *Maintainer) Ontology() *ontology.Ontology { return mt.sub.Verifier().Ontology() }

// Scans returns the cumulative number of full candidate verifications the
// maintainer has performed since construction (the work a fresh discovery
// would redo per node; the oracle-answered remainder is reported as
// Skipped on the maintain.verify stage).
func (mt *Maintainer) Scans() int64 { return mt.scans }

// Skips returns the cumulative number of repair nodes the validity oracle
// answered without verification since construction. scans/(scans+skips)
// is the fraction of re-opened lattice nodes that actually paid a
// partition walk. Unlike Scans, the counter is telemetry only and is not
// persisted in snapshots.
func (mt *Maintainer) Skips() int64 { return mt.skips }

// Refines returns the cumulative number of scans (already counted in
// Scans) that root refinement answered from tracked class state — BFS
// climb nodes above a demoted cover element whose verdict came from
// splitting the element's unsatisfied classes rather than from a
// partition walk. Telemetry only; not persisted in snapshots.
func (mt *Maintainer) Refines() int64 { return mt.refines }

// KernelStats returns the cumulative number of Π*_X partition walks
// repair verification performed (scans not answered by root refinement)
// as both values: every walk answers exactly one (LHS, RHS) probe, so the
// probes-per-traversal fan-in is 1. Telemetry only; not persisted.
func (mt *Maintainer) KernelStats() (traversals, probes int64) {
	return mt.walks, mt.walks
}

// Substrate returns the live substrate the maintainer runs on.
func (mt *Maintainer) Substrate() *core.Substrate { return mt.sub }

// ApplyBatch applies a batch of cell updates and returns the cover diff.
// See ApplyBatchContext.
func (mt *Maintainer) ApplyBatch(updates []core.CellUpdate) (Diff, error) {
	return mt.ApplyBatchContext(context.Background(), updates)
}

// ApplyBatchContext applies a batch of cell updates, re-verifies exactly
// the lattice region the batch dirtied, and returns the cover diff. The
// substrate validates, folds and applies the batch (core.Substrate.Apply:
// same-cell writes dedup to the last value, writes of a cell's current
// value are dropped); an all-no-op batch returns an empty diff at the
// current epoch without touching any state. Updates may touch any
// attribute. The batch is atomic: a cancelled context undoes the writes
// (core.Substrate.Undo), rolls all tracker state back to the pre-batch
// snapshot and returns an error satisfying errors.Is(err, ctx.Err())
// with a zero Diff.
func (mt *Maintainer) ApplyBatchContext(ctx context.Context, updates []core.CellUpdate) (Diff, error) {
	if mt.needHydrate {
		mt.hydrate()
	}
	dirtySpan := mt.stats.Span("maintain.dirty")
	dirtySpan.Items(len(updates))
	w := exec.Workers(mt.workers)
	dirtySpan.Workers(w)
	if err := mt.sub.Apply(updates); err != nil {
		dirtySpan.End()
		return Diff{}, err
	}
	writes := mt.sub.Writes()
	if len(writes) == 0 {
		dirtySpan.End()
		return Diff{Epoch: mt.epoch}, nil
	}
	rel, v := mt.sub.Relation(), mt.sub.Verifier()
	// Fold the write log into every tracker the batch can affect. The
	// fan-out is uncancellable — it is O(touched rows) per tracker and
	// leaving it half-applied would require per-tracker undo logs;
	// cancellation lands on the boundaries around it instead.
	touched := core.Touched(writes)
	active := mt.activeTrackers(touched)
	_ = exec.For(context.Background(), len(active), w, func(_, i int) {
		active[i].applyWrites(rel, v, writes)
	})
	dirtySpan.End()
	rollback := func() {
		// Undo the writes, then replay the inverted log through the same
		// trackers: applyWrites transitions are symmetric, so tracker
		// state is restored exactly. Staged witness certificates are
		// discarded.
		inv := make([]cellWrite, len(writes))
		for k, wr := range writes {
			inv[k] = cellWrite{Row: wr.Row, Col: wr.Col, Old: wr.New, New: wr.Old}
		}
		mt.sub.Undo()
		_ = exec.For(context.Background(), len(active), w, func(_, i int) {
			active[i].applyWrites(rel, v, inv)
		})
		mt.clearPendings()
	}
	if err := exec.Interrupted(ctx, "maintain.dirty"); err != nil {
		rollback()
		return Diff{}, err
	}
	return mt.verifyAndCommit(ctx, touched, false, rollback)
}

// LastWrites returns the effective (deduplicated, no-op-free) cell writes
// of the most recent batch, sorted by (row, col) — the substrate's write
// log, which the pipeline's monitor absorbs. Valid until the next batch;
// empty after appends, an all-no-op batch or a cancelled batch.
func (mt *Maintainer) LastWrites() []core.CellWrite { return mt.sub.Writes() }

// activeTrackers filters the fan-out list to trackers whose scope a
// batch's touched columns intersect.
func (mt *Maintainer) activeTrackers(touched relation.AttrSet) []batchTracker {
	active := make([]batchTracker, 0, len(mt.flat))
	for _, tr := range mt.flat {
		if !tr.scope().Intersect(touched).IsEmpty() {
			active = append(active, tr)
		}
	}
	return active
}

func (mt *Maintainer) clearPendings() {
	for _, rs := range mt.rhs {
		for _, wt := range rs.border {
			wt.clearPending()
		}
	}
}

// AppendRow appends one tuple (strings in schema order) and returns the
// cover diff. See AppendRows.
func (mt *Maintainer) AppendRow(row []string) (Diff, error) {
	return mt.AppendRows([][]string{row})
}

// AppendRows appends a batch of tuples (strings in schema order) and
// returns the combined cover diff. Appends only demote — growing an
// equivalence class grows its distinct consequent set, and sense
// satisfiability is antitone in it — so the repair runs without border
// rescans or promotion descents, and the whole operation is
// uncancellable-fast (no rollback surface). Batching matters: the repair
// pass — and any cover-tracker and border rebuilds it causes — runs once
// for the whole batch instead of once per row, and the resulting cover
// is identical to appending the rows one at a time.
func (mt *Maintainer) AppendRows(rows [][]string) (Diff, error) {
	rel, v := mt.sub.Relation(), mt.sub.Verifier()
	t0 := int32(rel.NumRows())
	if err := mt.sub.Append(rows); err != nil {
		return Diff{}, err
	}
	if len(rows) == 0 {
		return Diff{Epoch: mt.epoch}, nil
	}
	if mt.needHydrate {
		mt.hydrate()
	}
	dirtySpan := mt.stats.Span("maintain.dirty")
	dirtySpan.Items(len(rows))
	w := exec.Workers(mt.workers)
	dirtySpan.Workers(w)
	end := int32(rel.NumRows())
	_ = exec.For(context.Background(), len(mt.flat), w, func(_, i int) {
		for t := t0; t < end; t++ {
			mt.flat[i].appendRow(rel, v, t)
		}
	})
	dirtySpan.End()
	return mt.verifyAndCommit(context.Background(), relation.EmptySet, true, nil)
}

// stagedRHS is one consequent's repair outcome awaiting commit.
type stagedRHS struct {
	rhs       int
	newCover  []relation.AttrSet
	triggered []*witnessTracker
}

// verifyAndCommit reads the flip signals off the trackers, repairs every
// affected consequent's cover (cancellable; all effects staged), then
// commits: installs new covers and certificates, rebuilds changed
// borders, advances the epoch, and assembles the diff. rollback, when
// non-nil, undoes the already-applied batch on cancellation.
func (mt *Maintainer) verifyAndCommit(ctx context.Context, touched relation.AttrSet, hasAppend bool, rollback func()) (Diff, error) {
	verifySpan := mt.stats.Span("maintain.verify")
	verifySpan.Workers(exec.Workers(mt.workers))
	// Repair verification runs on the substrate's verifier over the
	// post-batch instance. Its cache stays valid across batches because
	// the substrate evicted the rewritten sets and row stamps age out
	// pre-append entries, so only the touched slice of the partition
	// lattice is repaid per batch.
	type flip struct {
		rs         *rhsState
		survivors  []relation.AttrSet
		demoted    []relation.AttrSet
		demotedTrk []*coverTracker
		triggered  []*witnessTracker
	}
	var flips []flip
	for _, rs := range mt.rhs {
		var survivors, demoted []relation.AttrSet
		var demotedTrk []*coverTracker
		for _, ct := range rs.cover {
			if ct.valid() {
				survivors = append(survivors, ct.d.LHS)
			} else {
				demoted = append(demoted, ct.d.LHS)
				demotedTrk = append(demotedTrk, ct)
			}
		}
		var triggered []*witnessTracker
		for _, wt := range rs.border {
			if !wt.violating(mt.sub.Verifier()) {
				triggered = append(triggered, wt)
			}
		}
		if len(demoted) == 0 && len(triggered) == 0 {
			continue
		}
		flips = append(flips, flip{rs: rs, survivors: survivors, demoted: demoted, demotedTrk: demotedTrk, triggered: triggered})
	}
	// Cross-consequent parallel repair: flipped consequents fan out over
	// the workers (repairers are disjoint in state — private memo, private
	// border nodes, private ProductBuffers — and the partition cache is
	// sharded), and each repairer verifies its own unknown nodes in
	// parallel as well. Outcomes are staged per flip slot and committed in
	// canonical RHS order below; since every verdict is a pure function of
	// the instance, the result is byte-identical for any worker count.
	w := exec.Workers(mt.workers)
	staged := make([]stagedRHS, len(flips))
	errs := make([]error, len(flips))
	scansPer := make([]int, len(flips))
	skipsPer := make([]int, len(flips))
	refinedPer := make([]int, len(flips))
	bufs := make([][]relation.ProductBuffer, w) // one row per outer worker
	err := exec.For(ctx, len(flips), w, func(ow, i int) {
		if bufs[ow] == nil {
			bufs[ow] = make([]relation.ProductBuffer, w)
		}
		f := flips[i]
		r := &repairer{
			mt:         mt,
			bufs:       bufs[ow],
			rhs:        f.rs.rhs,
			space:      mt.all.Without(f.rs.rhs),
			oldCover:   lhsSets(f.rs.cover),
			survivors:  f.survivors,
			demoted:    f.demoted,
			demotedTrk: f.demotedTrk,
			touched:    touched,
			rhsTouched: touched.Has(f.rs.rhs),
			hasAppend:  hasAppend,
			memo:       make(map[relation.AttrSet]bool),
		}
		newCover, err := r.run(ctx, f.triggered)
		scansPer[i], skipsPer[i], refinedPer[i], errs[i] = r.scans, r.skips, r.refined, err
		staged[i] = stagedRHS{rhs: f.rs.rhs, newCover: newCover, triggered: f.triggered}
	})
	for i := range flips {
		if err == nil {
			err = errs[i]
		}
	}
	scans, skips, refined := 0, 0, 0
	for i := range flips {
		scans += scansPer[i]
		skips += skipsPer[i]
		refined += refinedPer[i]
	}
	verifySpan.Items(scans)
	verifySpan.Skipped(skips)
	verifySpan.End()
	if err != nil {
		if rollback != nil {
			rollback()
		}
		return Diff{}, err
	}
	mt.scans += int64(scans)
	mt.skips += int64(skips)
	mt.refines += int64(refined)
	mt.walks += int64(scans - refined)
	// Commit — uncancellable: the batch's writes are already in, every
	// remaining effect is deterministic bookkeeping.
	commitSpan := mt.stats.Span("maintain.commit")
	defer commitSpan.End()
	var diff Diff
	for _, st := range staged {
		rs := mt.rhs[st.rhs]
		for _, wt := range st.triggered {
			wt.commitPending()
		}
		oldSets := lhsSets(rs.cover)
		added, removed := diffSetSlices(oldSets, st.newCover)
		if len(added) == 0 && len(removed) == 0 {
			continue // certificates refreshed, cover intact
		}
		for _, x := range added {
			diff.Added = append(diff.Added, core.OFD{LHS: x, RHS: st.rhs})
		}
		for _, x := range removed {
			diff.Removed = append(diff.Removed, core.OFD{LHS: x, RHS: st.rhs})
		}
		// New cover tracker list: surviving elements keep their state, new
		// elements are built fresh in parallel.
		prev := make(map[relation.AttrSet]*coverTracker, len(rs.cover))
		for _, ct := range rs.cover {
			prev[ct.d.LHS] = ct
		}
		next := make([]*coverTracker, len(st.newCover))
		var buildIdx []int
		for i, x := range st.newCover {
			if ct := prev[x]; ct != nil {
				next[i] = ct
			} else {
				buildIdx = append(buildIdx, i)
			}
		}
		newCover := st.newCover
		_ = exec.For(context.Background(), len(buildIdx), exec.Workers(mt.workers), func(_, k int) {
			i := buildIdx[k]
			next[i] = newCoverTrackerParts(mt.sub.Verifier(), core.OFD{LHS: newCover[i], RHS: st.rhs})
		})
		rs.cover = next
		// Transversals: pure additions extend incrementally (one Berge
		// step per new element); any removal falls back to a fresh
		// computation over the small antichain.
		if len(removed) == 0 {
			for _, x := range added {
				rs.trans = fd.ExtendTransversals(rs.trans, x)
			}
			relation.SortSets(rs.trans)
		} else {
			rs.trans = fd.MinimalHittingSets(st.newCover)
		}
		keep := make(map[relation.AttrSet]*witnessTracker, len(rs.border))
		for _, wt := range rs.border {
			keep[wt.d.LHS] = wt
		}
		// Uncancellable by the same commit contract; exec.For on a
		// background context cannot fail, and buildBorder's only error
		// path is context cancellation.
		_ = mt.buildBorder(context.Background(), rs, keep)
		commitSpan.Items(len(added) + len(removed))
	}
	if len(diff.Added) > 0 || len(diff.Removed) > 0 {
		mt.rebuildFlat()
	}
	mt.epoch++
	diff.Epoch = mt.epoch
	diff.Added.Sort()
	diff.Removed.Sort()
	return diff, nil
}

// diffSetSlices compares two canonical-order antichains and returns the
// sets only in b (added) and only in a (removed).
func diffSetSlices(a, b []relation.AttrSet) (added, removed []relation.AttrSet) {
	inA := make(map[relation.AttrSet]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	inB := make(map[relation.AttrSet]bool, len(b))
	for _, x := range b {
		inB[x] = true
		if !inA[x] {
			added = append(added, x)
		}
	}
	for _, x := range a {
		if !inB[x] {
			removed = append(removed, x)
		}
	}
	return added, removed
}
