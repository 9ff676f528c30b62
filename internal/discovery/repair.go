package discovery

import (
	"context"
	"fmt"
	"sort"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/fd"
	"github.com/fastofd/fastofd/internal/relation"
)

// repairer computes one consequent attribute's post-batch minimal cover
// from the flip signals: a joint upward BFS over the invalidated region
// above demoted cover elements, and, inside each promoted border node, an
// upward climb from the lowest nodes that can be valid to its minimal
// valid subsets. Both searches consult a memoized post-state validity
// oracle that answers most nodes without verification — this is the
// incremental C⁺(X) repair: an invalidation re-opens exactly the supersets
// the BFS reaches (the nodes Opt-2 had pruned under the demoted element),
// and a validation re-prunes by the final antichain step plus the
// ⊇-survivor short-circuit.
//
// Correctness rests on the monotonicity of exact synonym OFDs (refining
// an equivalence partition preserves per-class satisfaction, so validity
// is upward-closed per consequent):
//
//   - pre-batch validity of ANY node is decidable from the old cover
//     alone (valid ⇔ ⊇ some cover element), and a node whose scope
//     X ∪ {A} the batch did not touch keeps its pre-batch validity —
//     that is the oracle's free answer;
//   - every minimal valid node of the post state is either a survivor, or
//     reachable by the BFS from a demoted seed (all its subsets down to
//     the seed are invalid), or a subset of a maximal invalid node W
//     whose certificate necessarily broke (W ⊇ a now-valid node is
//     itself valid, and validity requires its pinned violating class to
//     have become satisfied); it then lies under no border node that is
//     still invalid, so it contains a minimal transversal of
//     {W \ B : B still invalid}, and the climb from those transversals
//     finds it;
//   - therefore the minimal antichain of survivors ∪ BFS boundary ∪
//     climb results is exactly the post-state minimal cover.
type repairer struct {
	mt         *Maintainer
	bufs       []relation.ProductBuffer // one per verification worker, private to this repairer
	rhs        int
	space      relation.AttrSet   // all attributes minus rhs
	oldCover   []relation.AttrSet // pre-batch cover antichain (canonical order)
	border     []relation.AttrSet // pre-batch negative border (maximal invalid nodes)
	survivors  []relation.AttrSet // old cover elements still valid
	demoted    []relation.AttrSet // old cover elements now invalid
	demotedTrk []*coverTracker    // trackers aligned with demoted; nil falls back to partition walks
	touched    relation.AttrSet   // columns the batch updated
	rhsTouched bool               // touched.Has(rhs), hoisted off the per-node oracle path
	hasAppend  bool               // batch appended rows (demote-only signal)
	memo       map[relation.AttrSet]bool
	scans      int // one-shot verifications performed
	skips      int // nodes answered by the oracle without verification
	refined    int // of scans, climb nodes answered by root refinement
}

// oracleAnswer classifies a node without scanning: (valid, known). The
// free rules: a superset of a surviving cover element is valid (upward
// closure from a post-state fact); a pre-valid node is valid if the batch
// cannot have touched it (a node above only demoted elements always tests
// dirty, because the demoted element's scope is contained in its own); a
// pre-invalid node stays invalid unless an update touched its scope —
// appends never promote, because joining a class only grows its
// distinct-value set.
func (r *repairer) oracleAnswer(x relation.AttrSet) (bool, bool) {
	if val, ok := r.memo[x]; ok {
		return val, true
	}
	if hasSubsetIn(x, r.survivors) {
		return true, true
	}
	preValid := hasSubsetIn(x, r.oldCover)
	updDirty := r.rhsTouched || !r.touched.Intersect(x).IsEmpty()
	if preValid {
		if !r.hasAppend && !updDirty {
			return true, true
		}
		return false, false
	}
	if !updDirty {
		return false, true
	}
	return false, false
}

// resolve verifies the given nodes (deduplicated, sorted by the caller)
// in parallel and memoizes the results. Verification goes through the
// maintainer's partition-backed verifier (post state) — stripped-partition
// products answer a node in microseconds where a raw candidate scan pays
// O(N·|X|), and the cache shares subset partitions across the whole repair
// pass (every consequent, every level, and across batches). Cancellation
// leaves the memo untouched; the caller aborts the repair.
func (r *repairer) resolve(ctx context.Context, nodes []relation.AttrSet) error {
	verdicts := make([]bool, len(nodes))
	err := exec.For(ctx, len(nodes), len(r.bufs), func(w, i int) {
		verdicts[i] = r.mt.sub.Verifier().HoldsSynOnePass(core.OFD{LHS: nodes[i], RHS: r.rhs}, &r.bufs[w])
	})
	if err != nil {
		return err
	}
	for i, x := range nodes {
		r.memo[x] = verdicts[i]
	}
	r.scans += len(nodes)
	return nil
}

// classify resolves a level's worth of candidate nodes: oracle first,
// then one parallel scan round for the unknowns. It returns a lookup for
// the level. nodes must be deduplicated; order is canonicalized here.
func (r *repairer) classify(ctx context.Context, nodes []relation.AttrSet) (map[relation.AttrSet]bool, error) {
	relation.SortSets(nodes)
	return r.classifySorted(ctx, nodes, nil, nil, nil)
}

// classifySorted is classify's core over canonically ordered nodes, with
// an optional refinement channel: when roots is non-nil, roots[i] indexes
// the demoted seed node i climbed from and parents[i] is the frontier
// node that expanded it, and a node whose seed has a rootRefiner is
// answered locally from tracked class state — the oracle still goes
// first (its answers are free), and only refiner-less nodes fall through
// to a partition walk.
func (r *repairer) classifySorted(ctx context.Context, nodes []relation.AttrSet, roots []int, parents []relation.AttrSet, refiners []*rootRefiner) (map[relation.AttrSet]bool, error) {
	out := make(map[relation.AttrSet]bool, len(nodes))
	var unknown []relation.AttrSet
	for i, x := range nodes {
		if val, known := r.oracleAnswer(x); known {
			out[x] = val
			r.skips++
		} else if roots != nil && refiners[roots[i]] != nil {
			val := refiners[roots[i]].holds(x, parents[i])
			r.memo[x] = val
			out[x] = val
			r.scans++
			r.refined++
		} else {
			unknown = append(unknown, x)
		}
	}
	if err := r.resolve(ctx, unknown); err != nil {
		return nil, err
	}
	for _, x := range unknown {
		out[x] = r.memo[x]
	}
	return out, nil
}

// bfsUp explores the invalid region above the demoted seeds level by
// level, returning every valid node found on its upper boundary. By
// upward closure the boundary contains all minimal valid supersets of the
// seeds; non-minimal boundary nodes are dropped by the final antichain.
//
// Every frontier node carries the demoted seed it grew from: a climb node
// Y necessarily contains its seed X₀, so when X₀'s cover tracker is
// available Y verifies through a rootRefiner — splitting X₀'s few
// unsatisfied classes by Y \ X₀ — instead of paying a partition product
// over the whole relation. A node reachable from several seeds is claimed
// by whichever expansion reaches it first in canonical frontier order; any
// containing seed yields the same verdict, so the choice affects cost
// only, never the result.
func (r *repairer) bfsUp(ctx context.Context) ([]relation.AttrSet, error) {
	if len(r.demoted) == 0 {
		return nil, nil
	}
	refiners := make([]*rootRefiner, len(r.demoted))
	for i, ct := range r.demotedTrk {
		if ct != nil {
			refiners[i] = newRootRefiner(r.mt.sub.Verifier(), ct)
		}
	}
	frontier := append([]relation.AttrSet(nil), r.demoted...)
	froots := make([]int, len(frontier))
	for i := range froots {
		froots[i] = i
	}
	visited := make(map[relation.AttrSet]bool, 4*len(frontier))
	for _, x := range frontier {
		visited[x] = true
	}
	var boundary []relation.AttrSet
	for len(frontier) > 0 {
		var children []relation.AttrSet
		var croots []int
		var cparents []relation.AttrSet
		for fi, x := range frontier {
			for _, b := range r.space.Minus(x).Attrs() {
				c := x.With(b)
				if !visited[c] {
					visited[c] = true
					children = append(children, c)
					croots = append(croots, froots[fi])
					cparents = append(cparents, x)
				}
			}
		}
		sortSetsWithRoots(children, croots, cparents)
		verdicts, err := r.classifySorted(ctx, children, croots, cparents, refiners)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		froots = froots[:0]
		for i, c := range children {
			if verdicts[c] {
				boundary = append(boundary, c)
			} else {
				frontier = append(frontier, c)
				froots = append(froots, croots[i])
			}
		}
	}
	return boundary, nil
}

// sortSetsWithRoots applies relation.SortSets's canonical order (length,
// then bit pattern) to sets while keeping roots and parents aligned.
func sortSetsWithRoots(sets []relation.AttrSet, roots []int, parents []relation.AttrSet) {
	sort.Sort(&setsRootsSort{sets, roots, parents})
}

type setsRootsSort struct {
	sets    []relation.AttrSet
	roots   []int
	parents []relation.AttrSet
}

func (s *setsRootsSort) Len() int { return len(s.sets) }
func (s *setsRootsSort) Less(i, j int) bool {
	if li, lj := s.sets[i].Len(), s.sets[j].Len(); li != lj {
		return li < lj
	}
	return s.sets[i] < s.sets[j]
}
func (s *setsRootsSort) Swap(i, j int) {
	s.sets[i], s.sets[j] = s.sets[j], s.sets[i]
	s.roots[i], s.roots[j] = s.roots[j], s.roots[i]
	s.parents[i], s.parents[j] = s.parents[j], s.parents[i]
}

// descend returns the minimal valid subsets of the promoted node w (w
// itself must already be known valid). stillInvalid holds the negative
// border nodes that stay invalid after the batch; every subset of one is
// invalid, so a valid X ⊆ w meets w \ B for each of them — X is a
// transversal of {w \ B}, and every minimal valid subset of w contains a
// minimal transversal. The climb starts at those transversals and goes up
// one cardinality level at a time inside w: valid nodes are recorded,
// invalid ones grow by one attribute of w, and nodes above a recorded valid
// node are never verified. Every node strictly between a transversal and
// the minimal valid node above it is invalid, so the climb reaches every
// minimum without walking the valid region above them. With no
// still-invalid border node the only minimal transversal is ∅.
//
// The climb pays for the invalid nodes between the transversals and the
// minima, where a top-down walk pays for the valid nodes between the
// minima and w. It wins while the minima sit low in w; when w is its own
// only minimum and no border node stays invalid it verifies all
// 2^|w| − 1 proper subsets of w against a top-down walk's |w| children
// (TestDescendWalkCountMinimaNearW).
func (r *repairer) descend(ctx context.Context, w relation.AttrSet, stillInvalid []relation.AttrSet) ([]relation.AttrSet, error) {
	// Floor check first: if even the empty antecedent holds (a near-constant
	// consequent), ∅ is the unique minimal valid node.
	floor, err := r.classify(ctx, []relation.AttrSet{relation.EmptySet})
	if err != nil {
		return nil, err
	}
	if floor[relation.EmptySet] {
		return []relation.AttrSet{relation.EmptySet}, nil
	}
	edges := make([]relation.AttrSet, len(stillInvalid))
	for i, b := range stillInvalid {
		edges[i] = w.Minus(b)
	}
	levels := make([][]relation.AttrSet, w.Len()+1)
	visited := make(map[relation.AttrSet]bool)
	for _, t := range fd.MinimalHittingSets(edges) {
		visited[t] = true
		levels[t.Len()] = append(levels[t.Len()], t)
	}
	var minimal []relation.AttrSet
	for l := range levels {
		var pending []relation.AttrSet
		for _, x := range levels[l] {
			if !hasSubsetIn(x, minimal) {
				pending = append(pending, x)
			}
		}
		verdicts, err := r.classify(ctx, pending)
		if err != nil {
			return nil, err
		}
		for _, x := range pending {
			if verdicts[x] {
				minimal = append(minimal, x)
				continue
			}
			for _, a := range w.Minus(x).Attrs() {
				if c := x.With(a); !visited[c] {
					visited[c] = true
					levels[l+1] = append(levels[l+1], c)
				}
			}
		}
	}
	return minimal, nil
}

// hasSubsetIn reports whether some element of sets is a subset of x.
func hasSubsetIn(x relation.AttrSet, sets []relation.AttrSet) bool {
	for _, s := range sets {
		if s.SubsetOf(x) {
			return true
		}
	}
	return false
}

// run performs the full repair for one consequent: re-probe triggered
// border nodes (staging fresh certificates on the still-invalid ones,
// climbing inside the promoted ones), BFS up from the demotions, and
// reduce. It returns the post-state minimal cover in canonical order.
func (r *repairer) run(ctx context.Context, triggered []*witnessTracker) ([]relation.AttrSet, error) {
	for _, s := range r.survivors {
		r.memo[s] = true
	}
	for _, d := range r.demoted {
		r.memo[d] = false
	}
	var candidates []relation.AttrSet
	candidates = append(candidates, r.survivors...)
	// Wipe-out short-circuit: with no survivors, one probe of the full
	// antecedent space decides everything — if even that node fails, upward
	// closure empties the cover, and the BFS from the demotions would
	// otherwise enumerate the entire invalid upper lattice to conclude it.
	// Triggered border certificates need no restaging here: the commit
	// rebuilds the border as the single all-attributes node with a fresh
	// certificate.
	if len(r.survivors) == 0 && len(r.demoted) > 0 {
		top, err := r.classify(ctx, []relation.AttrSet{r.space})
		if err != nil {
			return nil, err
		}
		if !top[r.space] {
			return nil, nil
		}
	}
	// Cheap partition-backed validity probe over every triggered node; only
	// the still-invalid ones pay a full scan, which is what produces their
	// next certificate anyway.
	probeNodes := make([]relation.AttrSet, len(triggered))
	for i, wt := range triggered {
		probeNodes[i] = wt.d.LHS
	}
	if err := r.resolve(ctx, probeNodes); err != nil {
		return nil, err
	}
	var rescan []*witnessTracker
	for _, wt := range triggered {
		if !r.memo[wt.d.LHS] {
			rescan = append(rescan, wt)
		}
	}
	wits := make([]scanResult, len(rescan))
	err := exec.For(ctx, len(rescan), len(r.bufs), func(w, k int) {
		wits[k] = witnessScanParts(r.mt.sub.Verifier(), rescan[k].d, &r.bufs[w])
	})
	if err != nil {
		return nil, err
	}
	r.scans += len(rescan)
	for k, wt := range rescan {
		if wits[k].valid {
			panic(fmt.Sprintf("discovery: partition and scan verification disagree on %v", wt.d))
		}
		// Still invalid through some other class: pin that class as the
		// next certificate (committed only if the batch lands).
		wt.stagePending(wits[k].witKey, wits[k].witSize, wits[k].witVals)
	}
	// The border nodes still invalid after the batch: every untriggered one
	// (its pinned class still violates) and every triggered one the probe
	// found invalid. Only probed border nodes are in the memo, and an
	// unprobed one is untriggered, so "not memoized valid" selects both.
	var stillInvalid []relation.AttrSet
	for _, b := range r.border {
		if !r.memo[b] {
			stillInvalid = append(stillInvalid, b)
		}
	}
	for _, wt := range triggered {
		if !r.memo[wt.d.LHS] {
			continue
		}
		mins, err := r.descend(ctx, wt.d.LHS, stillInvalid)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, mins...)
	}
	boundary, err := r.bfsUp(ctx)
	if err != nil {
		return nil, err
	}
	candidates = append(candidates, boundary...)
	return minimalAntichain(candidates), nil
}

// minimalAntichain returns the minimal elements of the given sets,
// deduplicated, in canonical order.
func minimalAntichain(sets []relation.AttrSet) []relation.AttrSet {
	relation.SortSets(sets)
	out := sets[:0]
	for _, s := range sets {
		if !hasSubsetIn(s, out) {
			out = append(out, s)
		}
	}
	return out
}
