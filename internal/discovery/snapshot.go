package discovery

import (
	"context"
	"fmt"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// This file is the maintainer's side of the snapshot format. A maintainer
// snapshot captures the incremental state — the cover elements and every
// negative-border node's pinned violating class — on top of the class
// tables and dependency states the substrate section already holds, so
// reopening skips both the discovery lattice walk and the per-cover-
// element tracker construction NewMaintainer pays. The transversal list
// is not stored: border node i is the complement of transversal i by
// construction, so decode derives one from the other and the pair can
// never disagree.
//
// Only the body is written here: the pipeline section writes the shared
// substrate (partition cache, verifier tables, class tables and
// dependency states) once, up front, and the monitor and maintainer
// bodies after it.

// AppendMaintainerBody encodes the maintainer's engine state without its
// substrate, which the pipeline section writes once for both engine
// bodies: per consequent its cover elements' antecedents and its border
// nodes (antecedent, witness key, class size and multiset).
func AppendMaintainerBody(w *wire.Writer, mt *Maintainer) {
	w.Uvarint(mt.epoch)
	w.Uvarint(uint64(mt.scans))
	w.Int(len(mt.rhs))
	for _, rs := range mt.rhs {
		w.Int(len(rs.cover))
		for _, ct := range rs.cover {
			w.Uvarint(uint64(ct.d.LHS))
		}
		w.Int(len(rs.border))
		for _, wt := range rs.border {
			w.Uvarint(uint64(wt.d.LHS))
			w.Blob([]byte(wt.key))
			w.Int(int(wt.size))
			live.AppendCounts(w, [][]live.ValCount{wt.vals})
		}
	}
}

// DecodeMaintainerBody rebuilds a maintainer over an already-decoded
// substrate (core.DecodeSubstrate) from a body written by
// AppendMaintainerBody — the pipeline decodes one shared substrate and
// hands it to both engine body decoders. No discovery, tracker
// construction, or candidate scan runs: the restored state is
// byte-for-byte the saved trackers, so Cover() and all subsequent diffs
// are identical to the saved maintainer's. workers and stats configure
// the restored maintainer exactly as the construction-time options would.
// Each cover element holds the restored state of it, which must exist and
// must have no violating class, and every antecedent must lie in the
// schema.
func DecodeMaintainerBody(r *wire.Reader, sub *core.Substrate, workers int, stats *exec.Stats) (*Maintainer, error) {
	rel := sub.Relation()
	span := stats.Span("maintain.restore")
	defer span.End()
	epoch := r.Uvarint()
	scans := r.Uvarint()
	nCols := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nCols != rel.NumCols() {
		return nil, fmt.Errorf("discovery: snapshot maintainer has %d columns, relation has %d", nCols, rel.NumCols())
	}
	mt := &Maintainer{
		sub:     sub,
		workers: workers,
		stats:   stats,
		all:     rel.Schema().All(),
		rhs:     make([]*rhsState, nCols),
		epoch:   epoch,
		scans:   int64(scans),
	}
	for c := 0; c < nCols; c++ {
		rs := &rhsState{rhs: c}
		nCover := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		for k := 0; k < nCover; k++ {
			d := core.OFD{LHS: relation.AttrSet(r.Uvarint()), RHS: c}
			if r.Err() != nil {
				return nil, r.Err()
			}
			// A state exists only over a restored table, whose antecedent
			// lies in the schema.
			if d.Trivial() || sub.State(d) == nil {
				return nil, fmt.Errorf("discovery: snapshot cover element %v is trivial or has no state", d)
			}
			sts, _ := sub.Hold(context.Background(), []core.OFD{d}, false)
			ct := &coverTracker{d: d, st: sts[0]}
			if !ct.valid() {
				return nil, fmt.Errorf("discovery: snapshot cover element %v has %d violating classes", d, ct.st.Violating())
			}
			rs.cover = append(rs.cover, ct)
		}
		nBorder := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		space := mt.all.Without(c)
		for k := 0; k < nBorder; k++ {
			lhs := relation.AttrSet(r.Uvarint())
			key := r.Blob()
			size := int32(r.Int())
			vals, err := live.DecodeCounts(r, []int32{size}, rel.Dict(c).Size())
			if err != nil {
				return nil, err
			}
			d := core.OFD{LHS: lhs, RHS: c}
			if !lhs.SubsetOf(space) {
				return nil, fmt.Errorf("discovery: snapshot border antecedent %#x outside the schema less its consequent", uint64(lhs))
			}
			if len(key) != 4*lhs.Len() {
				return nil, fmt.Errorf("discovery: snapshot witness key of %d bytes for %d antecedent columns", len(key), lhs.Len())
			}
			rs.border = append(rs.border, newWitnessTracker(d, string(key), size, vals[0]))
			// Border node i is the complement of transversal i by
			// construction; deriving trans keeps the pair consistent and
			// preserves the canonical order the border was saved in.
			rs.trans = append(rs.trans, space.Minus(lhs))
		}
		mt.rhs[c] = rs
		span.Items(nCover + nBorder)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return mt, nil
}
