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
// snapshot captures the full incremental state — the cover trackers'
// consequent multisets and satisfaction flags, plus every negative-border
// node's pinned violating class — on top of the class tables the
// substrate section already holds, so reopening skips both the discovery
// lattice walk and the per-cover-element tracker construction
// NewMaintainer pays. The transversal list is not stored: border node i
// is the complement of transversal i by construction, so decode derives
// one from the other and the pair can never disagree.
//
// Only the body is written here: the pipeline section writes the shared
// substrate (partition cache, verifier tables and class tables) once, up
// front, and the monitor and maintainer bodies after it.

// AppendMaintainerBody encodes the maintainer's engine state without its
// substrate, which the pipeline section writes once for both engine
// bodies: per consequent its cover trackers (antecedent, multisets,
// satisfied flags) and border nodes (antecedent, witness key, class size
// and multiset).
func AppendMaintainerBody(w *wire.Writer, mt *Maintainer) {
	w.Uvarint(mt.epoch)
	w.Uvarint(uint64(mt.scans))
	w.Int(len(mt.rhs))
	for _, rs := range mt.rhs {
		w.Int(len(rs.cover))
		for _, ct := range rs.cover {
			w.Uvarint(uint64(ct.d.LHS))
			live.AppendCounts(w, ct.counts)
			sat := make([]uint8, len(ct.sat))
			for ci, s := range ct.sat {
				if s {
					sat[ci] = 1
				}
			}
			w.Uint8s(sat)
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
// Each cover tracker holds the restored table over its antecedent, which
// must exist, and every antecedent must lie in the schema.
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
			lhs := relation.AttrSet(r.Uvarint())
			if r.Err() != nil {
				return nil, r.Err()
			}
			if !lhs.SubsetOf(mt.all.Without(c)) {
				return nil, fmt.Errorf("discovery: snapshot tracker antecedent %#x outside the schema less its consequent", uint64(lhs))
			}
			if sub.Table(lhs) == nil {
				return nil, fmt.Errorf("discovery: snapshot holds no table for tracker antecedent %#x", uint64(lhs))
			}
			tabs, _ := sub.Hold(context.Background(), []relation.AttrSet{lhs}, false)
			tab := tabs[0]
			ct := &coverTracker{d: core.OFD{LHS: lhs, RHS: c}, tab: tab}
			counts, err := live.DecodeCounts(r, tab.Sizes, rel.Dict(c).Size())
			if err != nil {
				return nil, err
			}
			ct.counts = counts
			satBytes := r.Uint8s()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if len(satBytes) != len(tab.Sizes) {
				return nil, fmt.Errorf("discovery: snapshot tracker class state inconsistent")
			}
			ct.sat = make([]bool, len(satBytes))
			for ci, b := range satBytes {
				ct.sat[ci] = b != 0
				if b == 0 {
					ct.unsat++
				}
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
	mt.rebuildFlat()
	return mt, nil
}
