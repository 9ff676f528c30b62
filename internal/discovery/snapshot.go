package discovery

import (
	"fmt"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// This file is the maintainer's side of the snapshot format. A maintainer
// snapshot captures the full incremental state — the cover trackers'
// per-row class assignments, class sizes, consequent multisets, and
// satisfaction flags, plus every negative-border node's pinned violating
// class — so reopening skips both the discovery lattice walk and the
// per-cover-element tracker construction NewMaintainer pays. The
// transversal list is not stored: border node i is the complement of
// transversal i by construction, so decode derives one from the other and
// the pair can never disagree.
//
// Only the body is written here: the pipeline section writes the shared
// substrate (partition cache and verifier tables) once, up front, and the
// monitor and maintainer bodies after it.
//
// Cover-tracker LHS-key indexes restore in frozen key/value array form
// and hydrate into hash maps only when the maintainer mutates again,
// exactly like the monitor's shard indexes — a restored maintainer that
// only answers Cover() never builds a map.

// AppendMaintainerBody encodes the maintainer's engine state without its
// substrate, which the pipeline section writes once for both engine
// bodies. Restored-and-not-yet-hydrated tracker indexes re-encode
// from their frozen form directly, so save → open → save round-trips
// without ever building the maps.
func AppendMaintainerBody(w *wire.Writer, mt *Maintainer) {
	w.Uvarint(mt.epoch)
	w.Uvarint(uint64(mt.scans))
	w.Int(len(mt.rhs))
	for _, rs := range mt.rhs {
		w.Int(len(rs.cover))
		for _, ct := range rs.cover {
			w.Uvarint(uint64(ct.d.LHS))
			ix := ct.ix
			if ix.NeedsHydrate() {
				w.Int(len(ix.FrozenVals))
				w.Int(ix.Width())
				w.Blob(ix.FrozenKeys)
				w.Int32s(ix.FrozenVals)
			} else {
				core.AppendLHSIndex(w, ix.Keys, ix.Width())
			}
			w.Int32s(ct.rowClass)
			w.Int32s(ix.Sizes)
			appendVCTable(w, ix.Counts)
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
			appendVCList(w, wt.vals)
		}
	}
}

// appendVCTable encodes per-class consequent multisets as three bulk
// arrays — pairs-per-class, then the flattened values and multiplicities
// (the monitor's counts encoding).
func appendVCTable(w *wire.Writer, vals [][]live.ValCount) {
	lens := make([]int32, len(vals))
	total := 0
	for ci, pairs := range vals {
		lens[ci] = int32(len(pairs))
		total += len(pairs)
	}
	flatV := make([]int32, 0, total)
	flatN := make([]int32, 0, total)
	for _, pairs := range vals {
		for _, p := range pairs {
			flatV = append(flatV, int32(p.Val))
			flatN = append(flatN, p.N)
		}
	}
	w.Int32s(lens)
	w.Int32s(flatV)
	w.Int32s(flatN)
}

// decodeVCTable is the inverse of appendVCTable. The per-class slices are
// freshly allocated (live.Bump mutates and appends), the bulk reads
// zero-copy.
func decodeVCTable(r *wire.Reader) [][]live.ValCount {
	lens := r.Int32s()
	flatV := r.Int32s()
	flatN := r.Int32s()
	if len(flatV) != len(flatN) {
		return nil
	}
	out := make([][]live.ValCount, len(lens))
	pos := 0
	for ci, l := range lens {
		n := int(l)
		if n < 0 || pos+n > len(flatV) {
			return nil
		}
		pairs := make([]live.ValCount, n)
		for k := 0; k < n; k++ {
			pairs[k] = live.ValCount{Val: relation.Value(flatV[pos+k]), N: flatN[pos+k]}
		}
		out[ci] = pairs
		pos += n
	}
	return out
}

// appendVCList encodes one class's multiset as parallel value and
// multiplicity arrays.
func appendVCList(w *wire.Writer, pairs []live.ValCount) {
	flatV := make([]int32, len(pairs))
	flatN := make([]int32, len(pairs))
	for k, p := range pairs {
		flatV[k] = int32(p.Val)
		flatN[k] = p.N
	}
	w.Int32s(flatV)
	w.Int32s(flatN)
}

func decodeVCList(r *wire.Reader) ([]live.ValCount, error) {
	flatV := r.Int32s()
	flatN := r.Int32s()
	if len(flatV) != len(flatN) {
		return nil, fmt.Errorf("discovery: snapshot multiset arrays disagree (%d values, %d counts)", len(flatV), len(flatN))
	}
	pairs := make([]live.ValCount, len(flatV))
	for k := range flatV {
		pairs[k] = live.ValCount{Val: relation.Value(flatV[k]), N: flatN[k]}
	}
	return pairs, nil
}

// DecodeMaintainerBody rebuilds a maintainer over an already-decoded
// substrate (core.DecodeSubstrate) from a body written by
// AppendMaintainerBody — the pipeline decodes one shared substrate and
// hands it to both engine body decoders. No discovery, tracker
// construction, or candidate scan runs: the restored state is
// byte-for-byte the saved trackers, so Cover() and all subsequent diffs
// are identical to the saved maintainer's. workers and stats configure
// the restored maintainer exactly as the construction-time options would.
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
		sub:         sub,
		workers:     workers,
		stats:       stats,
		all:         rel.Schema().All(),
		rhs:         make([]*rhsState, nCols),
		epoch:       epoch,
		scans:       int64(scans),
		needHydrate: true,
	}
	nRows := rel.NumRows()
	for c := 0; c < nCols; c++ {
		rs := &rhsState{rhs: c}
		nCover := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		for k := 0; k < nCover; k++ {
			lhs := relation.AttrSet(r.Uvarint())
			d := core.OFD{LHS: lhs, RHS: c}
			ct := &coverTracker{
				d:      d,
				cols:   lhs.Attrs(),
				colSet: lhs.With(c),
				ix:     newTrackerIndex(d),
			}
			count := r.Int()
			width := r.Int()
			keys := r.Blob()
			vals := r.Int32s()
			ct.rowClass = r.Int32s()
			ct.ix.Sizes = r.Int32s()
			ct.ix.Counts = decodeVCTable(r)
			satBytes := r.Uint8s()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if width != ct.ix.Width() {
				return nil, fmt.Errorf("discovery: snapshot tracker key width %d for %d antecedent columns", width, len(ct.cols))
			}
			if len(vals) != count || len(keys) != count*width {
				return nil, fmt.Errorf("discovery: snapshot tracker index shape mismatch (count %d, width %d)", count, width)
			}
			if len(ct.rowClass) != nRows {
				return nil, fmt.Errorf("discovery: snapshot tracker sized for %d rows, relation has %d", len(ct.rowClass), nRows)
			}
			if ct.ix.Counts == nil || len(ct.ix.Counts) != len(ct.ix.Sizes) || len(satBytes) != len(ct.ix.Sizes) {
				return nil, fmt.Errorf("discovery: snapshot tracker class state inconsistent")
			}
			ct.ix.SetFrozen(keys, vals)
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
			size := r.Int()
			vals, err := decodeVCList(r)
			if err != nil {
				return nil, err
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
			d := core.OFD{LHS: lhs, RHS: c}
			if len(key) != 4*lhs.Len() {
				return nil, fmt.Errorf("discovery: snapshot witness key of %d bytes for %d antecedent columns", len(key), lhs.Len())
			}
			rs.border = append(rs.border, newWitnessTracker(d, string(key), int32(size), vals))
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
