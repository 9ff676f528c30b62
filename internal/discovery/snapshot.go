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
// snapshot captures the full incremental state — each antecedent table's
// per-row class assignments and class sizes, the cover trackers'
// consequent multisets and satisfaction flags, plus every negative-border
// node's pinned violating class — so reopening skips both the discovery
// lattice walk and the per-cover-element tracker construction
// NewMaintainer pays. The
// transversal list is not stored: border node i is the complement of
// transversal i by construction, so decode derives one from the other and
// the pair can never disagree.
//
// Only the body is written here: the pipeline section writes the shared
// substrate (partition cache and verifier tables) once, up front, and the
// monitor and maintainer bodies after it.
//
// Table key maps are not saved: each is derivable from the table's
// row→class array and the relation. A table rebuilds its map when a batch
// first needs it (live.Table.Prepare), exactly like the monitor's, so a
// restored maintainer that only answers Cover() never builds a map.

// AppendMaintainerBody encodes the maintainer's engine state without its
// substrate, which the pipeline section writes once for both engine
// bodies: the tables in canonical order of antecedent, each its
// antecedent, row→class array and class sizes, then per consequent its
// cover trackers (antecedent, multisets, satisfied flags) and border
// nodes. No key map is written, so save → open → save round-trips
// without ever building one.
func AppendMaintainerBody(w *wire.Writer, mt *Maintainer) {
	w.Uvarint(mt.epoch)
	w.Uvarint(uint64(mt.scans))
	w.Int(len(mt.rhs))
	tables := mt.sortedTables()
	w.Int(len(tables))
	for _, tt := range tables {
		w.Uvarint(uint64(tt.lhs))
		w.Int32s(tt.tab.RowClass)
		w.Int32s(tt.tab.Sizes)
	}
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
			appendVCList(w, wt.vals)
		}
	}
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
// The tables' key maps stay unbuilt until a batch needs them
// (live.Table.Prepare), so decode fails closed on every row→class entry
// that rebuild would index by, and on every antecedent outside the
// schema. Every tracker's antecedent must have a table, and every table
// must serve a tracker.
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
		tables:  make(map[relation.AttrSet]*trackerTable),
		epoch:   epoch,
		scans:   int64(scans),
	}
	nRows := rel.NumRows()
	nTables := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	for k := 0; k < nTables; k++ {
		x := relation.AttrSet(r.Uvarint())
		rowClass := r.Int32s()
		sizes := r.Int32s()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if !x.SubsetOf(mt.all) {
			return nil, fmt.Errorf("discovery: snapshot table antecedent %#x outside the %d-column schema", uint64(x), nCols)
		}
		if mt.tables[x] != nil {
			return nil, fmt.Errorf("discovery: snapshot holds two tables over one antecedent")
		}
		if len(rowClass) != nRows {
			return nil, fmt.Errorf("discovery: snapshot table sized for %d rows, relation has %d", len(rowClass), nRows)
		}
		if err := checkRowClass(rowClass, sizes); err != nil {
			return nil, err
		}
		mt.tables[x] = &trackerTable{lhs: x, colSet: x, tab: &live.Table{Cols: x.Attrs(), RowClass: rowClass, Sizes: sizes}}
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
			tt := mt.tables[lhs]
			if tt == nil {
				return nil, fmt.Errorf("discovery: snapshot holds no table for tracker antecedent %#x", uint64(lhs))
			}
			ct := &coverTracker{d: core.OFD{LHS: lhs, RHS: c}}
			counts, err := live.DecodeCounts(r, tt.tab.Sizes, rel.Dict(c).Size())
			if err != nil {
				return nil, err
			}
			ct.counts = counts
			satBytes := r.Uint8s()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if len(satBytes) != len(tt.tab.Sizes) {
				return nil, fmt.Errorf("discovery: snapshot tracker class state inconsistent")
			}
			ct.sat = make([]bool, len(satBytes))
			for ci, b := range satBytes {
				ct.sat[ci] = b != 0
				if b == 0 {
					ct.unsat++
				}
			}
			tt.attach(ct)
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
			if !lhs.SubsetOf(space) {
				return nil, fmt.Errorf("discovery: snapshot border antecedent %#x outside the schema less its consequent", uint64(lhs))
			}
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
	for _, tt := range mt.tables {
		if len(tt.cover) == 0 {
			return nil, fmt.Errorf("discovery: snapshot table serves no tracker")
		}
	}
	mt.rebuildFlat()
	return mt, nil
}

// checkRowClass fails closed on a restored tracker's row→class table in
// one sequential pass: every entry is -1 or a class id below
// len(sizes), and every class holds exactly sizes[ci] rows.
func checkRowClass(rowClass, sizes []int32) error {
	counts := make([]int32, len(sizes))
	for t, ci := range rowClass {
		if ci < -1 || int(ci) >= len(sizes) {
			return fmt.Errorf("discovery: snapshot tracker puts row %d in class %d of %d", t, ci, len(sizes))
		}
		if ci >= 0 {
			counts[ci]++
		}
	}
	for ci, n := range counts {
		if n != sizes[ci] {
			return fmt.Errorf("discovery: snapshot tracker class %d holds %d rows, its size is %d", ci, n, sizes[ci])
		}
	}
	return nil
}
