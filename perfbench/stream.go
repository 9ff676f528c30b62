package main

import (
	"fmt"
	"math/rand"

	"github.com/fastofd/fastofd"
)

// batch is one closed-loop request of a live workload: cell updates go
// through one Pipeline.ApplyBatch call and appended tuples through one
// Pipeline.AppendRows call.
type batch struct {
	updates []fastofd.CellUpdate
	appends [][]string
}

// streamShape sizes a generated update stream.
type streamShape struct {
	batches int
	// updates is the number of cell writes per batch; every odd-numbered
	// write restores the oldest outstanding corruption to its original
	// value, the rest corrupt a random row's focus column.
	updates int
	// appends is the number of appended clones of base rows per batch;
	// one in appendDirtyEvery of them carries a corrupted focus value.
	appends          int
	appendDirtyEvery int
}

// genStream builds a seeded stream over base shaped like a live ingestion
// job rather than uniform noise: each batch's fresh errors concentrate on
// 2-3 focus columns, half of its writes repair the oldest outstanding
// corruptions, one write in 50 is a novel out-of-ontology value, and
// appended tuples are clones of base rows. Corruptions demote
// dependencies over the focus consequents and repairs promote them back,
// so the stream drives the cover both ways while each batch's dirty
// lattice region stays a slice of the whole. Because repairs interleave
// with the corruptions first-in-first-out, most corruptions are repaired
// within their own batch and deduplicate away; with an even updates count
// all of them are. Row ids stay within the base relation, so the stream
// replays identically on any copy of it.
func genStream(base *fastofd.Relation, shape streamShape, seed int64) []batch {
	rng := rand.New(rand.NewSource(seed))
	cols := base.NumCols()
	pools := make([][]string, cols)
	for c := range pools {
		pools[c] = base.Project(c)
	}
	n := base.NumRows()
	type corruption struct {
		row, col int
		orig     string
	}
	var outstanding []corruption
	out := make([]batch, shape.batches)
	for b := range out {
		focus := rng.Perm(cols)[:2+rng.Intn(2)]
		updates := make([]fastofd.CellUpdate, 0, shape.updates)
		for k := 0; k < shape.updates; k++ {
			if k%2 == 1 && len(outstanding) > 0 {
				fix := outstanding[0]
				outstanding = outstanding[1:]
				updates = append(updates, fastofd.CellUpdate{Row: fix.row, Col: fix.col, Value: fix.orig})
				continue
			}
			col := focus[rng.Intn(len(focus))]
			row := rng.Intn(n)
			val := pools[col][rng.Intn(len(pools[col]))]
			if rng.Intn(50) == 0 {
				val = fmt.Sprintf("novel-%d-%d", b, k)
			}
			outstanding = append(outstanding, corruption{row, col, base.String(row, col)})
			updates = append(updates, fastofd.CellUpdate{Row: row, Col: col, Value: val})
		}
		appends := make([][]string, 0, shape.appends)
		for k := 0; k < shape.appends; k++ {
			row := base.Row(rng.Intn(n))
			if rng.Intn(shape.appendDirtyEvery) == 0 {
				col := focus[rng.Intn(len(focus))]
				row[col] = pools[col][rng.Intn(len(pools[col]))]
			}
			appends = append(appends, row)
		}
		out[b] = batch{updates: updates, appends: appends}
	}
	return out
}
