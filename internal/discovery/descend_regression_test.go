package discovery

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
)

type replayOp struct {
	appendRow []string
	update    core.CellUpdate
}

func replayStream(ds *gen.Dataset, nBatches, batchSize, appendsPerBatch int, seed int64) [][]replayOp {
	rng := rand.New(rand.NewSource(seed))
	cols := ds.Rel.NumCols()
	pools := make([][]string, cols)
	for c := 0; c < cols; c++ {
		pools[c] = ds.Rel.Project(c)
	}
	baseRows := ds.Rel.NumRows()
	type corruption struct {
		row, col int
		orig     string
	}
	var outstanding []corruption
	batches := make([][]replayOp, nBatches)
	for b := range batches {
		focus := rng.Perm(cols)[:2+rng.Intn(2)]
		ops := make([]replayOp, 0, batchSize+appendsPerBatch)
		for k := 0; k < batchSize; k++ {
			if k%2 == 1 && len(outstanding) > 0 {
				fix := outstanding[0]
				outstanding = outstanding[1:]
				ops = append(ops, replayOp{update: core.CellUpdate{Row: fix.row, Col: fix.col, Value: fix.orig}})
				continue
			}
			col := focus[rng.Intn(len(focus))]
			row := rng.Intn(baseRows)
			val := pools[col][rng.Intn(len(pools[col]))]
			if rng.Intn(50) == 0 {
				val = fmt.Sprintf("bench-novel-%d-%d", b, k)
			}
			outstanding = append(outstanding, corruption{row, col, ds.Rel.String(row, col)})
			ops = append(ops, replayOp{update: core.CellUpdate{Row: row, Col: col, Value: val}})
		}
		for k := 0; k < appendsPerBatch; k++ {
			row := ds.Rel.Row(rng.Intn(baseRows))
			if rng.Intn(5) == 0 {
				col := focus[rng.Intn(len(focus))]
				row[col] = pools[col][rng.Intn(len(pools[col]))]
			}
			ops = append(ops, replayOp{appendRow: row})
		}
		batches[b] = ops
	}
	return batches
}

// TestDescendFrontierRegression replays a 25k-row clinical stream of
// corrupting and reverting batches with appends. A promotion repair that
// drops a valid minimum leaves a valid node on the rebuilt border, which
// trips the buildBorder soundness panic; the maintainer's own border check
// is the assertion, so no fresh rediscovery is needed. The stream's third
// batch is the one that once caught a descent losing minima.
func TestDescendFrontierRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("25k-row replay; skipped with -short")
	}
	n := 25000
	ds := gen.Clinical(n, 1)
	batchSize := n / 1000
	appends := batchSize / 20
	batches := replayStream(ds, 4, batchSize, appends, 7)
	mt, err := newMaintainer(ds.Rel.Clone(), ds.FullOnt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for b, ops := range batches {
		var updates []core.CellUpdate
		for _, op := range ops {
			if op.appendRow != nil {
				if _, err := mt.AppendRow(op.appendRow); err != nil {
					t.Fatalf("batch %d append: %v", b, err)
				}
				continue
			}
			updates = append(updates, op.update)
		}
		if _, err := mt.ApplyBatch(updates); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
}
