package fastofd_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/gen"
)

// TestLiveHeapBounded is the soak backstop for long-lived live state: a
// stream that changes nothing leaves the heap where it started. It runs
// corrupt/revert batch pairs through a pipeline that follows the cover of
// a generated Clinical instance. Each pair rewrites 20 cells on two
// random columns to values other rows hold and then restores them, so
// every pair ends on the original instance and cover, while the cover,
// and the tables under it, grow and shrink in between. The live heap
// after GC (HeapAlloc) less the partition cache's bytes must end within
// 10 % of where it stood after the build: state that a replaced tracker,
// a dropped table or an emptied class leaves reachable grows with the
// pairs.
func TestLiveHeapBounded(t *testing.T) {
	const rows, pairs = 2000, 100
	ds := gen.Clinical(rows, 5)
	ctx := context.Background()
	p, err := fastofd.NewPipeline(ctx, ds.Rel, ds.FullOnt, fastofd.PipelineOptions{FollowCover: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel := p.Relation()
	cover := p.Cover()
	rng := rand.New(rand.NewSource(3))
	pair := func() {
		var corrupt, revert []fastofd.CellUpdate
		cols := rng.Perm(rel.NumCols())[:2]
		for _, r := range rng.Perm(rel.NumRows())[:10] {
			for _, c := range cols {
				corrupt = append(corrupt, fastofd.CellUpdate{Row: r, Col: c, Value: rel.String(rng.Intn(rel.NumRows()), c)})
				revert = append(revert, fastofd.CellUpdate{Row: r, Col: c, Value: rel.String(r, c)})
			}
		}
		for _, batch := range [][]fastofd.CellUpdate{corrupt, revert} {
			if _, err := p.ApplyBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc) - p.CacheStats().Bytes
	}
	start := live()
	for k := 0; k < pairs; k++ {
		pair()
	}
	end := live()
	t.Logf("live heap less cache bytes: %.2f MB after the build, %.2f MB after %d pairs", float64(start)/(1<<20), float64(end)/(1<<20), pairs)
	if float64(end) > 1.1*float64(start) {
		t.Fatalf("live heap less cache bytes grew from %.2f to %.2f MB over %d corrupt/revert pairs", float64(start)/(1<<20), float64(end)/(1<<20), pairs)
	}
	if got := p.Cover(); len(got) != len(cover) {
		t.Fatalf("the pairs left a cover of %d elements, started with %d", len(got), len(cover))
	}
}
