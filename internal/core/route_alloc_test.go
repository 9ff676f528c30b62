package core_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

// routeSigma is the planted Σ of a generated Clinical instance plus one
// dependency per column with that column alone as antecedent, so the
// antecedents range from a handful of keys to one key per row (the
// NCTID key column).
func routeSigma(ds *gen.Dataset) core.Set {
	sigma := append(core.Set(nil), ds.Sigma...)
	nc := ds.Rel.NumCols()
	for c := 0; c < nc; c++ {
		sigma = append(sigma, core.OFD{LHS: relation.Single(c), RHS: (c + 1) % nc})
	}
	return sigma
}

// TestRouteIndexAllocsFlat pins the key build of a dependency's index
// (the build NewMonitor and Register run): every key of a dependency is a
// substring of one blob and the map is made at its key count, so
// quadrupling the rows adds far fewer allocations than rows. What still
// grows is the map's own storage (Go's maps allocate one table per 1,024
// slots); a string per key would add one allocation per added key.
func TestRouteIndexAllocsFlat(t *testing.T) {
	const small, large = 2000, 8000
	for _, workers := range []int{1, 2, 4} {
		allocs := map[int][]float64{}
		var sigma core.Set
		for _, n := range []int{small, large} {
			ds := gen.Clinical(n, 7)
			sigma = routeSigma(ds)
			sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.FullOnt, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMonitor(context.Background(), sub, sigma, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sigma {
				allocs[n] = append(allocs[n], testing.AllocsPerRun(5, func() { m.BuildIndex(i) }))
			}
		}
		for i, d := range sigma {
			if grew := allocs[large][i] - allocs[small][i]; grew > (large-small)/64 {
				t.Errorf("workers=%d %v: index build allocations %v at %d rows → %v at %d rows", workers, d, allocs[small][i], small, allocs[large][i], large)
			}
		}
	}
}

// TestAntecedentWriteAllocsFlat is the regression gate against a per-row
// rebuild on antecedent writes: a one-cell write to any column and its
// revert move the row between keys in place, so quadrupling the rows adds
// fewer than one allocation per 64 added rows. What may still grow is
// the explained record of a violating class the move dirties (its value
// lists and maps grow with the class) and the dependency snapshot's
// record lists; rebuilding a dependency's index allocates per class.
func TestAntecedentWriteAllocsFlat(t *testing.T) {
	const small, large = 2000, 8000
	for _, workers := range []int{1, 2, 4} {
		allocs := map[int][]float64{}
		var nc int
		for _, n := range []int{small, large} {
			ds := gen.Clinical(n, 7)
			nc = ds.Rel.NumCols()
			sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.FullOnt, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMonitor(context.Background(), sub, routeSigma(ds), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			const r = 17
			for c := 0; c < nc; c++ {
				was, now := ds.Rel.String(r, c), ds.Rel.String(r+1, c)
				if was == now {
					now = "a value no row holds"
				}
				allocs[n] = append(allocs[n], testing.AllocsPerRun(5, func() {
					if err := m.ApplyBatch([]core.CellUpdate{{Row: r, Col: c, Value: now}}); err != nil {
						t.Fatal(err)
					}
					if err := m.ApplyBatch([]core.CellUpdate{{Row: r, Col: c, Value: was}}); err != nil {
						t.Fatal(err)
					}
				}))
			}
		}
		for c := 0; c < nc; c++ {
			if grew := allocs[large][c] - allocs[small][c]; grew > (large-small)/64 {
				t.Errorf("workers=%d column %d: a write and its revert allocate %v at %d rows → %v at %d rows", workers, c, allocs[small][c], small, allocs[large][c], large)
			}
		}
	}
}

// BenchmarkMonitorAntecedentBatch times a 30-write antecedent batch and
// its revert on a warm monitor over the discovered cover of a generated
// 12.5K-row Clinical instance: every write copies another row's value
// into a column some cover element's antecedent holds, so each moves its
// row between keys under every dependency over that column. Profile it
// with
//
//	go test -run '^$' -bench MonitorAntecedentBatch -cpuprofile cpu.out ./internal/core
func BenchmarkMonitorAntecedentBatch(b *testing.B) {
	ds := gen.Clinical(12500, 1)
	rel := ds.Rel
	cover := discovery.Discover(rel, ds.FullOnt, discovery.DefaultOptions()).OFDs
	sub, err := core.NewSubstrate(context.Background(), rel, ds.FullOnt, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMonitor(context.Background(), sub, cover, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	var lhs relation.AttrSet
	for _, d := range cover {
		lhs = lhs.Union(d.LHS)
	}
	cols := lhs.Attrs()
	rng := rand.New(rand.NewSource(1))
	var batch, revert []core.CellUpdate
	for len(batch) < 30 {
		r, c := rng.Intn(rel.NumRows()), cols[rng.Intn(len(cols))]
		was, now := rel.String(r, c), rel.String(rng.Intn(rel.NumRows()), c)
		if was == now {
			continue
		}
		batch = append(batch, core.CellUpdate{Row: r, Col: c, Value: now})
		revert = append(revert, core.CellUpdate{Row: r, Col: c, Value: was})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		if err := m.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		if err := m.ApplyBatch(revert); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorReroute times the monitor's index build of every
// dependency of a discovered cover — the build Register runs for a
// dependency it adds — on a warm partition cache over a generated
// Clinical instance. Profile it with
//
//	go test -run '^$' -bench MonitorReroute -cpuprofile cpu.out ./internal/core
func BenchmarkMonitorReroute(b *testing.B) {
	ds := gen.Clinical(12500, 1)
	cover := discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions()).OFDs
	sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.FullOnt, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMonitor(context.Background(), sub, cover, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range cover {
			m.BuildIndex(i)
		}
	}
}
