package core_test

import (
	"context"
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

// TestRouteIndexAllocsFlat pins routeIndex's key build: every key of a
// dependency is a substring of one blob and every shard map is made at
// its key count, so quadrupling the rows adds far fewer allocations than
// rows. What still grows is the maps' own storage (Go's maps allocate one
// table per 1,024 slots) and the per-shard owned-class lists; a string
// per key would add one allocation per added key.
func TestRouteIndexAllocsFlat(t *testing.T) {
	const small, large = 2000, 8000
	for _, shards := range []int{1, 4} {
		allocs := map[int][]float64{}
		var sigma core.Set
		for _, n := range []int{small, large} {
			ds := gen.Clinical(n, 7)
			sigma = routeSigma(ds)
			sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.FullOnt, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMonitor(context.Background(), sub, sigma, shards, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sigma {
				allocs[n] = append(allocs[n], testing.AllocsPerRun(5, func() { m.RouteIndex(i) }))
			}
		}
		for i, d := range sigma {
			if grew := allocs[large][i] - allocs[small][i]; grew > (large-small)/64 {
				t.Errorf("shards=%d %v: routeIndex allocations %v at %d rows → %v at %d rows", shards, d, allocs[small][i], small, allocs[large][i], large)
			}
		}
	}
}

// BenchmarkMonitorReroute times the monitor's wholesale re-route of every
// dependency of a discovered cover — the rebuild an antecedent write
// triggers — on a warm partition cache over a generated Clinical
// instance. Profile it with
//
//	go test -run '^$' -bench MonitorReroute -cpuprofile cpu.out ./internal/core
func BenchmarkMonitorReroute(b *testing.B) {
	ds := gen.Clinical(12500, 1)
	cover := discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions()).OFDs
	sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.FullOnt, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMonitor(context.Background(), sub, cover, 2, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range cover {
			m.RouteIndex(i)
		}
	}
}
