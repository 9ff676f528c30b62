package snapshot

import (
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// wantRefs derives the overlay reference counts the ownership rule
// prescribes: the maintainer holds one per cover element and one per
// single column, and a pipeline adds one per monitored antecedent.
func wantRefs(cover, monitored core.Set, nCols int) map[relation.AttrSet]int {
	want := make(map[relation.AttrSet]int)
	for _, d := range cover {
		want[d.LHS]++
	}
	for _, d := range monitored {
		want[d.LHS]++
	}
	for c := 0; c < nCols; c++ {
		want[relation.EmptySet.With(c)]++
	}
	return want
}

func checkRefs(t *testing.T, state string, reg *live.Overlays, want map[relation.AttrSet]int) {
	t.Helper()
	for x, n := range want {
		if got := reg.Refs(x); got != n {
			t.Errorf("%s: Refs(%v) = %d, want %d", state, x, got, n)
		}
	}
}

func checkBudget(t *testing.T, state string, pc *relation.PartitionCache) {
	t.Helper()
	if got := pc.Budget(); got != relation.DefaultCacheBudget {
		t.Errorf("%s: cache budget %d, want %d", state, got, relation.DefaultCacheBudget)
	}
}

// TestSubstrateOwnership pins the one substrate every engine runs on: a
// built standalone monitor and maintainer, and a pipeline both built and
// reopened, hold exactly the overlay references the ownership rule
// prescribes, and their caches carry relation.DefaultCacheBudget.
func TestSubstrateOwnership(t *testing.T) {
	ds := gen.Clinical(200, 5)
	m, err := newTestMonitor(ds, 2, 2)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	monitored := make(map[relation.AttrSet]int)
	for _, d := range m.Sigma() {
		monitored[d.LHS]++
	}
	checkRefs(t, "built monitor", m.Substrate().Overlays(), monitored)
	checkBudget(t, "built monitor", m.Substrate().Cache())

	mt, err := newTestMaintainer(ds)
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	want := wantRefs(mt.Cover(), nil, ds.Rel.NumCols())
	checkRefs(t, "built maintainer", mt.Substrate().Overlays(), want)
	checkBudget(t, "built maintainer", mt.Substrate().Cache())

	p, batch, _ := newTestPipeline(t, 3)
	if _, err := p.ApplyBatch(t.Context(), batch()); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	want = wantRefs(p.Cover(), p.Monitor().Sigma(), p.Relation().NumCols())
	checkRefs(t, "built pipeline", p.Overlays(), want)
	checkBudget(t, "built pipeline", p.Cache())
	got := saveOpen(t, &State{Pipeline: p}, Options{Workers: 2})
	checkRefs(t, "reopened pipeline", got.Pipeline.Overlays(), want)
	checkBudget(t, "reopened pipeline", got.Pipeline.Cache())
}
