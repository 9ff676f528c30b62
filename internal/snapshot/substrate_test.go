package snapshot

import (
	"testing"

	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

func checkBudget(t *testing.T, state string, pc *relation.PartitionCache) {
	t.Helper()
	if got := pc.Budget(); got != relation.DefaultCacheBudget {
		t.Errorf("%s: cache budget %d, want %d", state, got, relation.DefaultCacheBudget)
	}
}

// TestSubstrateOwnership pins the one substrate every engine runs on: the
// caches of a built standalone monitor and maintainer, and of a pipeline
// both built and reopened, carry relation.DefaultCacheBudget.
func TestSubstrateOwnership(t *testing.T) {
	ds := gen.Clinical(200, 5)
	m, err := newTestMonitor(ds, 2, 2)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	checkBudget(t, "built monitor", m.Substrate().Cache())

	mt, err := newTestMaintainer(ds)
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	checkBudget(t, "built maintainer", mt.Substrate().Cache())

	p, batch, _ := newTestPipeline(t, 3)
	if _, err := p.ApplyBatch(t.Context(), batch()); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	checkBudget(t, "built pipeline", p.Cache())
	got := saveOpen(t, &State{Pipeline: p}, Options{Workers: 2})
	checkBudget(t, "reopened pipeline", got.Pipeline.Cache())
}
