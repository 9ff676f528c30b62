package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/relation"
)

// TestSubstrateCacheConsistency is the shared-substrate invariant check:
// after every batch stage — updates, then appends — the shared cache
// serves a partition byte-identical to a fresh computation for EVERY
// attribute set in the lattice. Updates reach the cache by eviction of
// the touched sets, appends by the row stamp and InvalidateStale; a
// stale entry surviving either shows up here.
func TestSubstrateCacheConsistency(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 12; trial++ {
				rel, ont := randomInstance(rng)
				sigma := discovery.Discover(rel, ont, discovery.DefaultOptions()).OFDs
				if len(sigma) == 0 {
					continue
				}
				p, err := New(context.Background(), rel.Clone(), ont, Options{
					Sigma: sigma.Clone(), Workers: workers,
				})
				if err != nil {
					t.Fatalf("trial %d: New: %v", trial, err)
				}
				check := func(b int, stage string) {
					nc := p.Relation().NumCols()
					pc := p.Verifier().Partitions()
					for s := relation.AttrSet(1); s < relation.AttrSet(uint64(1)<<uint(nc)); s++ {
						got := pc.Get(s)
						want := relation.PartitionOf(p.Relation(), s).Strip()
						if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Offsets, want.Offsets) {
							t.Fatalf("trial %d batch %d %s: cache serves wrong partition for %v\n got: %v %v\nwant: %v %v\nrows: %v",
								trial, b, stage, s, got.Tuples, got.Offsets, want.Tuples, want.Offsets, p.Relation().Rows())
						}
					}
				}
				check(-1, "init")
				for b, op := range randomStream(rng, p.Relation(), 4, 6) {
					if _, err := p.ApplyBatch(context.Background(), op.updates); err != nil {
						t.Fatalf("trial %d batch %d: ApplyBatch: %v", trial, b, err)
					}
					check(b, "post-updates")
					if len(op.appends) > 0 {
						if _, err := p.AppendRows(op.appends); err != nil {
							t.Fatalf("trial %d batch %d: AppendRows: %v", trial, b, err)
						}
						check(b, "post-appends")
					}
				}
			}
		})
	}
}
