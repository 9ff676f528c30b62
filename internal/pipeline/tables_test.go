package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/relation"
)

// checkOneTablePerAntecedent asserts that both engines run on the
// substrate's tables and dependency states: every monitored dependency
// and every cover element reads the substrate's state of it, on the
// substrate's table over its antecedent, so a dependency both engines
// hold has one state they share and an antecedent both engines hold has
// one table; the substrate holds a state for exactly the dependencies of
// Σ ∪ cover and a table over exactly their antecedents; and a table has
// member lists exactly while a monitored dependency reads it.
func checkOneTablePerAntecedent(t *testing.T, label string, p *Pipeline) {
	t.Helper()
	held := map[relation.AttrSet]bool{}
	deps := map[core.OFD]bool{}
	monitored := map[relation.AttrSet]*live.Table{}
	for _, d := range p.m.Sigma() {
		st := p.m.State(d)
		if st == nil || st != p.sub.State(d) || st.Table() != p.sub.Table(d.LHS) {
			t.Fatalf("%s: monitored %v does not read the substrate's state of it on its table", label, d)
		}
		held[d.LHS], monitored[d.LHS], deps[d] = true, st.Table(), true
	}
	for _, d := range p.mt.Cover() {
		st := p.mt.State(d)
		if st == nil || st != p.sub.State(d) || st.Table() != p.sub.Table(d.LHS) {
			t.Fatalf("%s: cover element %v does not read the substrate's state of it on its table", label, d)
		}
		if ms := p.m.State(d); ms != nil && ms != st {
			t.Fatalf("%s: the monitor and the maintainer read two states of %v", label, d)
		}
		if m := monitored[d.LHS]; m != nil && m != st.Table() {
			t.Fatalf("%s: the monitor and the maintainer hold two tables over %v", label, d.LHS)
		}
		held[d.LHS], deps[d] = true, true
	}
	all := p.Relation().Schema().All()
	for x := relation.AttrSet(0); x <= all; x++ {
		tab := p.sub.Table(x)
		if (tab != nil) != held[x] {
			t.Fatalf("%s: the substrate holds a table over %v: %v; an engine holds it: %v", label, x, tab != nil, held[x])
		}
		if tab != nil && (tab.Members != nil) != (monitored[x] != nil) {
			t.Fatalf("%s: the table over %v has member lists: %v; a monitored dependency reads it: %v", label, x, tab.Members != nil, monitored[x] != nil)
		}
		for a := 0; a < p.Relation().NumCols(); a++ {
			d := core.OFD{LHS: x, RHS: a}
			if (p.sub.State(d) != nil) != deps[d] {
				t.Fatalf("%s: the substrate holds a state of %v: %v; an engine holds it: %v", label, d, p.sub.State(d) != nil, deps[d])
			}
		}
	}
}

// TestPipelineOneTablePerAntecedent drives random update and append
// streams through pipelines that follow the cover and through pipelines
// that pin the initial cover while the cover drifts, and registers and
// unregisters a dependency the cover lacks between ops: after every step
// the monitor and the maintainer run on the substrate's one table per
// antecedent and one state per dependency, and a table leaves the
// substrate once neither engine holds its antecedent. A monitored
// dependency that left the cover and comes back must be tracked on the
// monitor's very state, with no rebuild; the pinned streams must do that.
func TestPipelineOneTablePerAntecedent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shared, dropped, reused := 0, 0, 0
	for trial := 0; trial < 12; trial++ {
		rel, ont := randomInstance(rng)
		stream := randomStream(rng, rel, 4, 6)
		for _, workers := range []int{1, 2} {
			for _, follow := range []bool{true, false} {
				label := fmt.Sprintf("trial %d workers=%d follow=%v", trial, workers, follow)
				p, err := New(context.Background(), rel.Clone(), ont, Options{FollowCover: follow, Workers: workers})
				if err != nil {
					t.Fatalf("%s: New: %v", label, err)
				}
				checkOneTablePerAntecedent(t, label+" initial", p)
				for b, op := range stream {
					before := map[relation.AttrSet]bool{}
					for _, d := range append(p.m.Sigma(), p.mt.Cover()...) {
						before[d.LHS] = true
					}
					// Monitored dependencies outside the cover, by the
					// state the monitor reads.
					waiting := map[core.OFD]*core.DepState{}
					for _, d := range p.m.Sigma() {
						if p.mt.State(d) == nil {
							waiting[d] = p.m.State(d)
						}
					}
					applyOp(t, p, op)
					step := fmt.Sprintf("%s batch %d", label, b)
					checkOneTablePerAntecedent(t, step, p)
					for d, st := range waiting {
						if got := p.mt.State(d); got != nil {
							if got != st {
								t.Fatalf("%s: %v came back to the cover on a new state beside the monitor's", step, d)
							}
							reused++
						}
					}
					for x := range before {
						if p.sub.Table(x) == nil {
							dropped++
						}
					}
					for _, d := range p.m.Sigma() {
						if p.mt.State(d) != nil {
							shared++
						}
					}
					// A dependency over a single column whose table no
					// engine holds: registering builds it, and
					// unregistering drops it again.
					for c := 0; c < p.Relation().NumCols(); c++ {
						d := core.OFD{LHS: relation.Single(c), RHS: (c + 1) % p.Relation().NumCols()}
						if p.sub.Table(d.LHS) != nil {
							continue
						}
						if err := p.m.Register(d); err != nil {
							t.Fatalf("%s: Register: %v", step, err)
						}
						checkOneTablePerAntecedent(t, step+" registered", p)
						if err := p.m.Unregister(d); err != nil {
							t.Fatalf("%s: Unregister: %v", step, err)
						}
						if p.sub.Table(d.LHS) != nil {
							t.Fatalf("%s: the table over %v outlived its only dependency", step, d.LHS)
						}
						checkOneTablePerAntecedent(t, step+" unregistered", p)
						break
					}
				}
				if want := discovery.Discover(p.Relation(), ont, discovery.DefaultOptions()).OFDs; fmt.Sprint(p.Cover()) != fmt.Sprint(want) {
					t.Fatalf("%s: cover diverged from Discover", label)
				}
			}
		}
	}
	if shared == 0 || dropped == 0 || reused == 0 {
		t.Fatalf("the streams shared %d tables between the engines, dropped %d and brought %d monitored dependencies back to the cover; they must do all three", shared, dropped, reused)
	}
}
