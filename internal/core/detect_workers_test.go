package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

// detectFixture is a corrupted generated Clinical instance and a Σ listed
// group by group: every antecedent carries two or three dependencies,
// TEST → SYMP chains into SYMP → CTRY, the single-attribute antecedents
// have FD-only classes (an FD flags them, the OFD clears them), and the
// nested antecedents {CC, SYMP} ⊂ {CC, SYMP, TEST} share partition-cache
// prefixes across concurrent groups. groups[i] is the end of group i in Σ.
func detectFixture(t *testing.T) (ds *gen.Dataset, sigma core.Set, groups []int) {
	t.Helper()
	ds = gen.Generate(gen.Config{Rows: 2000, Seed: 3, ErrRate: 0.03})
	schema := ds.Rel.Schema()
	for _, g := range [][]string{
		{"CC -> CTRY", "CC -> MED", "CC -> DIAG"},
		{"SYMP -> CTRY", "SYMP -> MED"},
		{"TEST -> SYMP", "TEST -> CTRY"},
		{"CC, SYMP -> MED", "CC, SYMP -> DIAG"},
		{"PHASE -> CTRY", "PHASE -> MED"},
		{"CC, SYMP, TEST -> MED", "CC, SYMP, TEST -> DIAG"},
	} {
		for _, s := range g {
			sigma = append(sigma, core.MustParse(schema, s))
		}
		groups = append(groups, len(sigma))
	}
	return ds, sigma, groups
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// violationsOf splits a report's violations by dependency.
func violationsOf(rep *core.Report) map[core.OFD][]core.Violation {
	by := map[core.OFD][]core.Violation{}
	for _, v := range rep.Violations {
		by[v.OFD] = append(by[v.OFD], v)
	}
	return by
}

// TestDetectWorkersIdentical pins the parallel verification: Detect at
// any worker count returns the same report, byte for byte, and its
// flagged and FD-only counts equal a map-based count over the classes of
// each Π_X.
func TestDetectWorkersIdentical(t *testing.T) {
	ds, sigma, _ := detectFixture(t)
	rel, ont := ds.Rel, ds.Ont
	rep := core.DetectWorkers(rel, ont, sigma, 1)
	want := mustJSON(t, rep)
	for _, workers := range []int{2, 3, 8} {
		if mustJSON(t, core.DetectWorkers(rel, ont, sigma, workers)) != want {
			t.Fatalf("workers=%d: report differs from workers=1", workers)
		}
	}

	v := core.NewVerifier(rel, ont, nil)
	flagged, fdOnly := map[int]bool{}, map[int]bool{}
	for _, d := range sigma {
		p := relation.PartitionOf(rel, d.LHS).Strip()
		col := rel.Column(d.RHS)
		for i := 0; i < p.NumClasses(); i++ {
			seen := map[relation.Value]bool{}
			var vals []relation.Value
			for _, tu := range p.Class(i) {
				if val := col.At(int(tu)); !seen[val] {
					seen[val] = true
					vals = append(vals, val)
				}
			}
			if len(vals) < 2 {
				continue
			}
			into := flagged
			if v.ValuesSatisfied(d.RHS, vals) {
				into = fdOnly
			}
			for _, tu := range p.Class(i) {
				into[int(tu)] = true
			}
		}
	}
	if len(flagged) == 0 || len(fdOnly) == 0 {
		t.Fatalf("fixture has %d flagged and %d FD-only tuples; want both", len(flagged), len(fdOnly))
	}
	if rep.TuplesFlagged != len(flagged) || rep.FDOnlyFlagged != len(fdOnly) {
		t.Fatalf("TuplesFlagged/FDOnlyFlagged = %d/%d, map count %d/%d",
			rep.TuplesFlagged, rep.FDOnlyFlagged, len(flagged), len(fdOnly))
	}
	byDep := violationsOf(rep)
	for _, d := range sigma {
		if len(byDep[d]) == 0 {
			t.Fatalf("fixture: %s has no violation", d.Format(rel.Schema()))
		}
	}
}

// cancelAfterPolls is a context that cancels itself on its nth poll,
// where a poll is an Err call or a Done call (exec.For takes the channel
// once per fan-out and watches it).
type cancelAfterPolls struct {
	mu   sync.Mutex
	left int
	done chan struct{}
}

func newCancelAfterPolls(n int) *cancelAfterPolls {
	return &cancelAfterPolls{left: n, done: make(chan struct{})}
}

func (c *cancelAfterPolls) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfterPolls) Value(key any) any           { return nil }

func (c *cancelAfterPolls) poll() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		if c.left--; c.left == 0 {
			close(c.done)
		}
	}
	return c.left == 0
}

func (c *cancelAfterPolls) Done() <-chan struct{} {
	c.poll()
	return c.done
}

func (c *cancelAfterPolls) Err() error {
	if c.poll() {
		return context.Canceled
	}
	return nil
}

// TestDetectCancelMidRun cuts Detect after every possible number of polls:
// the warm-up's and the verification's fan-outs each take the channel
// once, then every antecedent group polls before it starts. A cancelled
// run must wrap context.Canceled and return whole groups only, each
// dependency with exactly its violations of the full run, canonically
// sorted, counted as Detect counts that subset of Σ. On one worker some
// poll count cuts the run after each k groups.
func TestDetectCancelMidRun(t *testing.T) {
	ds, sigma, groups := detectFixture(t)
	rel, ont := ds.Rel, ds.Ont
	full := violationsOf(core.Detect(rel, ont, sigma))
	for _, workers := range []int{1, 2} {
		cutAfter := map[int]bool{}
		for polls := 1; polls <= len(groups)+4; polls++ {
			rep, err := core.DetectContext(newCancelAfterPolls(polls), rel, ont, sigma, workers, nil)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d polls=%d: error %v does not wrap context.Canceled", workers, polls, err)
			}
			if !sort.SliceIsSorted(rep.Violations, func(i, j int) bool {
				a, b := rep.Violations[i], rep.Violations[j]
				if a.OFD != b.OFD {
					if a.OFD.RHS != b.OFD.RHS {
						return a.OFD.RHS < b.OFD.RHS
					}
					return a.OFD.LHS < b.OFD.LHS
				}
				return a.Tuples[0] < b.Tuples[0]
			}) {
				t.Fatalf("workers=%d polls=%d: partial report is not canonically sorted", workers, polls)
			}
			got := violationsOf(rep)
			var kept core.Set
			keptGroups := 0
			start := 0
			for g, end := range groups {
				present := 0
				for _, d := range sigma[start:end] {
					if len(got[d]) > 0 {
						present++
						if mustJSON(t, got[d]) != mustJSON(t, full[d]) {
							t.Fatalf("workers=%d polls=%d: %s has %d of its %d violations",
								workers, polls, d.Format(rel.Schema()), len(got[d]), len(full[d]))
						}
					}
				}
				switch present {
				case 0:
				case end - start:
					kept = append(kept, sigma[start:end]...)
					keptGroups++
				default:
					t.Fatalf("workers=%d polls=%d: group %d kept %d of its %d dependencies",
						workers, polls, g, present, end-start)
				}
				start = end
			}
			if err == nil && keptGroups != len(groups) {
				t.Fatalf("workers=%d polls=%d: an uncancelled run kept %d of %d groups", workers, polls, keptGroups, len(groups))
			}
			if mustJSON(t, rep) != mustJSON(t, core.Detect(rel, ont, kept)) {
				t.Fatalf("workers=%d polls=%d: partial report differs from Detect over its %d groups", workers, polls, keptGroups)
			}
			if workers == 1 && err != nil {
				cutAfter[keptGroups] = true
			}
		}
		if workers == 1 {
			for k := 0; k < len(groups); k++ {
				if !cutAfter[k] {
					t.Fatalf("no poll count cut a one-worker run after %d groups (cuts: %v)", k, cutAfter)
				}
			}
		}
	}
}
