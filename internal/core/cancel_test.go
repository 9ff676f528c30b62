package core

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestDetectContextCancelled(t *testing.T) {
	rel, ont := table3(t)
	sigma := Set{
		MustParse(rel.Schema(), "CC -> CTRY"),
		MustParse(rel.Schema(), "SYMP, DIAG -> MED"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := DetectContext(ctx, rel, ont, sigma, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled Detect must return a non-nil (partial) report")
	}
	sorted := sort.SliceIsSorted(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.OFD != b.OFD {
			if a.OFD.RHS != b.OFD.RHS {
				return a.OFD.RHS < b.OFD.RHS
			}
			return a.OFD.LHS < b.OFD.LHS
		}
		return a.Tuples[0] < b.Tuples[0]
	})
	if !sorted {
		t.Fatal("partial report must still be canonically sorted")
	}
}

func TestNewMonitorCancelled(t *testing.T) {
	rel, ont := table3(t)
	sigma := Set{
		MustParse(rel.Schema(), "CC -> CTRY"),
		MustParse(rel.Schema(), "SYMP, DIAG -> MED"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := NewMonitor(ctx, testSubstrate(t, rel, ont), sigma, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if m != nil {
		t.Fatal("a partially indexed monitor must not be returned")
	}
}

// cancelOnPoll is a context that cancels itself on its nth Err() poll
// (mirroring the discovery package's countdown-context pattern).
// ApplyBatchContext polls once between writing the cells and fanning out
// the re-verification, so n = 1 deterministically cuts a batch after its
// writes are applied — exactly the window the rollback must cover.
type cancelOnPoll struct {
	mu   sync.Mutex
	left int
	done chan struct{}
}

func newCancelOnPoll(n int) *cancelOnPoll {
	return &cancelOnPoll{left: n, done: make(chan struct{})}
}

func (c *cancelOnPoll) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelOnPoll) Done() <-chan struct{}       { return c.done }
func (c *cancelOnPoll) Value(key any) any           { return nil }

func (c *cancelOnPoll) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	if c.left == 0 {
		close(c.done)
		return context.Canceled
	}
	return nil
}

// monitorBatchFixture builds a monitor over table1 with the given worker
// count and a batch that would flip one class into violation, plus
// snapshots of the pre-batch state.
func monitorBatchFixture(t *testing.T, workers int) (m *Monitor, batch []CellUpdate, cellsBefore []string, reportBefore string) {
	t.Helper()
	rel, ont := table1(t)
	schema := rel.Schema()
	sigma := Set{
		MustParse(schema, "CC -> CTRY"),
		MustParse(schema, "SYMP, DIAG -> MED"),
	}
	m, err := NewMonitor(context.Background(), testSubstrate(t, rel, ont), sigma, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	med := schema.MustIndex("MED")
	ctry := schema.MustIndex("CTRY")
	batch = []CellUpdate{
		{Row: 7, Col: med, Value: "unknown-drug"},
		{Row: 8, Col: med, Value: "another-unknown"},
		{Row: 0, Col: ctry, Value: "Atlantis"},
	}
	for _, u := range batch {
		cellsBefore = append(cellsBefore, rel.String(u.Row, u.Col))
	}
	rb, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	return m, batch, cellsBefore, string(rb)
}

// assertBatchRolledBack checks the atomicity contract: after a cancelled
// ApplyBatch no cell write survives and the violation state — including the
// materialized Report — is exactly the pre-batch state.
func assertBatchRolledBack(t *testing.T, m *Monitor, batch []CellUpdate, cellsBefore []string, reportBefore string) {
	t.Helper()
	for k, u := range batch {
		if got := m.rel.String(u.Row, u.Col); got != cellsBefore[k] {
			t.Fatalf("cell (%d,%d) = %q after cancelled batch, want rolled-back %q", u.Row, u.Col, got, cellsBefore[k])
		}
	}
	if !m.Satisfied() {
		t.Fatal("cancelled batch left violation state half-updated")
	}
	after, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != reportBefore {
		t.Fatalf("cancelled batch changed the report\n got %s\nwant %s", after, reportBefore)
	}
}

func TestApplyBatchPreCancelled(t *testing.T) {
	m, batch, cellsBefore, reportBefore := monitorBatchFixture(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.ApplyBatchContext(ctx, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	assertBatchRolledBack(t, m, batch, cellsBefore, reportBefore)
}

func TestApplyBatchCancelledAfterWrites(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		m, batch, cellsBefore, reportBefore := monitorBatchFixture(t, workers)
		// First Err() poll fires after the cell writes, before the
		// per-dependency fan-out applies any multiset delta.
		err := m.ApplyBatchContext(newCancelOnPoll(1), batch)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		assertBatchRolledBack(t, m, batch, cellsBefore, reportBefore)
		// After the rollback the report still matches a fresh Detect —
		// the acceptance criterion "byte-identical including after
		// cancellation rollback".
		want, err2 := json.Marshal(Detect(m.rel, m.v.Ontology(), m.sigma))
		if err2 != nil {
			t.Fatal(err2)
		}
		if got, _ := json.Marshal(m.Report()); string(got) != string(want) {
			t.Fatalf("workers=%d: rolled-back report diverged from Detect\n got %s\nwant %s", workers, got, want)
		}
		// The rolled-back monitor stays fully usable: the same batch
		// applies cleanly afterwards.
		if err := m.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if m.Satisfied() {
			t.Fatalf("workers=%d: re-applied batch must violate", workers)
		}
	}
}
