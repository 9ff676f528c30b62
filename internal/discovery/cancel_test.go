package discovery

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
)

// cancelAfterPolls is a context.Context that cancels itself on its nth
// poll, where a poll is an Err call or a Done call (exec.For takes the
// channel once per fan-out and watches it). The engines poll between
// levels and work items, so this yields a deterministic mid-run
// cancellation without sleeps or timing games: the maintainer polls Err
// once before its verify phase, and every later poll lies inside it.
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

// poll counts one poll and reports whether the context is cancelled.
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

// waitGoroutines fails the test if the goroutine count has not returned to
// the pre-run baseline — i.e. a cancelled engine leaked workers.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestDiscoverPreCancelled(t *testing.T) {
	ds := gen.Clinical(300, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DiscoverContext(ctx, ds.Rel, ds.FullOnt, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Stats == nil {
		t.Fatalf("cancelled discovery must still return a well-formed result, got %+v", res)
	}
}

// TestDiscoverCancelMidLattice interrupts the lattice traversal at varying
// depths and checks the partial-result contract: the error wraps
// context.Canceled, every reported OFD is one the full run also reports
// (whole-level semantics — no half-verified level leaks out), and no
// worker goroutines outlive the call, even with a parallel pool. The
// traversal polls about twice per level, so the counts reach from the
// first level to past the middle of the 400-row run's 14; the test fails
// unless some run is cancelled after a level has reported dependencies.
func TestDiscoverCancelMidLattice(t *testing.T) {
	ds := gen.Clinical(400, 17)
	full := Discover(ds.Rel, ds.FullOnt, DefaultOptions())
	inFull := make(map[core.OFD]bool, len(full.OFDs))
	for _, d := range full.OFDs {
		inFull[d] = true
	}
	mid := 0
	for _, polls := range []int{1, 2, 3, 5, 8, 13, 21} {
		before := runtime.NumGoroutine()
		opts := DefaultOptions()
		opts.Workers = 4
		res, err := DiscoverContext(newCancelAfterPolls(polls), ds.Rel, ds.FullOnt, opts)
		if err == nil {
			// The run finished before the countdown elapsed; it must then
			// match the full result exactly.
			if len(res.OFDs) != len(full.OFDs) {
				t.Fatalf("polls=%d: uncancelled run differs from full run", polls)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: want context.Canceled, got %v", polls, err)
		}
		if res == nil || res.Stats == nil {
			t.Fatalf("polls=%d: cancelled discovery returned malformed result", polls)
		}
		for _, d := range res.OFDs {
			if !inFull[d] {
				t.Fatalf("polls=%d: partial result contains %v, absent from the full run", polls, d)
			}
		}
		if len(res.OFDs) > 0 {
			mid++
		}
		waitGoroutines(t, before)
	}
	if mid == 0 {
		t.Fatal("no run was cancelled after a level reported dependencies")
	}
}
