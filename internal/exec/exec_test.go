package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7, 64} {
		for _, n := range []int{0, 1, 2, 3, 100} {
			hits := make([]atomic.Int32, n)
			if err := For(context.Background(), n, workers, func(_, i int) {
				hits[i].Add(1)
			}); err != nil {
				t.Fatalf("workers=%d n=%d: unexpected error %v", workers, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForNilContext(t *testing.T) {
	var count atomic.Int32
	if err := For(nil, 10, 4, func(_, i int) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 10 {
		t.Fatalf("visited %d of 10", count.Load())
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	const workers = 5
	if err := For(context.Background(), 200, workers, func(w, _ int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int32
	for _, workers := range []int{1, 4} {
		err := For(ctx, 100, workers, func(_, i int) { count.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want wrapped context.Canceled, got %v", workers, err)
		}
	}
	if count.Load() != 0 {
		t.Fatalf("pre-cancelled For ran %d items", count.Load())
	}
}

// TestForCancelStopsWithinOneItem drives a long loop whose items block until
// cancellation fires, then asserts no later item started and no goroutine
// leaked.
func TestForCancelStopsWithinOneItem(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		release := make(chan struct{})
		err := For(ctx, 10_000, workers, func(_, i int) {
			if started.Add(1) == int32(workers) {
				cancel()
				close(release)
			}
			<-release // every in-flight item finishes only after cancel
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		// In-flight items (≤ workers) finish; nothing new starts after the
		// cancellation is observed. Allow one extra claim per worker that
		// raced the cancel.
		if got := started.Load(); got > int32(2*workers) {
			t.Fatalf("workers=%d: %d items started after cancel", workers, got)
		}
		waitForGoroutines(t, before)
	}
}

func TestInterruptedWrapsDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Interrupted(ctx, "discover.level")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if want := "exec: interrupted during discover.level: context deadline exceeded"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	if got := Interrupted(context.Background(), "x"); got != nil {
		t.Fatalf("live context reported %v", got)
	}
	if got := Interrupted(nil, "x"); got != nil {
		t.Fatalf("nil context reported %v", got)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(6); got != 6 {
		t.Fatalf("Workers(6) = %d, want 6", got)
	}
}

func TestPool(t *testing.T) {
	st := NewStats()
	p := NewPool(3, st)
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	if p.Stats() != st {
		t.Fatal("Stats not threaded")
	}
	var count atomic.Int32
	if err := p.For(context.Background(), 10, func(w, _ int) {
		if w >= 3 {
			t.Errorf("worker %d out of range", w)
		}
		count.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 10 {
		t.Fatalf("visited %d", count.Load())
	}
	// Seq must use worker 0 only and still honour cancellation.
	order := make([]int, 0, 5)
	if err := p.Seq(context.Background(), 5, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("Seq out of order: %v", order)
		}
	}
	var nilPool *Pool
	if nilPool.Size() != 1 || nilPool.Stats() != nil {
		t.Fatal("nil pool defaults wrong")
	}
}

// TestForDeterministicSlots is the substrate-level determinism contract:
// slot-writing callers observe identical results for any worker count.
func TestForDeterministicSlots(t *testing.T) {
	n := 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got := make([]int, n)
		if err := For(context.Background(), n, Workers(workers), func(_, i int) {
			got[i] = i * i
		}); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// waitForGoroutines asserts the goroutine count settles back to (roughly)
// the pre-call level, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
