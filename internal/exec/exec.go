// Package exec is the shared execution substrate of every engine in this
// repository: one work-stealing parallel-for with cooperative context
// cancellation, a Pool that binds a resolved worker count to a Stats
// registry, and named per-stage spans (wall time, items, workers, cache
// hits) that marshal to JSON for benchmark reports and render as a table
// for the CLIs.
//
// Before this package existed, discovery, the FD baselines, and the repair
// engine each carried a private copy of the same atomic-counter worker pool
// and none of them could be cancelled, time-boxed, or observed per stage.
// The substrate keeps their determinism contract intact: iterations are
// claimed from a shared atomic index (work stealing, so one expensive item
// cannot strand a chunk), but callers write results into slot i and merge
// sequentially afterwards, so output is byte-identical for every worker
// count — and for uncancelled runs, byte-identical to the pre-substrate
// engines. Cancellation is cooperative at work-item granularity: a worker
// checks the context before claiming each item, finishes the item it is
// on, and never starts another, so a cancelled For returns within one work
// item and leaks no goroutines.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves an Options.Workers-style value: 0 selects
// runtime.NumCPU(), negative values clamp to 1 (the sequential path), and
// positive values are used as given.
func Workers(w int) int {
	if w == 0 {
		return runtime.NumCPU()
	}
	if w < 1 {
		return 1
	}
	return w
}

// interruptedError wraps a context error so engines can attach the stage
// that was interrupted while callers keep matching with
// errors.Is(err, context.Canceled) / errors.Is(err, context.DeadlineExceeded).
type interruptedError struct {
	stage string
	err   error
}

func (e *interruptedError) Error() string {
	if e.stage == "" {
		return fmt.Sprintf("exec: interrupted: %v", e.err)
	}
	return fmt.Sprintf("exec: interrupted during %s: %v", e.stage, e.err)
}

func (e *interruptedError) Unwrap() error { return e.err }

// Interrupted wraps ctx's error with the name of the stage that observed
// the cancellation. It returns nil when the context is still live, so the
// idiomatic cancellation point is a bare
//
//	if err := exec.Interrupted(ctx, "discover.level"); err != nil { return err }
func Interrupted(ctx context.Context, stage string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &interruptedError{stage: stage, err: err}
	}
	return nil
}

// For runs fn(worker, i) for every i in [0, n), fanning out over at most
// `workers` goroutines and claiming iterations from a shared atomic counter
// (work stealing), so uneven per-item costs — one huge cluster next to many
// tiny ones, one consequent with a deep cover search — balance
// automatically. Callers keep the output deterministic by writing results
// into slot i and merging sequentially afterwards; worker ids (always <
// workers) let them retain per-worker scratch such as ProductBuffers. With
// workers <= 1 or n <= 1 everything runs inline on worker 0, so the
// sequential path executes exactly the same code as the parallel one.
//
// Cancellation is cooperative at work-item granularity: each worker checks
// ctx before claiming an item and stops claiming once it is done. Items
// already started always finish — fn never observes a half-cancelled item —
// and every spawned goroutine has exited by the time For returns. On
// cancellation For returns ctx's error wrapped by Interrupted; iterations
// not yet claimed are skipped, so the caller's slots hold a valid subset of
// results and the caller decides what a partial merge means.
// A nil ctx (or one that can never be cancelled) adds no per-item cost
// beyond a nil channel check.
func For(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if n <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				return Interrupted(ctx, "")
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if stop.Load() || cancelled() {
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if stop.Load() {
		return Interrupted(ctx, "")
	}
	return nil
}

// Pool binds a resolved worker count to an optional Stats registry. Engines
// create one per run (pools are cheap — they hold no goroutines; workers
// are spawned per For call and joined before it returns) and thread it
// through their stages so every stage observes the same parallelism and
// reports into the same registry.
type Pool struct {
	workers int
	stats   *Stats
}

// NewPool resolves workers (0 = NumCPU) and attaches stats, which may be
// nil — all Stats methods are nil-safe, so engines instrument
// unconditionally.
func NewPool(workers int, stats *Stats) *Pool {
	return &Pool{workers: Workers(workers), stats: stats}
}

// Size returns the resolved worker count (always ≥ 1).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Stats returns the pool's registry (possibly nil; Stats methods tolerate
// that).
func (p *Pool) Stats() *Stats {
	if p == nil {
		return nil
	}
	return p.stats
}

// For is exec.For over the pool's worker count.
func (p *Pool) For(ctx context.Context, n int, fn func(worker, i int)) error {
	return For(ctx, n, p.Size(), fn)
}

// Seq runs the sequential path regardless of pool size — for stages whose
// iterations read evolving shared state — while keeping the same
// cancellation contract as For.
func (p *Pool) Seq(ctx context.Context, n int, fn func(i int)) error {
	return For(ctx, n, 1, func(_, i int) { fn(i) })
}
