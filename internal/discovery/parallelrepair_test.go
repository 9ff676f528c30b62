package discovery

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
)

// TestMaintainerSerialParallelRepairEquivalence is the parallel repair's
// stream-equivalence sweep: for random instances and mixed update/append
// streams, every worker count lands the same cover and the same diff after
// every batch, and the serial reference (Workers = 1, which repairs one
// consequent at a time and verifies its nodes inline) stays equivalent to
// fresh discovery. Determinism must come from the staged canonical-order
// commit, not from scheduling luck.
func TestMaintainerSerialParallelRepairEquivalence(t *testing.T) {
	sweep := []int{1, 2, 0} // reference first: fully serial
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		rel, ont := randomInstance(rng)
		stream := randomStream(rng, rel, 4, 8)
		mts := make([]*Maintainer, len(sweep))
		for k, workers := range sweep {
			opts := DefaultOptions()
			opts.Workers = workers
			var err error
			mts[k], err = newMaintainer(rel.Clone(), ont, opts)
			if err != nil {
				t.Fatalf("trial %d: NewMaintainer(Workers=%d): %v", trial, workers, err)
			}
		}
		for b, op := range stream {
			var first core.Set
			var firstDiff Diff
			for k, mt := range mts {
				diff := applyOp(t, mt, op)
				got := mt.Cover()
				if k == 0 {
					first, firstDiff = got, diff
					want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d batch %d: serial cover diverged from fresh discovery\n got: %v\nwant: %v",
							trial, b, got, want)
					}
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("trial %d batch %d: Workers=%d cover differs from serial reference\n got: %v\nwant: %v",
						trial, b, sweep[k], got, first)
				}
				if !reflect.DeepEqual(diff, firstDiff) {
					t.Fatalf("trial %d batch %d: Workers=%d diff differs from serial reference\n got: %+v\nwant: %+v",
						trial, b, sweep[k], diff, firstDiff)
				}
			}
		}
	}
}

// TestMaintainerMidRepairCancellation interrupts parallel cross-consequent
// repairs at varying depths: a cancelled batch must roll back atomically
// (cover, epoch, and relation exactly as before), the rolled-back state
// must still match a fresh discovery over the restored instance, no repair
// workers may outlive the call, and landing the same batch afterwards must
// behave as if the cancellation never happened. The maintainer polls once
// before its verify phase, so a batch cancelled at poll 2 or later was
// cancelled inside it; the stream must cancel some batch there.
func TestMaintainerMidRepairCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	inVerify := 0
	for trial := 0; trial < 8; trial++ {
		rel, ont := randomInstance(rng)
		opts := DefaultOptions()
		opts.Workers = 2
		mt, err := newMaintainer(rel.Clone(), ont, opts)
		if err != nil {
			t.Fatal(err)
		}
		stream := randomStream(rng, mt.Relation(), 4, 4)
		polls := []int{1, 2, 3, 5, 8}
		for b, op := range stream {
			if len(op.updates) == 0 {
				continue
			}
			coverBefore := mt.Cover()
			epochBefore := mt.Epoch()
			rowsBefore := mt.Relation().Rows()
			before := runtime.NumGoroutine()
			n := polls[b%len(polls)]
			_, err := mt.ApplyBatchContext(newCancelAfterPolls(n), op.updates)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("trial %d batch %d: want context.Canceled, got %v", trial, b, err)
				}
				if n >= 2 {
					inVerify++
				}
				if got := mt.Cover(); !reflect.DeepEqual(got, coverBefore) {
					t.Fatalf("trial %d batch %d: cover changed across cancelled repair\n got: %v\nwant: %v",
						trial, b, got, coverBefore)
				}
				if mt.Epoch() != epochBefore {
					t.Fatalf("trial %d batch %d: epoch advanced across cancelled repair", trial, b)
				}
				if got := mt.Relation().Rows(); !reflect.DeepEqual(got, rowsBefore) {
					t.Fatalf("trial %d batch %d: relation changed across cancelled repair", trial, b)
				}
				// Post-cancel Discover identity: the restored instance still
				// yields exactly the maintained cover.
				if want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs; !reflect.DeepEqual(coverBefore, want) {
					t.Fatalf("trial %d batch %d: post-cancel discovery diverged\n got: %v\nwant: %v",
						trial, b, coverBefore, want)
				}
				waitGoroutines(t, before)
			}
			// Land the full op (updates and appends) for real; any state the
			// rollback failed to restore surfaces as a divergence here or on
			// a later batch.
			applyOp(t, mt, op)
			got := mt.Cover()
			want := Discover(mt.Relation(), ont, DefaultOptions()).OFDs
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d batch %d: post-cancellation cover diverged\n got: %v\nwant: %v",
					trial, b, got, want)
			}
		}
	}
	if inVerify == 0 {
		t.Fatal("no batch was cancelled inside the verify phase")
	}
}
