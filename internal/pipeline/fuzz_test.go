package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// cancelAfterPolls is a context.Context that cancels itself on its nth
// poll, where a poll is an Err call or a Done call (exec.For takes the
// channel once per fan-out and watches it), so a batch is cancelled at a
// chosen point of its run without sleeps: the maintainer polls Err once
// before its verify phase, and every later poll lies inside it.
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

// roundTrip encodes p and its relation into one in-memory buffer, as the
// snapshot's relation and pipeline sections do, and decodes them into a
// fresh pipeline over a fresh relation.
func roundTrip(t *testing.T, p *Pipeline, workers int) *Pipeline {
	t.Helper()
	var w wire.Writer
	relation.AppendRelation(&w, p.Relation())
	Append(&w, p)
	r := wire.NewReader(append([]byte(nil), w.Bytes()...))
	rel, err := relation.DecodeRelation(r)
	if err != nil {
		t.Fatalf("DecodeRelation: %v", err)
	}
	back, err := Decode(r, rel, p.Verifier().Ontology(), workers, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return back
}

// FuzzPipeline decodes fuzz bytes into an op program over a small random
// instance and runs it through pipelines with 1 and 2 workers, each with
// FollowCover on and off. The first byte seeds the instance; each op then
// takes three bytes (op, a, b):
//
//   - op < 0x60 writes cell (a, op) of the pending batch with value b; a
//     column of the antecedent moves its row, and a write of the cell's
//     current value is a no-op;
//   - op < 0x80 applies the pending batch;
//   - op < 0xa0 applies it under a context that cancels on its (a%6+1)th
//     poll, which lands before the verify phase or inside it; a cancelled
//     batch must leave the relation, the cover, the report and the epoch
//     as they were;
//   - op < 0xc0 appends a row built from a and b;
//   - otherwise the pipeline round-trips through Append and Decode.
//
// After every op the report equals a fresh Detect over the monitored set,
// and the cover a fresh Discover (and, with FollowCover, the monitored
// set is the cover).
func FuzzPipeline(f *testing.F) {
	f.Add([]byte{1, 0x00, 0, 1, 0x01, 2, 3, 0x60, 0, 0})
	f.Add([]byte{2, 0x00, 1, 2, 0x00, 3, 2, 0x80, 0, 0, 0x80, 1, 0, 0x60, 0, 0})
	f.Add([]byte{3, 0xa0, 1, 2, 0x02, 0, 5, 0xc0, 0, 0, 0x01, 4, 1, 0x80, 3, 0})
	f.Add([]byte{4, 0x00, 0, 0, 0x60, 0, 0, 0xc0, 0, 0, 0x03, 1, 6, 0x81, 5, 0, 0x60, 0, 0})
	f.Add([]byte{5, 0x00, 2, 4, 0x01, 2, 4, 0x02, 2, 4, 0x80, 2, 0, 0xa0, 7, 7, 0x60, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 1+3*24 {
			prog = prog[:1+3*24]
		}
		rng := rand.New(rand.NewSource(int64(prog[0])))
		base, ont := randomInstance(rng)
		value := func(b byte) string {
			if b%7 == 6 {
				return fmt.Sprintf("novel%d", b%3)
			}
			return fmt.Sprintf("v%d", b%4)
		}
		for _, workers := range []int{1, 2} {
			for _, follow := range []bool{false, true} {
				label := fmt.Sprintf("workers=%d follow=%v", workers, follow)
				p, err := New(context.Background(), base.Clone(), ont, Options{FollowCover: follow, Workers: workers})
				if err != nil {
					t.Fatalf("%s: New: %v", label, err)
				}
				check := func(k int) {
					t.Helper()
					rel := p.Relation()
					sigma := p.Monitor().Sigma()
					if got, want := reportJSON(t, p.Report()), reportJSON(t, core.Detect(rel, ont, sigma)); got != want {
						t.Fatalf("%s op %d: report diverged from Detect\n got %s\nwant %s\nrows %v", label, k, got, want, rel.Rows())
					}
					cover := p.Cover()
					if want := discovery.Discover(rel, ont, discovery.DefaultOptions()).OFDs; !reflect.DeepEqual(cover, want) {
						t.Fatalf("%s op %d: cover diverged from Discover\n got %v\nwant %v\nrows %v", label, k, cover, want, rel.Rows())
					}
					if follow && !reflect.DeepEqual(sortedSet(sigma), cover) {
						t.Fatalf("%s op %d: monitored set %v is not the cover %v", label, k, sigma, cover)
					}
				}
				var batch []core.CellUpdate
				for k := 1; k+2 < len(prog); k += 3 {
					op, a, b := prog[k], prog[k+1], prog[k+2]
					rel := p.Relation()
					switch {
					case op < 0x60:
						batch = append(batch, core.CellUpdate{Row: int(a) % rel.NumRows(), Col: int(op) % rel.NumCols(), Value: value(b)})
						continue
					case op < 0x80:
						if _, err := p.ApplyBatch(context.Background(), batch); err != nil {
							t.Fatalf("%s op %d: ApplyBatch: %v", label, k, err)
						}
						batch = batch[:0]
					case op < 0xa0:
						before, cover, report, epoch := rel.Clone(), p.Cover(), reportJSON(t, p.Report()), p.Monitor().Epoch()
						_, err := p.ApplyBatch(newCancelAfterPolls(int(a)%6+1), batch)
						batch = batch[:0]
						if err == nil {
							break
						}
						if d, derr := rel.DiffCells(before); derr != nil || d != 0 {
							t.Fatalf("%s op %d: cancelled batch changed %d cells (%v)", label, k, d, derr)
						}
						if got := p.Cover(); !reflect.DeepEqual(got, cover) {
							t.Fatalf("%s op %d: cancelled batch changed the cover\n got %v\nwant %v", label, k, got, cover)
						}
						if got := reportJSON(t, p.Report()); got != report {
							t.Fatalf("%s op %d: cancelled batch changed the report\n got %s\nwant %s", label, k, got, report)
						}
						if got := p.Monitor().Epoch(); got != epoch {
							t.Fatalf("%s op %d: cancelled batch published epoch %d (was %d)", label, k, got, epoch)
						}
					case op < 0xc0:
						row := make([]string, rel.NumCols())
						for c := range row {
							row[c] = value(a + byte(c)*b)
						}
						if _, err := p.AppendRows([][]string{row}); err != nil {
							t.Fatalf("%s op %d: AppendRows: %v", label, k, err)
						}
					default:
						p = roundTrip(t, p, workers)
					}
					check(k)
				}
			}
		}
	})
}
