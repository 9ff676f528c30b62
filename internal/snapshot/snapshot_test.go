package snapshot

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
)

func newTestMaintainer(ds *gen.Dataset) (*discovery.Maintainer, error) {
	opts := discovery.DefaultOptions()
	opts.Workers = 2
	sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.Ont, opts.Workers)
	if err != nil {
		return nil, err
	}
	return discovery.NewMaintainer(context.Background(), sub, opts)
}

// newTestMonitor builds a standalone monitor over ds.Sigma on a fresh
// substrate.
func newTestMonitor(ds *gen.Dataset, shards, workers int) (*core.Monitor, error) {
	sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.Ont, workers)
	if err != nil {
		return nil, err
	}
	return core.NewMonitor(context.Background(), sub, ds.Sigma, shards, workers, nil)
}

// reportJSON canonicalizes a report for byte-identity comparison.
func reportJSON(t *testing.T, rep *core.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

func saveOpen(t *testing.T, st *State, opts Options) *State {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := Save(path, st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return got
}

func TestRelationRoundTrip(t *testing.T) {
	ds := gen.Clinical(500, 1)
	got := saveOpen(t, &State{Relation: ds.Rel}, Options{})
	if got.Relation.NumRows() != ds.Rel.NumRows() || got.Relation.NumCols() != ds.Rel.NumCols() {
		t.Fatalf("shape: got %dx%d want %dx%d",
			got.Relation.NumRows(), got.Relation.NumCols(), ds.Rel.NumRows(), ds.Rel.NumCols())
	}
	diff, err := got.Relation.DiffCells(ds.Rel)
	if err != nil || diff != 0 {
		t.Fatalf("restored relation differs in %d cells (err %v)", diff, err)
	}
	for c := 0; c < ds.Rel.NumCols(); c++ {
		if got.Relation.Schema().Name(c) != ds.Rel.Schema().Name(c) {
			t.Fatalf("schema name %d: %q != %q", c, got.Relation.Schema().Name(c), ds.Rel.Schema().Name(c))
		}
	}
	// The restored relation must stay writable: dictionaries hydrate
	// lazily, column tails grow past the decoded blocks.
	row := ds.Rel.Row(0)
	got.Relation.AppendRow(row)
	if v := got.Relation.Value(got.Relation.NumRows()-1, 0); v != ds.Rel.Value(0, 0) {
		t.Fatalf("append after restore re-interned existing value: got %d want %d", v, ds.Rel.Value(0, 0))
	}
}

func TestCacheRoundTrip(t *testing.T) {
	ds := gen.Clinical(300, 2)
	pc := relation.NewPartitionCache(ds.Rel)
	for _, d := range ds.Sigma {
		pc.Get(d.LHS)
		pc.Get(d.LHS.With(d.RHS))
	}
	pc.SetBudget(1 << 20)
	pc.SetPolicy(relation.EvictLevelSweep)
	before := pc.Stats()

	got := saveOpen(t, &State{Relation: ds.Rel, Cache: pc}, Options{})
	after := got.Cache.Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("cache shape changed: got %d entries / %d bytes, want %d / %d",
			after.Entries, after.Bytes, before.Entries, before.Bytes)
	}
	if got.Cache.Budget() != 1<<20 || got.Cache.Policy() != relation.EvictLevelSweep {
		t.Fatalf("cache config lost: budget %d policy %d", got.Cache.Budget(), got.Cache.Policy())
	}
	for _, d := range ds.Sigma {
		want := pc.Get(d.LHS)
		have := got.Cache.Get(d.LHS)
		if want.NumClasses() != have.NumClasses() || want.N != have.N {
			t.Fatalf("partition %v differs after restore", d.LHS)
		}
	}
}

func TestMonitorReportIdentity(t *testing.T) {
	ds := gen.Clinical(1000, 3)
	m, err := newTestMonitor(ds, 4, 2)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	// Mutate before saving so overlays, multisets, and epoch are non-trivial.
	appendRows := ds.CleanRel.Rows()[:50]
	for _, row := range appendRows {
		if _, err := m.AppendRow(row); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	var batch []core.CellUpdate
	for r := 0; r < 40; r++ {
		batch = append(batch, core.CellUpdate{Row: r, Col: ds.Sigma[0].RHS, Value: ds.Rel.String(r+1, ds.Sigma[0].RHS)})
	}
	if err := m.ApplyBatch(batch); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	want := reportJSON(t, m.Report())
	wantEpoch := m.Epoch()

	got := saveOpen(t, &State{Monitor: m}, Options{Workers: 2})
	if got.Monitor == nil {
		t.Fatal("no monitor restored")
	}
	if e := got.Monitor.Epoch(); e != wantEpoch {
		t.Fatalf("epoch: got %d want %d", e, wantEpoch)
	}
	if have := reportJSON(t, got.Monitor.Report()); have != want {
		t.Fatalf("restored report differs:\n got %s\nwant %s", have, want)
	}

	// Detect over the restored relation must agree with the restored
	// monitor — the report is ground truth, not just self-consistent.
	det := core.Detect(got.Relation, got.Monitor.Ontology(), ds.Sigma)
	if have := reportJSON(t, det); have != want {
		t.Fatalf("Detect on restored instance differs from report:\n got %s\nwant %s", have, want)
	}

	// Both monitors must evolve identically after the restore: appends
	// exercise frozen-index hydration, updates the multiset paths.
	extra := ds.CleanRel.Rows()[50:80]
	for _, row := range extra {
		if _, err := m.AppendRow(row); err != nil {
			t.Fatalf("AppendRow(live): %v", err)
		}
		if _, err := got.Monitor.AppendRow(row); err != nil {
			t.Fatalf("AppendRow(restored): %v", err)
		}
	}
	for r := 0; r < 30; r++ {
		val := ds.Rel.String((r+7)%ds.Rel.NumRows(), ds.Sigma[0].RHS)
		if _, err := m.Update(r, ds.Sigma[0].RHS, val); err != nil {
			t.Fatalf("Update(live): %v", err)
		}
		if _, err := got.Monitor.Update(r, ds.Sigma[0].RHS, val); err != nil {
			t.Fatalf("Update(restored): %v", err)
		}
	}
	if a, b := reportJSON(t, m.Report()), reportJSON(t, got.Monitor.Report()); a != b {
		t.Fatalf("post-restore evolution diverged:\nlive     %s\nrestored %s", a, b)
	}
	if m.Epoch() != got.Monitor.Epoch() {
		t.Fatalf("post-restore epochs diverged: %d vs %d", m.Epoch(), got.Monitor.Epoch())
	}
}

func TestMonitorSecondSaveRoundTrip(t *testing.T) {
	// Save → open → save again without appending: the frozen indexes must
	// re-encode as-is, and the third generation must still report
	// identically.
	ds := gen.Clinical(400, 4)
	m, err := newTestMonitor(ds, 2, 1)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	want := reportJSON(t, m.Report())
	gen2 := saveOpen(t, &State{Monitor: m}, Options{})
	gen3 := saveOpen(t, &State{Monitor: gen2.Monitor}, Options{})
	if have := reportJSON(t, gen3.Monitor.Report()); have != want {
		t.Fatalf("third-generation report differs:\n got %s\nwant %s", have, want)
	}
	// And it can still append (hydrating from the re-encoded frozen form).
	if _, err := gen3.Monitor.AppendRow(ds.Rel.Row(0)); err != nil {
		t.Fatalf("AppendRow on gen3: %v", err)
	}
}

func TestMaintainerCoverIdentity(t *testing.T) {
	ds := gen.Clinical(200, 5)
	mt, err := newTestMaintainer(ds)
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	want := mt.Cover()

	got := saveOpen(t, &State{Maintainer: mt}, Options{Workers: 2})
	if got.Maintainer == nil {
		t.Fatal("no maintainer restored")
	}
	have := got.Maintainer.Cover()
	if fmt.Sprint(have) != fmt.Sprint(want) {
		t.Fatalf("restored cover differs:\n got %v\nwant %v", have, want)
	}

	// The restore must be a state copy, not a rebuild: no candidate has
	// been re-verified beyond what the saved maintainer had done.
	if got.Maintainer.Scans() != mt.Scans() {
		t.Fatalf("restore scanned candidates: got %d want %d", got.Maintainer.Scans(), mt.Scans())
	}
	if got.Maintainer.Epoch() != mt.Epoch() {
		t.Fatalf("epoch: got %d want %d", got.Maintainer.Epoch(), mt.Epoch())
	}

	// Both maintainers must emit identical diffs for the same append
	// (exercising frozen-index hydration on the restored one).
	row := ds.Rel.Row(0)
	d1, err1 := mt.AppendRow(row)
	d2, err2 := got.Maintainer.AppendRow(row)
	if err1 != nil || err2 != nil {
		t.Fatalf("AppendRow: %v / %v", err1, err2)
	}
	if fmt.Sprint(d1.Added) != fmt.Sprint(d2.Added) || fmt.Sprint(d1.Removed) != fmt.Sprint(d2.Removed) {
		t.Fatalf("post-restore diffs diverged: %v vs %v", d1, d2)
	}
	// And for the same update batch, including one that dirties antecedent
	// columns (key-group moves through the hydrated index).
	var batch []core.CellUpdate
	for r := 0; r < 30; r++ {
		for c := 0; c < ds.Rel.NumCols(); c++ {
			batch = append(batch, core.CellUpdate{Row: r, Col: c, Value: ds.Rel.String((r+3)%ds.Rel.NumRows(), c)})
		}
	}
	b1, err1 := mt.ApplyBatch(batch)
	b2, err2 := got.Maintainer.ApplyBatch(batch)
	if err1 != nil || err2 != nil {
		t.Fatalf("ApplyBatch: %v / %v", err1, err2)
	}
	if fmt.Sprint(b1.Added) != fmt.Sprint(b2.Added) || fmt.Sprint(b1.Removed) != fmt.Sprint(b2.Removed) {
		t.Fatalf("post-restore batch diffs diverged: %v vs %v", b1, b2)
	}
	if fmt.Sprint(mt.Cover()) != fmt.Sprint(got.Maintainer.Cover()) {
		t.Fatalf("post-restore covers diverged")
	}
	// Ground truth: the evolved restored cover equals a fresh discovery
	// over the evolved restored instance.
	res := discovery.Discover(got.Relation, got.Maintainer.Ontology(), discovery.DefaultOptions())
	if fmt.Sprint(got.Maintainer.Cover()) != fmt.Sprint(res.OFDs) {
		t.Fatalf("restored maintainer cover diverged from fresh discovery:\n got %v\nwant %v",
			got.Maintainer.Cover(), res.OFDs)
	}
}

func TestMaintainerSecondSaveRoundTrip(t *testing.T) {
	// Save → open → save again without mutating: the frozen tracker indexes
	// must re-encode as-is and the images must be byte-identical, and the
	// third generation must still maintain correctly.
	ds := gen.Clinical(200, 11)
	mt, err := newTestMaintainer(ds)
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	want := fmt.Sprint(mt.Cover())
	gen2 := saveOpen(t, &State{Maintainer: mt}, Options{})
	img2, err := Encode(&State{Maintainer: gen2.Maintainer})
	if err != nil {
		t.Fatalf("Encode gen2: %v", err)
	}
	gen3, err := Decode(img2, Options{})
	if err != nil {
		t.Fatalf("Decode gen3: %v", err)
	}
	if have := fmt.Sprint(gen3.Maintainer.Cover()); have != want {
		t.Fatalf("third-generation cover differs:\n got %s\nwant %s", have, want)
	}
	if _, err := gen3.Maintainer.AppendRow(ds.Rel.Row(0)); err != nil {
		t.Fatalf("AppendRow on gen3: %v", err)
	}
}

func TestCombinedStateSharing(t *testing.T) {
	// Monitor + maintainer + cache in one snapshot share one relation and
	// ontology after reopen.
	ds := gen.Clinical(300, 6)
	m, err := newTestMonitor(ds, 2, 1)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	got := saveOpen(t, &State{Monitor: m, Cache: m.Substrate().Cache()}, Options{})
	if got.Monitor.Relation() != got.Relation {
		t.Fatal("restored monitor does not share the restored relation")
	}
	if got.Monitor.Substrate().Cache() != got.Cache {
		t.Fatal("restored monitor does not share the restored cache")
	}
	if got.Ontology == nil {
		t.Fatal("ontology not restored")
	}
}

func TestSaveRejectsMismatchedComponents(t *testing.T) {
	ds1 := gen.Clinical(50, 7)
	ds2 := gen.Clinical(50, 8)
	m, err := newTestMonitor(ds2, 0, 1)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	if err := Save(filepath.Join(t.TempDir(), "x.snap"), &State{Relation: ds1.Rel, Monitor: m}); err == nil {
		t.Fatal("Save accepted a monitor over a different relation")
	}
}

func TestCorruptionDetected(t *testing.T) {
	ds := gen.Clinical(100, 9)
	img, err := Encode(&State{Relation: ds.Rel})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(append([]byte(nil), img...), Options{}); err != nil {
		t.Fatalf("pristine image failed to decode: %v", err)
	}

	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)/2] ^= 0x40
		if _, err := Decode(bad, Options{}); err == nil {
			t.Fatal("flipped payload byte not detected")
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{1, len(img) / 2, len(img) - 4} {
			if _, err := Decode(img[:len(img)-cut], Options{}); err == nil {
				t.Fatalf("truncation by %d not detected", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] ^= 0xff
		if _, err := Decode(bad, Options{}); err == nil {
			t.Fatal("bad magic not detected")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[8] = 0xee // version field (LE uint32 right after the magic)
		if _, err := Decode(bad, Options{}); err == nil {
			t.Fatal("unsupported version not detected")
		}
	})
	t.Run("empty file", func(t *testing.T) {
		if _, err := Decode(nil, Options{}); err == nil {
			t.Fatal("empty image not detected")
		}
	})
}

func TestSaveIsAtomic(t *testing.T) {
	// A save over an existing snapshot either fully replaces it or leaves
	// it; here we just verify the happy path replaces and leaves no temp
	// litter.
	ds := gen.Clinical(60, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := Save(path, &State{Relation: ds.Rel}); err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	if err := Save(path, &State{Relation: ds.Rel}); err != nil {
		t.Fatalf("Save 2: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after saves: %v", names)
	}
}
