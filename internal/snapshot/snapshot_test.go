package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// newTestMaintainer builds a standalone maintainer over ds on a fresh
// substrate.
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
func newTestMonitor(ds *gen.Dataset, workers int) (*core.Monitor, error) {
	sub, err := core.NewSubstrate(context.Background(), ds.Rel, ds.Ont, workers)
	if err != nil {
		return nil, err
	}
	return core.NewMonitor(context.Background(), sub, ds.Sigma, workers, nil)
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

// TestCacheRoundTrip pins the substrate's cache inside the pipeline
// section: after the round trip the restored cache holds the saved entries
// and bytes, and every partition matches the saved one.
func TestCacheRoundTrip(t *testing.T) {
	ds := gen.Clinical(300, 2)
	p := newDatasetPipeline(t, ds, ds.Sigma, 1)
	pc := p.Cache()
	for _, d := range ds.Sigma {
		pc.Get(d.LHS)
		pc.Get(d.LHS.With(d.RHS))
	}
	before := pc.Stats()

	got := saveOpen(t, &State{Pipeline: p}, Options{})
	rp := got.Pipeline
	after := rp.Cache().Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("cache shape changed: got %d entries / %d bytes, want %d / %d",
			after.Entries, after.Bytes, before.Entries, before.Bytes)
	}
	for _, d := range ds.Sigma {
		for _, x := range []relation.AttrSet{d.LHS, d.LHS.With(d.RHS)} {
			want, have := pc.Get(x), rp.Cache().Get(x)
			if want.NumClasses() != have.NumClasses() || want.N != have.N ||
				!reflect.DeepEqual(want.Tuples, have.Tuples) || !reflect.DeepEqual(want.Offsets, have.Offsets) {
				t.Fatalf("partition %v differs after restore", x)
			}
		}
	}
}

// TestCombinedStateSharing checks that a reopened pipeline's monitor and
// maintainer share one substrate, and through it the restored relation,
// cache and ontology.
func TestCombinedStateSharing(t *testing.T) {
	ds := gen.Clinical(300, 6)
	p := newDatasetPipeline(t, ds, ds.Sigma, 1)
	got := saveOpen(t, &State{Pipeline: p}, Options{})
	rp := got.Pipeline
	if rp.Relation() != got.Relation || rp.Monitor().Relation() != got.Relation || rp.Maintainer().Substrate().Relation() != got.Relation {
		t.Fatal("restored engines do not share the restored relation")
	}
	if rp.Monitor().Substrate() != rp.Maintainer().Substrate() {
		t.Fatal("restored engines do not share one substrate")
	}
	if rp.Monitor().Substrate().Cache() != rp.Cache() {
		t.Fatal("restored monitor does not share the restored cache")
	}
	if got.Ontology == nil || rp.Monitor().Ontology() != got.Ontology {
		t.Fatal("restored engines do not share the restored ontology")
	}
}

func TestSaveRejectsMismatchedComponents(t *testing.T) {
	ds1 := gen.Clinical(50, 7)
	ds2 := gen.Clinical(50, 8)
	p := newDatasetPipeline(t, ds2, ds2.Sigma, 1)
	if err := Save(filepath.Join(t.TempDir(), "x.snap"), &State{Relation: ds1.Rel, Pipeline: p}); err == nil {
		t.Fatal("Save accepted a pipeline over a different relation")
	}
}

// section is one framed section of a snapshot image.
type section struct {
	name    string
	payload []byte
}

// splitSections parses an image's section table.
func splitSections(t *testing.T, img []byte) []section {
	t.Helper()
	r := wire.NewReader(img)
	r.Uint64() // magic
	r.Uint32() // version
	n := int(r.Uint32())
	var out []section
	for k := 0; k < n; k++ {
		name := r.String()
		r.Uint32()
		out = append(out, section{name, r.AlignedBlob()})
	}
	if r.Err() != nil {
		t.Fatalf("section table: %v", r.Err())
	}
	return out
}

// joinSections frames sections into a CRC-valid image.
func joinSections(secs ...section) []byte {
	var w wire.Writer
	w.Uint64(magic)
	w.Uint32(Version)
	w.Uint32(uint32(len(secs)))
	for _, s := range secs {
		w.String(s.name)
		w.Uint32(crc32.Checksum(s.payload, castagnoli))
		w.AlignedBlob(s.payload)
	}
	return w.Bytes()
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
	// A future version, version 4, whose monitor body had another layout,
	// version 5, whose engine bodies carried key indexes, version 6, whose
	// monitor body split each dependency across key shards, version 7,
	// which wrote a row→class table per dependency, version 8, whose
	// engine bodies each wrote their own class tables, and version 9,
	// whose engine bodies each wrote their own multisets.
	t.Run("future version", func(t *testing.T) {
		for _, v := range []byte{0xee, 4, 5, 6, 7, 8, 9} {
			bad := append([]byte(nil), img...)
			bad[8] = v // version field (LE uint32 right after the magic)
			if _, err := Decode(bad, Options{}); err == nil {
				t.Fatalf("unsupported version %d not detected", v)
			}
		}
	})
	t.Run("empty file", func(t *testing.T) {
		if _, err := Decode(nil, Options{}); err == nil {
			t.Fatal("empty image not detected")
		}
	})
	// The header's section count is not checksummed: a count past the
	// image's end must fail closed, not allocate for it.
	for _, count := range []uint32{0xffffffff, 1 << 31} {
		t.Run(fmt.Sprintf("section count %#x", count), func(t *testing.T) {
			var w wire.Writer
			w.Uint64(magic)
			w.Uint32(Version)
			w.Uint32(count)
			if _, err := Decode(w.Bytes(), Options{}); err == nil {
				t.Fatal("header-only image with a huge section count decoded")
			}
			bad := append([]byte(nil), img...)
			binary.LittleEndian.PutUint32(bad[12:], count)
			if _, err := Decode(bad, Options{}); err == nil {
				t.Fatal("section count past the image's end not detected")
			}
		})
	}

	// CRC-valid images whose known sections repeat or arrive out of order
	// are rejected; unknown sections are skipped.
	p, batch, _ := newTestPipeline(t, 9)
	if _, err := p.ApplyBatch(context.Background(), batch()); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	pimg, err := Encode(&State{Pipeline: p})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	secs := splitSections(t, pimg)
	rel, ont, pipe := secs[0], secs[1], secs[2]
	unknown := section{"from-the-future", []byte("payload")}
	for _, tc := range []struct {
		name string
		secs []section
		ok   bool
	}{
		{"in order", []section{rel, ont, pipe}, true},
		{"unknown section skipped", []section{rel, unknown, ont, pipe, unknown}, true},
		{"relation after pipeline", []section{rel, ont, pipe, rel}, false},
		{"repeated relation", []section{rel, rel, ont, pipe}, false},
		{"repeated ontology", []section{rel, ont, ont, pipe}, false},
		{"repeated pipeline", []section{rel, ont, pipe, pipe}, false},
		{"ontology before relation", []section{ont, rel, pipe}, false},
		{"pipeline before ontology", []section{rel, pipe, ont}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(joinSections(tc.secs...), Options{})
			if tc.ok && err != nil {
				t.Fatalf("decode failed: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("decode accepted the section order")
			}
		})
	}
}

// TestSaveMatchesEncode pins the streamed writer: the file Save writes is
// byte-identical to Encode's image, section padding included, for a
// relation-only state and for a mutated pipeline.
func TestSaveMatchesEncode(t *testing.T) {
	p, batch, appendRow := newTestPipeline(t, 13)
	if _, err := p.ApplyBatch(context.Background(), batch()); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if _, err := p.AppendRows([][]string{appendRow()}); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	for name, st := range map[string]*State{
		"relation": {Relation: gen.Clinical(70, 12).Rel},
		"pipeline": {Pipeline: p},
	} {
		img, err := Encode(st)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), "state.snap")
		if err := Save(path, st); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: ReadFile: %v", name, err)
		}
		if !bytes.Equal(file, img) {
			t.Fatalf("%s: saved file (%d bytes) differs from Encode's image (%d bytes)", name, len(file), len(img))
		}
	}
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
