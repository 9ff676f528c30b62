package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// monitorFields are the monitor body's arrays inside a pipeline section
// payload, decoded as views of that payload: writing an element rewrites
// the payload in place, leaving every length and offset as it was.
type monitorFields struct {
	// Per table.
	classOf [][]int32
	lens    [][]int32
	rows    [][]int32
	// Per dependency.
	countVals [][]int32
	countNs   [][]int32
	// Antecedents: each dependency's and each table's, with the offset of
	// its one-byte encoding in the payload.
	sigma   core.Set
	sigmaAt []int
	tableX  []relation.AttrSet
	tableAt []int
}

// trackerFields are one cover tracker's arrays inside a maintainer body,
// decoded as views of the payload like monitorFields: its table's
// row→class array and sizes, and its own multisets. lhsAt and tableAt
// are the payload offsets of the tracker's and its table's antecedent.
type trackerFields struct {
	rowClass, sizes    []int32
	countVals, countNs []int32
	lhsAt, tableAt     int
}

// antecedentAt reads an antecedent's uvarint from r and returns it with
// its offset in payload.
func antecedentAt(r *wire.Reader, payload []byte) (relation.AttrSet, int) {
	at := len(payload) - r.Remaining()
	return relation.AttrSet(r.Uvarint()), at
}

// walkBodies decodes the engine bodies of pipeline payload, which p
// encoded, in the layouts core.AppendMonitorBody and
// discovery.AppendMaintainerBody write. It also returns the payload
// offsets of the border antecedents.
func walkBodies(t *testing.T, payload []byte, p *pipeline.Pipeline) (*monitorFields, []trackerFields, []int) {
	t.Helper()
	r := wire.NewReader(payload)
	r.Uvarint() // follow-cover flag
	if _, err := core.DecodeSubstrate(r, p.Relation(), p.Verifier().Ontology()); err != nil {
		t.Fatalf("substrate: %v", err)
	}
	f := &monitorFields{}
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		f.sigma = append(f.sigma, core.OFD{LHS: x, RHS: r.Int()})
		f.sigmaAt = append(f.sigmaAt, at)
	}
	r.Uvarint() // epoch
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		f.tableX, f.tableAt = append(f.tableX, x), append(f.tableAt, at)
		f.classOf = append(f.classOf, r.Int32s())
		f.lens = append(f.lens, r.Int32s())
		f.rows = append(f.rows, r.Int32s())
	}
	for range f.sigma {
		r.Int32s() // pairs per class
		f.countVals = append(f.countVals, r.Int32s())
		f.countNs = append(f.countNs, r.Int32s())
	}
	r.Uvarint() // maintainer epoch
	r.Uvarint() // scans
	nCols := r.Int()
	type table struct {
		rowClass, sizes []int32
		at              int
	}
	tables := map[relation.AttrSet]table{}
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		tables[x] = table{r.Int32s(), r.Int32s(), at}
	}
	var trackers []trackerFields
	var borderAt []int
	for c := nCols; c > 0 && r.Err() == nil; c-- {
		for k := r.Int(); k > 0 && r.Err() == nil; k-- {
			x, at := antecedentAt(r, payload)
			tb := tables[x]
			tf := trackerFields{rowClass: tb.rowClass, sizes: tb.sizes, lhsAt: at, tableAt: tb.at}
			r.Int32s() // pairs per class
			tf.countVals, tf.countNs = r.Int32s(), r.Int32s()
			trackers = append(trackers, tf)
			r.Uint8s() // satisfied flags
		}
		for k := r.Int(); k > 0 && r.Err() == nil; k-- {
			_, at := antecedentAt(r, payload)
			borderAt = append(borderAt, at)
			r.Blob()   // witness key
			r.Int()    // size
			r.Int32s() // values
			r.Int32s() // multiplicities
		}
	}
	if r.Err() != nil {
		t.Fatalf("engine bodies: %v", r.Err())
	}
	return f, trackers, borderAt
}

// outsideSchema rewrites the one-byte antecedent encoding at each offset
// to also name column 6, which the six-column test relation lacks; the
// byte must encode a set of columns below 6, so it stays one byte.
func outsideSchema(t *testing.T, payload []byte, at ...int) {
	t.Helper()
	for _, k := range at {
		if payload[k] >= 1<<6 {
			t.Fatalf("antecedent byte %#x at %d is not a set of the first six columns", payload[k], k)
		}
		payload[k] |= 1 << 6
	}
}

// find returns the first table's or dependency's array that pick selects
// as non-empty.
func find[E any](t *testing.T, f *monitorFields, pick func(i int) []E) []E {
	t.Helper()
	for i := range max(len(f.classOf), len(f.countNs)) {
		if xs := pick(i); len(xs) > 0 {
			return xs
		}
	}
	t.Fatal("no array of the requested kind in the monitor body")
	return nil
}

// TestOpenRejectsCorruptMonitorBody re-encodes a saved pipeline with one
// monitor field corrupted at a time, keeping every checksum valid, and
// asserts Open fails with an error instead of panicking or restoring a
// monitor that later batches would index out of range.
func TestOpenRejectsCorruptMonitorBody(t *testing.T) {
	p, secs := savedPipeline(t)
	n := int32(p.Relation().NumRows())
	// class returns the member list of a class of at least two rows.
	class := func(f *monitorFields) []int32 {
		return find(t, f, func(i int) []int32 {
			pos := int32(0)
			for _, l := range f.lens[i] {
				if l >= 2 {
					return f.rows[i][pos : pos+l]
				}
				pos += l
			}
			return nil
		})
	}
	// length returns the lengths array from the first non-empty class on.
	length := func(f *monitorFields) []int32 {
		return find(t, f, func(i int) []int32 {
			for k, l := range f.lens[i] {
				if l > 0 {
					return f.lens[i][k:]
				}
			}
			return nil
		})
	}

	cases := []struct {
		name    string
		corrupt func(f *monitorFields)
	}{
		{"pristine", func(*monitorFields) {}},
		{"class length overrunning the rows", func(f *monitorFields) {
			length(f)[0]++
		}},
		{"class length underrunning the rows", func(f *monitorFields) {
			length(f)[0]--
		}},
		{"negative class length", func(f *monitorFields) {
			length(f)[0] = -1
		}},
		{"overlay tuple past the rows", func(f *monitorFields) {
			c := class(f)
			c[len(c)-1] = n + 5
		}},
		{"class row equal to the row count", func(f *monitorFields) {
			c := class(f)
			c[len(c)-1] = n
		}},
		{"negative overlay tuple", func(f *monitorFields) {
			class(f)[0] = -3
		}},
		{"overlay class out of order", func(f *monitorFields) {
			c := class(f)
			c[0], c[1] = c[1], c[0]
		}},
		{"class id below -1", func(f *monitorFields) {
			f.classOf[0][0] = -5
		}},
		{"class id past the dependency's classes", func(f *monitorFields) {
			f.classOf[0][0] = 1 << 20
		}},
		{"class member routed to no class", func(f *monitorFields) {
			for t, ci := range f.classOf[0] {
				if ci >= 0 {
					f.classOf[0][t] = -1
					return
				}
			}
		}},
		{"lone row given a class", func(f *monitorFields) {
			for t, ci := range f.classOf[0] {
				if ci < 0 {
					f.classOf[0][t] = 0
					return
				}
			}
		}},
		{"multiset count above the class size", func(f *monitorFields) {
			find(t, f, func(i int) []int32 { return f.countNs[i] })[0]++
		}},
		{"multiset count zero", func(f *monitorFields) {
			find(t, f, func(i int) []int32 { return f.countNs[i] })[0] = 0
		}},
		{"multiset value past the dictionary", func(f *monitorFields) {
			find(t, f, func(i int) []int32 { return f.countVals[i] })[0] = 1 << 29
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openCorrupted(t, p, secs, tc.name == "pristine", func(payload []byte) {
				f, _, _ := walkBodies(t, payload, p)
				tc.corrupt(f)
			})
		})
	}
	// A dependency whose antecedent, and its table's, names a column
	// outside the schema: the first append would index the relation past
	// its columns. The table serves that dependency alone, so the body
	// stays consistent otherwise.
	t.Run("antecedent outside the schema", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			f, _, _ := walkBodies(t, payload, p)
			for i, d := range f.sigma {
				if slices.IndexFunc(f.sigma, func(e core.OFD) bool { return e.LHS == d.LHS && e != d }) < 0 {
					outsideSchema(t, payload, f.sigmaAt[i], f.tableAt[slices.Index(f.tableX, d.LHS)])
					return
				}
			}
			t.Fatal("no dependency has a table of its own")
		})
	})
}

// savedPipeline returns a pipeline whose appends grew classes and whose
// batches moved rows between antecedent classes, and its encoded
// sections.
func savedPipeline(t *testing.T) (*pipeline.Pipeline, []section) {
	t.Helper()
	p, batch, appendRow := newTestPipeline(t, 23)
	rel := p.Relation()
	// Appends grow classes, and rewriting every column of some rows moves
	// them between antecedent classes.
	if _, err := p.AppendRows([][]string{appendRow(), appendRow(), appendRow()}); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	for _, st := range []step{dirtyRows(rel, 6, 11), {ups: batch()}} {
		if _, err := st.apply(p); err != nil {
			t.Fatalf("batch: %v", err)
		}
	}
	img, err := Encode(&State{Pipeline: p})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return p, splitSections(t, img)
}

// openCorrupted writes p's sections with corrupt applied to a copy of the
// pipeline payload and opens the file. A pristine copy must open and
// report as p does; any other must fail with an error, not a panic.
func openCorrupted(t *testing.T, p *pipeline.Pipeline, secs []section, pristine bool, corrupt func(payload []byte)) {
	t.Helper()
	payload := append([]byte(nil), secs[2].payload...)
	corrupt(payload)
	if pristine != bytes.Equal(payload, secs[2].payload) {
		t.Fatal("the corruption did not land in the payload")
	}
	path := filepath.Join(t.TempDir(), "case.snap")
	if err := os.WriteFile(path, joinSections(secs[0], secs[1], section{secs[2].name, payload}), 0o644); err != nil {
		t.Fatal(err)
	}
	var st *State
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Open panicked: %v", r)
			}
		}()
		st, err = Open(path, Options{})
	}()
	if pristine {
		if err != nil {
			t.Fatalf("pristine re-encode failed to open: %v", err)
		}
		if got, want := reportJSON(t, st.Pipeline.Report()), reportJSON(t, p.Report()); got != want {
			t.Fatalf("pristine re-encode reports differently\n got %s\nwant %s", got, want)
		}
		if got, want := fmt.Sprint(st.Pipeline.Cover()), fmt.Sprint(p.Cover()); got != want {
			t.Fatalf("pristine re-encode holds another cover\n got %s\nwant %s", got, want)
		}
		return
	}
	if err == nil {
		t.Fatal("Open accepted the corrupted engine body")
	}
}

// TestOpenRejectsCorruptMaintainerBody re-encodes a saved pipeline with
// one cover tracker's row→class table or multisets corrupted at a time,
// keeping every checksum valid, and asserts Open fails with an error: the
// key maps are rebuilt from that table on the first batch, which must
// never index a class out of range or key a class whose size disagrees
// with its rows, and a multiset must count its class's rows in the
// consequent's dictionary.
func TestOpenRejectsCorruptMaintainerBody(t *testing.T) {
	p, secs := savedPipeline(t)
	// tracker returns the first tracker with a class, a multiset pair and
	// a lone row.
	tracker := func(trackers []trackerFields) trackerFields {
		for _, tf := range trackers {
			if len(tf.sizes) > 0 && len(tf.countNs) > 0 && slices.Contains(tf.rowClass, -1) {
				return tf
			}
		}
		t.Fatal("no tracker with a class and a lone row")
		return trackerFields{}
	}
	cases := []struct {
		name    string
		corrupt func(tf trackerFields)
	}{
		{"pristine", func(trackerFields) {}},
		{"row class past the classes", func(tf trackerFields) {
			tf.rowClass[0] = int32(len(tf.sizes))
		}},
		{"row class below -1", func(tf trackerFields) {
			tf.rowClass[0] = -2
		}},
		{"lone row counted into a class", func(tf trackerFields) {
			tf.rowClass[slices.Index(tf.rowClass, -1)] = 0
		}},
		{"class member made lone", func(tf trackerFields) {
			tf.rowClass[slices.Index(tf.rowClass, 0)] = -1
		}},
		{"class size above its rows", func(tf trackerFields) {
			tf.sizes[0]++
		}},
		{"multiset count above the class size", func(tf trackerFields) {
			tf.countNs[0]++
		}},
		{"multiset count zero", func(tf trackerFields) {
			tf.countNs[0] = 0
		}},
		{"multiset value past the dictionary", func(tf trackerFields) {
			tf.countVals[0] = 1 << 29
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openCorrupted(t, p, secs, tc.name == "pristine", func(payload []byte) {
				_, trackers, _ := walkBodies(t, payload, p)
				tc.corrupt(tracker(trackers))
			})
		})
	}
	// A tracker whose antecedent, and its table's, names a column outside
	// the schema: the first batch would index the relation past its
	// columns. A border node's antecedent is checked too (its witness key
	// then also has the wrong width).
	t.Run("tracker antecedent outside the schema", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			_, trackers, _ := walkBodies(t, payload, p)
			for _, tf := range trackers {
				if slices.IndexFunc(trackers, func(e trackerFields) bool { return e.tableAt == tf.tableAt && e.lhsAt != tf.lhsAt }) < 0 {
					outsideSchema(t, payload, tf.lhsAt, tf.tableAt)
					return
				}
			}
			t.Fatal("no tracker has a table of its own")
		})
	})
	t.Run("border antecedent outside the schema", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			_, _, borderAt := walkBodies(t, payload, p)
			outsideSchema(t, payload, borderAt[0])
		})
	})
}

// TestReopenedPipelineAbsorbsAntecedentMoves saves a pipeline whose
// monitor has moved rows between classes, reopens it, and runs antecedent
// batches first (the first one rebuilds both engines' key maps from the
// saved row→class tables, the monitor's from the batch's source state),
// then an append: after each step the report equals a fresh Detect of the
// monitored set and the cover a fresh Discover.
func TestReopenedPipelineAbsorbsAntecedentMoves(t *testing.T) {
	p, batch, appendRow := newTestPipeline(t, 29)
	rel := p.Relation()
	if _, err := dirtyRows(rel, 8, 5).apply(p); err != nil {
		t.Fatalf("batch: %v", err)
	}
	rp := saveOpen(t, &State{Pipeline: p}, Options{Workers: 2}).Pipeline
	rel = rp.Relation()
	for k, st := range []step{dirtyRows(rel, 12, 17), {ups: batch()}, dirtyRows(rel, 4, 40), {rows: [][]string{appendRow(), appendRow()}}} {
		if _, err := st.apply(rp); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		sigma := rp.Monitor().Sigma()
		if got, want := reportJSON(t, rp.Report()), reportJSON(t, core.Detect(rel, rp.Monitor().Ontology(), sigma)); got != want {
			t.Fatalf("step %d: reopened pipeline's report diverged from Detect\n got %s\nwant %s", k, got, want)
		}
		checkFresh(t, fmt.Sprintf("step %d", k), rp, nil)
	}
}
