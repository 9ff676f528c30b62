package snapshot

import (
	"bytes"
	"context"
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

// tableFields are one class table's arrays inside a pipeline section
// payload's substrate, decoded as views of that payload: writing an
// element rewrites the payload in place, leaving every length and offset
// as it was. at is the payload offset of the table's antecedent, and
// members the member lists back to back (nil without lists).
type tableFields struct {
	x                        relation.AttrSet
	at                       int
	rowClass, sizes, members []int32
}

// monitorFields are the monitor body's arrays: per dependency its
// antecedent's payload offset and its multisets' values and counts.
type monitorFields struct {
	sigma     core.Set
	sigmaAt   []int
	countVals [][]int32
	countNs   [][]int32
}

// trackerFields are one cover tracker's arrays inside the maintainer
// body: its table (an index into the tables), its own multisets, and the
// payload offset of its antecedent.
type trackerFields struct {
	table, rhs         int
	countVals, countNs []int32
	lhsAt              int
}

// pipelineFields are the substrate's tables and the engine bodies of a
// pipeline payload, and the payload offsets of the border antecedents.
type pipelineFields struct {
	tables   []tableFields
	monitor  monitorFields
	trackers []trackerFields
	borderAt []int
}

// tableOf returns the index of the table over x.
func (f *pipelineFields) tableOf(x relation.AttrSet) int {
	return slices.IndexFunc(f.tables, func(tf tableFields) bool { return tf.x == x })
}

// antecedentAt reads an antecedent's uvarint from r and returns it with
// its offset in payload.
func antecedentAt(r *wire.Reader, payload []byte) (relation.AttrSet, int) {
	at := len(payload) - r.Remaining()
	return relation.AttrSet(r.Uvarint()), at
}

// walkPipeline decodes pipeline payload, which p encoded, in the layouts
// core.AppendSubstrate, core.AppendMonitorBody and
// discovery.AppendMaintainerBody write.
func walkPipeline(t *testing.T, payload []byte, p *pipeline.Pipeline) *pipelineFields {
	t.Helper()
	r := wire.NewReader(payload)
	r.Uvarint() // follow-cover flag
	if _, err := relation.DecodePartitionCache(r, p.Relation()); err != nil {
		t.Fatalf("cache: %v", err)
	}
	for c := r.Int(); c > 0 && r.Err() == nil; c-- { // verifier tables
		r.Int() // table length
		for k := r.Int(); k > 0 && r.Err() == nil; k-- {
			r.Int() // value id
			for n := r.Int(); n > 0; n-- {
				r.Uvarint() // ontology class
			}
		}
		r.Bool() // covered
	}
	f := &pipelineFields{}
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		tf := tableFields{x: x, at: at, rowClass: r.Int32s(), sizes: r.Int32s()}
		if r.Bool() {
			tf.members = r.Int32s()
		}
		f.tables = append(f.tables, tf)
	}
	m := &f.monitor
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		m.sigma = append(m.sigma, core.OFD{LHS: x, RHS: r.Int()})
		m.sigmaAt = append(m.sigmaAt, at)
	}
	r.Uvarint() // epoch
	for range m.sigma {
		r.Int32s() // pairs per class
		m.countVals = append(m.countVals, r.Int32s())
		m.countNs = append(m.countNs, r.Int32s())
	}
	r.Uvarint() // maintainer epoch
	r.Uvarint() // scans
	nCols := r.Int()
	for c := 0; c < nCols && r.Err() == nil; c++ {
		for k := r.Int(); k > 0 && r.Err() == nil; k-- {
			x, at := antecedentAt(r, payload)
			tf := trackerFields{table: f.tableOf(x), rhs: c, lhsAt: at}
			r.Int32s() // pairs per class
			tf.countVals, tf.countNs = r.Int32s(), r.Int32s()
			f.trackers = append(f.trackers, tf)
			r.Uint8s() // satisfied flags
		}
		for k := r.Int(); k > 0 && r.Err() == nil; k-- {
			_, at := antecedentAt(r, payload)
			f.borderAt = append(f.borderAt, at)
			r.Blob()   // witness key
			r.Int()    // size
			r.Int32s() // pairs per class
			r.Int32s() // values
			r.Int32s() // multiplicities
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("pipeline payload: %v with %d bytes left", r.Err(), r.Remaining())
	}
	return f
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

// memberTable returns the first table with member lists and a class of
// at least two rows.
func memberTable(t *testing.T, f *pipelineFields) tableFields {
	t.Helper()
	for _, tf := range f.tables {
		if tf.members != nil && slices.ContainsFunc(tf.sizes, func(n int32) bool { return n >= 2 }) {
			return tf
		}
	}
	t.Fatal("no table with member lists and a class of two rows")
	return tableFields{}
}

// firstCounts returns the first dependency's non-empty multiset array
// that pick selects.
func firstCounts(t *testing.T, f *pipelineFields, pick func(i int) []int32) []int32 {
	t.Helper()
	for i := range f.monitor.sigma {
		if xs := pick(i); len(xs) > 0 {
			return xs
		}
	}
	t.Fatal("no multiset in the monitor body")
	return nil
}

// TestOpenRejectsCorruptMonitorBody re-encodes a saved pipeline with one
// field a monitored dependency reads corrupted at a time — its table's
// member lists, sizes and row→class array, or its own multisets —
// keeping every checksum valid, and asserts Open fails with an error
// instead of panicking or restoring a monitor that later batches would
// index out of range.
func TestOpenRejectsCorruptMonitorBody(t *testing.T) {
	p, secs := savedPipeline(t)
	n := int32(p.Relation().NumRows())
	// class returns the member list of a class of at least two rows.
	class := func(tf tableFields) []int32 {
		pos := int32(0)
		for _, l := range tf.sizes {
			if l >= 2 {
				return tf.members[pos : pos+l]
			}
			pos += l
		}
		return nil
	}
	// length returns the sizes from the first non-empty class on.
	length := func(tf tableFields) []int32 {
		return tf.sizes[slices.IndexFunc(tf.sizes, func(l int32) bool { return l > 0 }):]
	}
	cases := []struct {
		name    string
		corrupt func(f *pipelineFields)
	}{
		{"pristine", func(*pipelineFields) {}},
		{"class length overrunning the rows", func(f *pipelineFields) {
			length(memberTable(t, f))[0]++
		}},
		{"class length underrunning the rows", func(f *pipelineFields) {
			length(memberTable(t, f))[0]--
		}},
		{"negative class length", func(f *pipelineFields) {
			length(memberTable(t, f))[0] = -1
		}},
		{"overlay tuple past the rows", func(f *pipelineFields) {
			c := class(memberTable(t, f))
			c[len(c)-1] = n + 5
		}},
		{"class row equal to the row count", func(f *pipelineFields) {
			c := class(memberTable(t, f))
			c[len(c)-1] = n
		}},
		{"negative overlay tuple", func(f *pipelineFields) {
			class(memberTable(t, f))[0] = -3
		}},
		{"overlay class out of order", func(f *pipelineFields) {
			c := class(memberTable(t, f))
			c[0], c[1] = c[1], c[0]
		}},
		{"class id below -1", func(f *pipelineFields) {
			memberTable(t, f).rowClass[0] = -5
		}},
		{"class id past the dependency's classes", func(f *pipelineFields) {
			memberTable(t, f).rowClass[0] = 1 << 20
		}},
		{"class member routed to no class", func(f *pipelineFields) {
			tf := memberTable(t, f)
			tf.rowClass[slices.IndexFunc(tf.rowClass, func(ci int32) bool { return ci >= 0 })] = -1
		}},
		{"lone row given a class", func(f *pipelineFields) {
			tf := memberTable(t, f)
			tf.rowClass[slices.Index(tf.rowClass, -1)] = 0
		}},
		{"multiset count above the class size", func(f *pipelineFields) {
			firstCounts(t, f, func(i int) []int32 { return f.monitor.countNs[i] })[0]++
		}},
		{"multiset count zero", func(f *pipelineFields) {
			firstCounts(t, f, func(i int) []int32 { return f.monitor.countNs[i] })[0] = 0
		}},
		{"multiset value past the dictionary", func(f *pipelineFields) {
			firstCounts(t, f, func(i int) []int32 { return f.monitor.countVals[i] })[0] = 1 << 29
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openCorrupted(t, p, secs, tc.name == "pristine", func(payload []byte) {
				tc.corrupt(walkPipeline(t, payload, p))
			})
		})
	}
	// A dependency whose antecedent names a column outside the schema:
	// the first append would index the relation past its columns.
	t.Run("antecedent outside the schema", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			f := walkPipeline(t, payload, p)
			outsideSchema(t, payload, f.monitor.sigmaAt[0])
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
// one cover tracker's table or multisets corrupted at a time, keeping
// every checksum valid, and asserts Open fails with an error: the key
// maps are rebuilt from that table on the first batch, which must never
// index a class out of range or key a class whose size disagrees with
// its rows, and a multiset must count its class's rows in the
// consequent's dictionary.
func TestOpenRejectsCorruptMaintainerBody(t *testing.T) {
	p, secs := savedPipeline(t)
	// tracker returns the first tracker with a class, a multiset pair and
	// a lone row, and its table.
	tracker := func(f *pipelineFields) (trackerFields, tableFields) {
		for _, tf := range f.trackers {
			tab := f.tables[tf.table]
			if len(tab.sizes) > 0 && len(tf.countNs) > 0 && slices.Contains(tab.rowClass, -1) {
				return tf, tab
			}
		}
		t.Fatal("no tracker with a class and a lone row")
		return trackerFields{}, tableFields{}
	}
	cases := []struct {
		name    string
		corrupt func(tf trackerFields, tab tableFields)
	}{
		{"pristine", func(trackerFields, tableFields) {}},
		{"row class past the classes", func(_ trackerFields, tab tableFields) {
			tab.rowClass[0] = int32(len(tab.sizes))
		}},
		{"row class below -1", func(_ trackerFields, tab tableFields) {
			tab.rowClass[0] = -2
		}},
		{"lone row counted into a class", func(_ trackerFields, tab tableFields) {
			tab.rowClass[slices.Index(tab.rowClass, -1)] = 0
		}},
		{"class member made lone", func(_ trackerFields, tab tableFields) {
			tab.rowClass[slices.Index(tab.rowClass, 0)] = -1
		}},
		{"class size above its rows", func(_ trackerFields, tab tableFields) {
			tab.sizes[0]++
		}},
		{"multiset count above the class size", func(tf trackerFields, _ tableFields) {
			tf.countNs[0]++
		}},
		{"multiset count zero", func(tf trackerFields, _ tableFields) {
			tf.countNs[0] = 0
		}},
		{"multiset value past the dictionary", func(tf trackerFields, _ tableFields) {
			tf.countVals[0] = 1 << 29
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openCorrupted(t, p, secs, tc.name == "pristine", func(payload []byte) {
				tc.corrupt(tracker(walkPipeline(t, payload, p)))
			})
		})
	}
	// A tracker whose antecedent names a column outside the schema: the
	// first batch would index the relation past its columns. A border
	// node's antecedent is checked too (its witness key then also has the
	// wrong width).
	t.Run("tracker antecedent outside the schema", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			outsideSchema(t, payload, walkPipeline(t, payload, p).trackers[0].lhsAt)
		})
	})
	t.Run("border antecedent outside the schema", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			outsideSchema(t, payload, walkPipeline(t, payload, p).borderAt[0])
		})
	})
}

// TestOpenRejectsCorruptTables re-encodes a saved pipeline with the
// substrate's table section corrupted, keeping every checksum valid, and
// asserts Open fails with an error: a table over an antecedent outside
// the schema, a row→class entry out of range, a class size that
// disagrees with its rows, a table no engine uses, and a dependency or
// tracker whose antecedent has no table.
func TestOpenRejectsCorruptTables(t *testing.T) {
	p, secs := savedPipeline(t)
	// unused returns the one-byte encoding of an antecedent over the
	// first six columns, without column skip, that no table is over.
	unused := func(f *pipelineFields, skip int) byte {
		for x := relation.AttrSet(1); x < 1<<6; x++ {
			if f.tableOf(x) < 0 && !x.Has(skip) {
				return byte(x)
			}
		}
		t.Fatal("every antecedent has a table")
		return 0
	}
	cases := []struct {
		name    string
		corrupt func(payload []byte, f *pipelineFields)
	}{
		{"table antecedent outside the schema", func(payload []byte, f *pipelineFields) {
			outsideSchema(t, payload, f.tables[0].at)
		}},
		{"row class out of range", func(_ []byte, f *pipelineFields) {
			f.tables[len(f.tables)-1].rowClass[0] = int32(len(f.tables[len(f.tables)-1].sizes))
		}},
		{"class size mismatch", func(_ []byte, f *pipelineFields) {
			tab := f.tables[len(f.tables)-1]
			tab.sizes[slices.IndexFunc(tab.sizes, func(n int32) bool { return n > 0 })]--
		}},
		{"dependency with no table", func(payload []byte, f *pipelineFields) {
			d := f.monitor.sigma[0]
			payload[f.monitor.sigmaAt[0]] = unused(f, d.RHS)
		}},
		{"tracker with no table", func(payload []byte, f *pipelineFields) {
			tr := f.trackers[0]
			payload[tr.lhsAt] = unused(f, tr.rhs)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openCorrupted(t, p, secs, false, func(payload []byte) {
				tc.corrupt(payload, walkPipeline(t, payload, p))
			})
		})
	}
	// A table no engine uses: the substrate holds one more table when the
	// pipeline is saved, and nothing takes it on Open.
	t.Run("table no engine uses", func(t *testing.T) {
		sub := p.Monitor().Substrate()
		f := walkPipeline(t, secs[2].payload, p)
		x := relation.AttrSet(unused(f, -1))
		if _, err := sub.Hold(context.Background(), []relation.AttrSet{x}, false); err != nil {
			t.Fatal(err)
		}
		defer sub.Release([]relation.AttrSet{x}, false)
		img, err := Encode(&State{Pipeline: p})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(img, Options{}); err == nil {
			t.Fatal("Open accepted a table no engine uses")
		}
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
