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

// stateFields are one dependency state's multisets inside the
// substrate, as views of the payload, and the payload offsets of its
// antecedent (where its entry starts) and of the end of its entry.
type stateFields struct {
	d                        core.OFD
	at, end                  int
	lens, countVals, countNs []int32
}

// monitorFields are the monitor body's dependencies and the payload
// offsets of their antecedents.
type monitorFields struct {
	sigma   core.Set
	sigmaAt []int
}

// trackerFields are one cover tracker's table and state (indexes into
// the substrate's) and the payload offset of its antecedent.
type trackerFields struct {
	table, state, rhs int
	lhsAt             int
}

// pipelineFields are the substrate's tables and states and the engine
// bodies of a pipeline payload, and the payload offsets of the state
// count and of the border antecedents.
type pipelineFields struct {
	tables   []tableFields
	statesAt int
	states   []stateFields
	monitor  monitorFields
	trackers []trackerFields
	borderAt []int
}

// tableOf returns the index of the table over x.
func (f *pipelineFields) tableOf(x relation.AttrSet) int {
	return slices.IndexFunc(f.tables, func(tf tableFields) bool { return tf.x == x })
}

// stateOf returns the index of the state of d.
func (f *pipelineFields) stateOf(d core.OFD) int {
	return slices.IndexFunc(f.states, func(sf stateFields) bool { return sf.d == d })
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
	f.statesAt = len(payload) - r.Remaining()
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		sf := stateFields{d: core.OFD{LHS: x, RHS: r.Int()}, at: at}
		sf.lens, sf.countVals, sf.countNs = r.Int32s(), r.Int32s(), r.Int32s()
		sf.end = len(payload) - r.Remaining()
		f.states = append(f.states, sf)
	}
	m := &f.monitor
	for k := r.Int(); k > 0 && r.Err() == nil; k-- {
		x, at := antecedentAt(r, payload)
		m.sigma = append(m.sigma, core.OFD{LHS: x, RHS: r.Int()})
		m.sigmaAt = append(m.sigmaAt, at)
	}
	r.Uvarint() // epoch
	r.Uvarint() // maintainer epoch
	r.Uvarint() // scans
	nCols := r.Int()
	for c := 0; c < nCols && r.Err() == nil; c++ {
		for k := r.Int(); k > 0 && r.Err() == nil; k-- {
			x, at := antecedentAt(r, payload)
			d := core.OFD{LHS: x, RHS: c}
			f.trackers = append(f.trackers, trackerFields{table: f.tableOf(x), state: f.stateOf(d), rhs: c, lhsAt: at})
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

// firstCounts returns the state of the first monitored dependency with
// a non-empty multiset.
func firstCounts(t *testing.T, f *pipelineFields) stateFields {
	t.Helper()
	for _, d := range f.monitor.sigma {
		if sf := f.states[f.stateOf(d)]; len(sf.countNs) > 0 {
			return sf
		}
	}
	t.Fatal("no multiset of a monitored dependency")
	return stateFields{}
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
			firstCounts(t, f).countNs[0]++
		}},
		{"multiset count zero", func(f *pipelineFields) {
			firstCounts(t, f).countNs[0] = 0
		}},
		{"multiset value past the dictionary", func(f *pipelineFields) {
			firstCounts(t, f).countVals[0] = 1 << 29
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
// its rows; a multiset must count its class's rows in the consequent's
// dictionary; and a cover element must hold, so no class of its state
// may violate.
func TestOpenRejectsCorruptMaintainerBody(t *testing.T) {
	p, secs := savedPipeline(t)
	// tracker returns the state of the first tracker with a class, a
	// multiset pair and a lone row, and its table.
	tracker := func(f *pipelineFields) (stateFields, tableFields) {
		for _, tf := range f.trackers {
			tab, sf := f.tables[tf.table], f.states[tf.state]
			if len(tab.sizes) > 0 && len(sf.countNs) > 0 && slices.Contains(tab.rowClass, -1) {
				return sf, tab
			}
		}
		t.Fatal("no tracker with a class and a lone row")
		return stateFields{}, tableFields{}
	}
	// violate swaps one value of a cover element's multiset for another
	// value of the consequent's dictionary, keeping the values ascending,
	// so that the class's values lose their common interpretation.
	violate := func(f *pipelineFields) {
		v := p.Verifier()
		for _, tf := range f.trackers {
			sf := f.states[tf.state]
			size := relation.Value(p.Relation().Dict(tf.rhs).Size())
			pos := int32(0)
			for _, l := range sf.lens {
				vals := make([]relation.Value, l)
				for k := range vals {
					vals[k] = relation.Value(sf.countVals[pos+int32(k)])
				}
				for k := range vals {
					lo, hi := relation.NullValue, size
					if k > 0 {
						lo = vals[k-1]
					}
					if k+1 < len(vals) {
						hi = vals[k+1]
					}
					for w := lo + 1; l >= 2 && w < hi; w++ {
						swapped := slices.Clone(vals)
						swapped[k] = w
						if !v.ValuesSatisfied(tf.rhs, swapped) {
							sf.countVals[pos+int32(k)] = int32(w)
							return
						}
					}
				}
				pos += l
			}
		}
		t.Fatal("no cover element's class can be made to violate")
	}
	cases := []struct {
		name    string
		corrupt func(sf stateFields, tab tableFields)
	}{
		{"pristine", func(stateFields, tableFields) {}},
		{"row class past the classes", func(_ stateFields, tab tableFields) {
			tab.rowClass[0] = int32(len(tab.sizes))
		}},
		{"row class below -1", func(_ stateFields, tab tableFields) {
			tab.rowClass[0] = -2
		}},
		{"lone row counted into a class", func(_ stateFields, tab tableFields) {
			tab.rowClass[slices.Index(tab.rowClass, -1)] = 0
		}},
		{"class member made lone", func(_ stateFields, tab tableFields) {
			tab.rowClass[slices.Index(tab.rowClass, 0)] = -1
		}},
		{"class size above its rows", func(_ stateFields, tab tableFields) {
			tab.sizes[0]++
		}},
		{"multiset count above the class size", func(sf stateFields, _ tableFields) {
			sf.countNs[0]++
		}},
		{"multiset count zero", func(sf stateFields, _ tableFields) {
			sf.countNs[0] = 0
		}},
		{"multiset value past the dictionary", func(sf stateFields, _ tableFields) {
			sf.countVals[0] = 1 << 29
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			openCorrupted(t, p, secs, tc.name == "pristine", func(payload []byte) {
				tc.corrupt(tracker(walkPipeline(t, payload, p)))
			})
		})
	}
	t.Run("cover element with a violating class", func(t *testing.T) {
		openCorrupted(t, p, secs, false, func(payload []byte) {
			violate(walkPipeline(t, payload, p))
		})
	})
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
	// A table or a state no engine uses: the substrate holds one more
	// dependency when the pipeline is saved, and nothing takes it on
	// Open. For a lone table the dependency is over an antecedent no
	// engine holds and its state is cut out of the file; for a lone state
	// it is over an antecedent an engine holds.
	f := walkPipeline(t, secs[2].payload, p)
	t.Run("table no engine uses", func(t *testing.T) {
		last := p.Relation().NumCols() - 1
		d := core.OFD{LHS: relation.AttrSet(unused(f, last)), RHS: last}
		holdUnused(t, p, d, func(payload []byte, f *pipelineFields) []byte {
			return cutState(t, payload, f, d)
		})
	})
	t.Run("state no engine holds", func(t *testing.T) {
		x := f.tables[0].x
		for c := 0; c < p.Relation().NumCols(); c++ {
			if d := (core.OFD{LHS: x, RHS: c}); f.stateOf(d) < 0 {
				holdUnused(t, p, d, nil)
				return
			}
		}
		t.Fatalf("every dependency over %v has a state", x)
	})
}

// holdUnused encodes p while its substrate holds d for no engine, passes
// the pipeline payload through edit when it is non-nil, and asserts
// Decode rejects the file.
func holdUnused(t *testing.T, p *pipeline.Pipeline, d core.OFD, edit func(payload []byte, f *pipelineFields) []byte) {
	t.Helper()
	sub := p.Monitor().Substrate()
	if sub.State(d) != nil {
		t.Fatalf("an engine holds %v", d)
	}
	if _, err := sub.Hold(context.Background(), []core.OFD{d}, false); err != nil {
		t.Fatal(err)
	}
	img, err := Encode(&State{Pipeline: p})
	sub.Release([]core.OFD{d}, false)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		secs := splitSections(t, img)
		secs[2].payload = edit(secs[2].payload, walkPipeline(t, secs[2].payload, p))
		img = joinSections(secs...)
	}
	if _, err := Decode(img, Options{}); err == nil {
		t.Fatalf("Open accepted a dependency no engine holds")
	}
}

// cutState returns a copy of payload without the substrate's state of d,
// leaving its table. The entry must not be the first: then it starts
// where the entry before it ends, 4-byte aligned as every entry ends, so
// every later int32 array stays aligned; and the state count must stay
// one byte wide.
func cutState(t *testing.T, payload []byte, f *pipelineFields, d core.OFD) []byte {
	t.Helper()
	k := f.stateOf(d)
	if k < 1 || payload[f.statesAt] < 2 || payload[f.statesAt] >= 0x80 {
		t.Fatalf("state %d of a one-byte count %#x: cannot cut it in place", k, payload[f.statesAt])
	}
	if f.tableOf(d.LHS) < 0 {
		t.Fatalf("no table over %v", d.LHS)
	}
	sf := f.states[k]
	out := slices.Concat(payload[:sf.at], payload[sf.end:])
	out[f.statesAt]--
	return out
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
