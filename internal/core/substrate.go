package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// CellUpdate is one cell write of a batched update: set cell (Row, Col) to
// Value.
type CellUpdate struct {
	Row, Col int
	Value    string
}

// CellWrite is one effective cell write of a batch, with the pre-batch
// value retained for undo. Substrate.Apply produces them, and both
// incremental engines absorb the same log.
type CellWrite = live.CellWrite

// Touched returns the columns a write log rewrites.
func Touched(writes []CellWrite) relation.AttrSet {
	var touched relation.AttrSet
	for _, wr := range writes {
		touched = touched.With(wr.Col)
	}
	return touched
}

// Substrate is the live index the incremental engines answer from: one
// relation, one partition cache and one verifier over both, one class
// table (live.Table) per antecedent any engine holds, and one consequent
// state (DepState) per dependency any engine holds. Both engines run on
// one — the merged pipeline hands the same one to its monitor and its
// maintainer — so they share every partition, table and state.
//
// The substrate is the only code that writes the relation, moves table
// rows and folds consequent states: Apply and Undo for cell writes,
// Append for new tuples. Each keeps the cache consistent with the
// relation and moves every table and folds every state the batch touches
// once; the engines read the verdicts.
type Substrate struct {
	v       *Verifier
	workers int

	// seen maps (row, col) to the cell's index in writes while Apply
	// folds a batch; writes is the current batch's effective write log.
	seen   map[int64]int
	writes []CellWrite

	// tables holds the class table of every antecedent an engine holds,
	// and moved the tables the current batch moved.
	tables map[relation.AttrSet]*heldTable
	moved  []*live.Table

	// states holds the consequent state of every dependency an engine
	// holds, and folded the states the current batch folded.
	states map[OFD]*DepState
	folded []*DepState
}

// heldTable is one antecedent's table and its holders: every dependency
// of either engine over the antecedent holds it once, and every
// monitored one also holds its member lists.
type heldTable struct {
	tab            *live.Table
	holds, members int
}

// NewSubstrate builds the substrate over rel and ont: a fresh partition
// cache (single-column partitions spread over up to workers goroutines)
// bounded by relation.DefaultCacheBudget. A cancelled build returns an
// error satisfying errors.Is(err, ctx.Err()).
func NewSubstrate(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, workers int) (*Substrate, error) {
	pc, err := relation.NewPartitionCacheContext(ctx, rel, workers)
	if err != nil {
		return nil, err
	}
	pc.SetBudget(relation.DefaultCacheBudget)
	return newSubstrate(NewVerifier(rel, ont, pc), workers), nil
}

// newSubstrate returns a substrate over v holding no tables and no
// states; workers bounds the fan-out of its builds, moves and folds.
func newSubstrate(v *Verifier, workers int) *Substrate {
	return &Substrate{v: v, workers: workers, tables: make(map[relation.AttrSet]*heldTable), states: make(map[OFD]*DepState)}
}

// AppendSubstrate encodes sub as one unit: the partition cache's entries,
// the verifier's memoized names tables, the class tables (see
// appendTables), then the consequent states (see appendStates). Must not
// run concurrently with mutations.
func AppendSubstrate(w *wire.Writer, sub *Substrate) {
	sub.Cache().AppendTo(w)
	appendVerifierTables(w, sub.v)
	appendTables(w, sub)
	appendStates(w, sub)
}

// DecodeSubstrate is NewSubstrate over a payload AppendSubstrate wrote: the
// restored cache (bounded by relation.DefaultCacheBudget, like a built
// one), the verifier tables, the class tables and the consequent states,
// skipping partition construction, per-value ontology resolution, table
// builds and multiset counts; each state's verdicts are derived from its
// multisets. The tables and states come back held by nobody until the
// engine bodies hold theirs; CheckHolds then rejects one no engine took.
func DecodeSubstrate(r *wire.Reader, rel *relation.Relation, ont *ontology.Ontology, workers int) (*Substrate, error) {
	pc, err := relation.DecodePartitionCache(r, rel)
	if err != nil {
		return nil, err
	}
	v, err := decodeVerifier(r, rel, ont, pc)
	if err != nil {
		return nil, err
	}
	s := newSubstrate(v, workers)
	if err := decodeTables(r, s); err != nil {
		return nil, err
	}
	if err := decodeStates(r, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Hold registers one holder of the state of each dependency in ds (a
// dependency listed twice is held twice), and of the table over its
// antecedent, and returns the states, aligned with ds. An antecedent no
// engine holds yet gets a table built from its (typically cached)
// partition, a dependency no engine holds yet a state counted in one pass
// over its table's row→class array, and with members each table gets member
// lists if it has none (live.Table.BuildMembers), the builds spread over
// the workers. A cancelled build holds nothing and returns an error
// satisfying errors.Is(err, ctx.Err()). Every hold is paired with a
// Release.
func (s *Substrate) Hold(ctx context.Context, ds []OFD, members bool) ([]*DepState, error) {
	var xs []relation.AttrSet
	var todo []OFD
	for _, d := range ds {
		if s.tables[d.LHS] == nil && !slices.Contains(xs, d.LHS) {
			xs = append(xs, d.LHS)
		}
		if s.states[d] == nil && !slices.Contains(todo, d) {
			todo = append(todo, d)
		}
	}
	w := exec.Workers(s.workers)
	tabs := make([]*live.Table, len(xs))
	if err := exec.For(ctx, len(xs), w, func(_, i int) {
		tabs[i] = live.FromPartition(s.Relation(), xs[i].Attrs(), s.Cache().Get(xs[i]))
	}); err != nil {
		return nil, err
	}
	for i, x := range xs {
		s.tables[x] = &heldTable{tab: tabs[i]}
	}
	sts := make([]*DepState, len(todo))
	if err := exec.For(ctx, len(todo), w, func(_, i int) {
		d, tab := todo[i], s.tables[todo[i].LHS].tab
		sts[i] = &DepState{d: d, tab: tab, counts: live.CountClasses(tab, s.Relation().Column(d.RHS))}
		sts[i].verifyAll(s.v)
	}); err != nil {
		for _, x := range xs {
			delete(s.tables, x)
		}
		return nil, err
	}
	for i, d := range todo {
		s.states[d] = sts[i]
	}
	out := make([]*DepState, len(ds))
	var lists []*live.Table
	for i, d := range ds {
		h := s.tables[d.LHS]
		h.holds++
		if members {
			h.members++
			if h.tab.Members == nil && !slices.Contains(lists, h.tab) {
				lists = append(lists, h.tab)
			}
		}
		out[i] = s.states[d]
		out[i].holds++
	}
	_ = exec.For(context.Background(), len(lists), w, func(_, i int) {
		lists[i].BuildMembers()
	})
	return out, nil
}

// Release drops one hold of the state of each dependency in ds, and of
// the table over its antecedent, as Hold with the same members took them.
// A state goes with its last hold, a table's member lists with its last
// members hold, and a table with its last hold, each also from the
// current batch's folded states or moved tables, so nothing keeps a
// dropped one reachable.
func (s *Substrate) Release(ds []OFD, members bool) {
	for _, d := range ds {
		st := s.states[d]
		if st.holds--; st.holds == 0 {
			delete(s.states, d)
			s.folded = slices.DeleteFunc(s.folded, func(f *DepState) bool { return f == st })
		}
		h := s.tables[d.LHS]
		h.holds--
		if members {
			h.members--
			if h.members == 0 {
				h.tab.Members = nil
			}
		}
		if h.holds == 0 {
			delete(s.tables, d.LHS)
			s.moved = slices.DeleteFunc(s.moved, func(tab *live.Table) bool { return tab == h.tab })
		}
	}
}

// CheckHolds fails when a restored table or state serves no engine, or a
// table carries member lists that no monitored dependency reads: after
// every engine body decoded, each table and state a snapshot holds must
// be one a live substrate would hold.
func (s *Substrate) CheckHolds() error {
	for x, h := range s.tables {
		if h.holds == 0 {
			return fmt.Errorf("core: snapshot table over antecedent %#x serves no engine", uint64(x))
		}
		if h.members == 0 && h.tab.Members != nil {
			return fmt.Errorf("core: snapshot table over antecedent %#x has member lists no dependency reads", uint64(x))
		}
	}
	for d, st := range s.states {
		if st.holds == 0 {
			return fmt.Errorf("core: snapshot state of %v serves no engine", d)
		}
	}
	return nil
}

// State returns the consequent state of dependency d, or nil when no
// engine holds d.
func (s *Substrate) State(d OFD) *DepState { return s.states[d] }

// Table returns the table of antecedent x, or nil when no engine holds
// one.
func (s *Substrate) Table(x relation.AttrSet) *live.Table {
	if h := s.tables[x]; h != nil {
		return h.tab
	}
	return nil
}

// appendTables encodes the held tables in canonical order of antecedent,
// each once: its antecedent, row→class array and class sizes, then
// whether it has member lists and, if so, every class's rows back to back
// as one array. No key map and no move log is written.
func appendTables(w *wire.Writer, s *Substrate) {
	xs := make([]relation.AttrSet, 0, len(s.tables))
	for x := range s.tables {
		xs = append(xs, x)
	}
	relation.SortSets(xs)
	w.Int(len(xs))
	var flat []int32
	for _, x := range xs {
		tab := s.tables[x].tab
		w.Uvarint(uint64(x))
		w.Int32s(tab.RowClass)
		w.Int32s(tab.Sizes)
		w.Bool(tab.Members != nil)
		if tab.Members != nil {
			flat = flat[:0]
			for _, l := range tab.Members {
				flat = append(flat, l...)
			}
			w.Int32s(flat)
		}
	}
}

// decodeTables reads the tables appendTables wrote into s and checks each
// (checkTable). The row→class arrays, sizes and member lists are views of
// the bytes r reads, which the substrate then owns: later moves rewrite
// them in place.
func decodeTables(r *wire.Reader, s *Substrate) error {
	rel := s.Relation()
	all := rel.Schema().All()
	n := r.Int()
	var tabs []*live.Table
	for k := 0; k < n && r.Err() == nil; k++ {
		x := relation.AttrSet(r.Uvarint())
		tab := &live.Table{Cols: x.Attrs(), RowClass: r.Int32s(), Sizes: r.Int32s()}
		if r.Bool() {
			// The member lists are the flat array cut by the sizes, each
			// capped at its class so that its first append copies it out
			// of the snapshot buffer.
			flat, pos := r.Int32s(), 0
			tab.Members = make([][]int32, len(tab.Sizes))
			for ci, size := range tab.Sizes {
				n := int(size)
				if n < 0 || n > len(flat)-pos {
					return fmt.Errorf("core: snapshot class %d has size %d with %d listed rows left", ci, n, len(flat)-pos)
				}
				tab.Members[ci] = flat[pos : pos+n : pos+n]
				pos += n
			}
			if pos != len(flat) {
				return fmt.Errorf("core: snapshot classes list %d of %d rows", pos, len(flat))
			}
		}
		if r.Err() != nil {
			break
		}
		if !x.SubsetOf(all) {
			return fmt.Errorf("core: snapshot table antecedent %#x outside the %d-column schema", uint64(x), rel.NumCols())
		}
		if s.tables[x] != nil {
			return fmt.Errorf("core: snapshot holds two tables over antecedent %#x", uint64(x))
		}
		if len(tab.RowClass) != rel.NumRows() {
			return fmt.Errorf("core: snapshot table sized for %d rows, relation has %d", len(tab.RowClass), rel.NumRows())
		}
		s.tables[x] = &heldTable{tab: tab}
		tabs = append(tabs, tab)
	}
	if r.Err() != nil {
		return r.Err()
	}
	errs := make([]error, len(tabs))
	_ = exec.For(context.Background(), len(tabs), exec.Workers(s.workers), func(_, i int) {
		errs[i] = checkTable(tabs[i], rel.NumRows())
	})
	return errors.Join(errs...)
}

// checkTable fails closed on a restored table that no engine can run on,
// before anything reads it: every row's class is -1 or one of the
// table's classes, every class holds exactly as many rows as its size
// says, and every member list lists strictly ascending row ids below n
// (decodeTables cut the lists by the sizes). Each check reads its arrays
// in order. That a listed row's array entry names its own class goes
// unchecked: a wrong one costs correctness, not safety, and checking it
// reads the array at random once per listed row.
func checkTable(tab *live.Table, n int) error {
	nc := int32(len(tab.Sizes))
	counts := make([]int32, nc)
	for t, ci := range tab.RowClass {
		if ci < -1 || ci >= nc {
			return fmt.Errorf("core: snapshot puts row %d in class %d of %d", t, ci, nc)
		}
		if ci >= 0 {
			counts[ci]++
		}
	}
	for ci, size := range tab.Sizes {
		if counts[ci] != size {
			return fmt.Errorf("core: snapshot class %d holds %d rows, its size is %d", ci, counts[ci], size)
		}
	}
	for ci, class := range tab.Members {
		prev := int32(-1)
		for _, t := range class {
			if t <= prev || int(t) >= n {
				return fmt.Errorf("core: snapshot class %d is not ascending row ids below %d", ci, n)
			}
			prev = t
		}
	}
	return nil
}

// appendStates encodes the held consequent states in canonical Set order,
// each once: its dependency and its multisets (live.AppendCounts). The
// verdicts are not written; decodeStates derives them.
func appendStates(w *wire.Writer, s *Substrate) {
	ds := make(Set, 0, len(s.states))
	for d := range s.states {
		ds = append(ds, d)
	}
	ds.Sort()
	w.Int(len(ds))
	for _, d := range ds {
		w.Uvarint(uint64(d.LHS))
		w.Int(d.RHS)
		live.AppendCounts(w, s.states[d].counts)
	}
}

// decodeStates reads the states appendStates wrote into s, each once and
// on the restored table over its antecedent, which must exist, with
// multisets that count that table's classes in the consequent's
// dictionary (live.DecodeCounts). Then every state's verdicts are derived
// from its multisets, spread over the workers.
func decodeStates(r *wire.Reader, s *Substrate) error {
	rel := s.Relation()
	n := r.Int()
	var sts []*DepState
	for k := 0; k < n && r.Err() == nil; k++ {
		d := OFD{LHS: relation.AttrSet(r.Uvarint()), RHS: r.Int()}
		h := s.tables[d.LHS]
		if r.Err() != nil {
			break
		}
		if h == nil || d.RHS < 0 || d.RHS >= rel.NumCols() || s.states[d] != nil {
			return fmt.Errorf("core: snapshot state of %v is not the one state of a dependency over a restored table", d)
		}
		counts, err := live.DecodeCounts(r, h.tab.Sizes, rel.Dict(d.RHS).Size())
		if err != nil {
			return err
		}
		st := &DepState{d: d, tab: h.tab, counts: counts}
		s.states[d] = st
		sts = append(sts, st)
	}
	if r.Err() != nil {
		return r.Err()
	}
	_ = exec.For(context.Background(), len(sts), exec.Workers(s.workers), func(_, i int) {
		sts[i].verifyAll(s.v)
	})
	return nil
}

// Relation returns the shared relation.
func (s *Substrate) Relation() *relation.Relation { return s.v.Relation() }

// Cache returns the shared partition cache.
func (s *Substrate) Cache() *relation.PartitionCache { return s.v.Partitions() }

// Verifier returns the verifier over the shared cache.
func (s *Substrate) Verifier() *Verifier { return s.v }

// Apply writes one batch of cell updates. Every cell is validated before
// any write, so a rejected batch changes nothing. The batch then folds to
// its effective writes — each value interned, same-cell writes collapsed
// to the last one (keeping the pre-batch value as Old), writes of a
// cell's current value dropped — sorted by (row, col). The writes land in
// the relation, and the cache entries of every attribute set they touch
// are evicted: row stamps catch appends, not in-place updates. Then
// every held table whose antecedent a write rewrote moves the rows it
// wrote (live.Table.Apply), and last every held state whose antecedent
// or consequent a write rewrote folds the batch and re-verifies its
// dirty classes (foldStates), each spread over the workers. Writes
// returns the log, each moved table its move log and each folded state
// its dirty classes, until the next Apply, Undo or Append.
func (s *Substrate) Apply(updates []CellUpdate) error {
	rel := s.v.Relation()
	for _, u := range updates {
		if u.Row < 0 || u.Row >= rel.NumRows() || u.Col < 0 || u.Col >= rel.NumCols() {
			return fmt.Errorf("core: cell (%d,%d) out of range", u.Row, u.Col)
		}
	}
	if s.seen == nil {
		s.seen = make(map[int64]int, len(updates))
	}
	clear(s.seen)
	s.clearBatch()
	s.writes = s.writes[:0]
	for _, u := range updates {
		id := rel.Dict(u.Col).Intern(u.Value)
		key := int64(u.Row)<<32 | int64(u.Col)
		if k, ok := s.seen[key]; ok {
			s.writes[k].New = id
			continue
		}
		s.seen[key] = len(s.writes)
		s.writes = append(s.writes, CellWrite{Row: u.Row, Col: u.Col, Old: rel.Value(u.Row, u.Col), New: id})
	}
	eff := s.writes[:0]
	for _, wr := range s.writes {
		if wr.New != wr.Old {
			eff = append(eff, wr)
		}
	}
	s.writes = eff
	if len(eff) == 0 {
		return nil
	}
	sort.Slice(eff, func(i, j int) bool {
		if eff[i].Row != eff[j].Row {
			return eff[i].Row < eff[j].Row
		}
		return eff[i].Col < eff[j].Col
	})
	for _, wr := range eff {
		rel.SetValue(wr.Row, wr.Col, wr.New)
	}
	touched := Touched(eff)
	s.evict(touched)
	for x, h := range s.tables {
		if !x.Intersect(touched).IsEmpty() {
			s.moved = append(s.moved, h.tab)
		}
	}
	s.eachMoved(func(tab *live.Table) { tab.Apply(rel, eff) })
	s.foldStates(touched)
	return nil
}

// Undo reverses the last Apply: every folded state unfolds the batch and
// restores its multisets, verdicts and violating count exactly
// (DepState.unfold), every moved table restores its rows, classes,
// member lists and keys exactly (live.Table.Undo), every write reverts to
// its pre-batch value and the touched sets are evicted again — entries
// computed over the cancelled batch describe a state that no longer
// exists. Interned values stay in the dictionaries and names tables,
// which is harmless (both are monotone). The write log is cleared. It is
// the one rollback of both engines' tables and states. After an Append
// (appended rows stay) or an all-no-op batch it does nothing.
func (s *Substrate) Undo() {
	if len(s.writes) == 0 {
		return
	}
	rel := s.v.Relation()
	_ = exec.For(context.Background(), len(s.folded), exec.Workers(s.workers), func(_, i int) {
		s.folded[i].unfold(s.v, s.writes)
	})
	clear(s.folded)
	s.folded = s.folded[:0]
	s.eachMoved(func(tab *live.Table) { tab.Undo(rel, s.writes) })
	s.moved = s.moved[:0]
	for k := len(s.writes) - 1; k >= 0; k-- {
		wr := s.writes[k]
		rel.SetValue(wr.Row, wr.Col, wr.Old)
	}
	s.evict(Touched(s.writes))
	s.writes = s.writes[:0]
}

// eachMoved runs fn on every moved table, spread over the workers; the
// tables share no state.
func (s *Substrate) eachMoved(fn func(tab *live.Table)) {
	_ = exec.For(context.Background(), len(s.moved), exec.Workers(s.workers), func(_, i int) {
		fn(s.moved[i])
	})
}

// foldStates folds the current batch into every held state it touches —
// every one after an append (touched is then all columns), otherwise
// those whose antecedent or consequent touched meets — spread over the
// workers; the states share no mutable state.
func (s *Substrate) foldStates(touched relation.AttrSet) {
	for _, st := range s.states {
		if !st.d.LHS.With(st.d.RHS).Intersect(touched).IsEmpty() {
			s.folded = append(s.folded, st)
		}
	}
	_ = exec.For(context.Background(), len(s.folded), exec.Workers(s.workers), func(_, i int) {
		s.folded[i].fold(s.v, s.writes)
	})
}

// clearBatch ends the previous batch: the tables it moved drop their move
// logs, and the states it folded their dirty lists.
func (s *Substrate) clearBatch() {
	for _, tab := range s.moved {
		tab.ClearLog()
	}
	clear(s.moved)
	s.moved = s.moved[:0]
	for _, st := range s.folded {
		st.dirty = st.dirty[:0]
	}
	clear(s.folded)
	s.folded = s.folded[:0]
}

// Append appends tuples (strings in schema order) after checking every
// row's width. The cache then drops the entries that now trail the row
// count — lookups already refuse them, but dead partitions would hold the
// byte budget hostage — and the next lookup of a dropped set rebuilds it
// over the grown relation. This is the one way appended rows reach cached
// partitions. Every held table then joins the new rows
// (live.Table.Append), leaving its move log, and every held state folds
// the joins and re-verifies its dirty classes. The write log is cleared:
// appends rewrite no cell.
func (s *Substrate) Append(rows [][]string) error {
	rel := s.v.Relation()
	for _, row := range rows {
		if len(row) != rel.NumCols() {
			return fmt.Errorf("core: append of %d cells into %d attributes", len(row), rel.NumCols())
		}
	}
	s.clearBatch()
	s.writes = s.writes[:0]
	if len(rows) == 0 {
		return nil
	}
	t0 := rel.NumRows()
	for _, row := range rows {
		rel.AppendRow(row)
	}
	s.v.Partitions().InvalidateStale()
	for _, h := range s.tables {
		s.moved = append(s.moved, h.tab)
	}
	s.eachMoved(func(tab *live.Table) { tab.Append(rel, t0, rel.NumRows()) })
	s.foldStates(rel.Schema().All())
	return nil
}

// Writes returns the current batch's effective writes, sorted by
// (row, col): empty after an all-no-op batch, an Undo or an Append. The
// slice aliases the substrate's buffer and is valid until the next Apply,
// Undo or Append.
func (s *Substrate) Writes() []CellWrite { return s.writes }

// evict drops the cache entries of every attribute set intersecting
// touched. Everything untouched survives.
func (s *Substrate) evict(touched relation.AttrSet) {
	s.v.Partitions().InvalidateTouched(touched)
}
