package core

import (
	"context"
	"fmt"
	"sort"

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
// relation, one partition cache and one verifier over both. Both engines
// run on one — the merged pipeline hands the same one to its monitor and
// its maintainer — so maintenance, detection and repair verification
// share every partition.
//
// The substrate is the only code that writes the relation: Apply and Undo
// for cell writes, Append for new tuples. Each keeps the cache consistent
// with the relation, and the engines absorb the write log Apply leaves in
// Writes.
type Substrate struct {
	v *Verifier

	// seen maps (row, col) to the cell's index in writes while Apply
	// folds a batch; writes is the current batch's effective write log.
	seen   map[int64]int
	writes []CellWrite
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
	return &Substrate{v: NewVerifier(rel, ont, pc)}, nil
}

// AppendSubstrate encodes sub as one unit: the partition cache's entries,
// then the verifier's memoized names tables. Must not run concurrently
// with mutations.
func AppendSubstrate(w *wire.Writer, sub *Substrate) {
	sub.Cache().AppendTo(w)
	appendVerifierTables(w, sub.v)
}

// DecodeSubstrate is NewSubstrate over a payload AppendSubstrate wrote: the
// restored cache (bounded by relation.DefaultCacheBudget, like a built
// one) and the verifier tables, skipping partition construction and
// per-value ontology resolution.
func DecodeSubstrate(r *wire.Reader, rel *relation.Relation, ont *ontology.Ontology) (*Substrate, error) {
	pc, err := relation.DecodePartitionCache(r, rel)
	if err != nil {
		return nil, err
	}
	v, err := decodeVerifier(r, rel, ont, pc)
	if err != nil {
		return nil, err
	}
	return &Substrate{v: v}, nil
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
// are evicted: row stamps catch appends, not in-place updates.
// Writes returns the log until the next Apply, Undo or Append.
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
	s.evict(Touched(eff))
	return nil
}

// Undo reverses the last Apply: every write reverts to its pre-batch
// value and the touched sets are evicted again — entries computed over
// the cancelled batch describe a state that no longer exists. Interned
// values stay in the dictionaries and names tables, which is harmless
// (both are monotone). The write log is cleared.
func (s *Substrate) Undo() {
	rel := s.v.Relation()
	for k := len(s.writes) - 1; k >= 0; k-- {
		wr := s.writes[k]
		rel.SetValue(wr.Row, wr.Col, wr.Old)
	}
	s.evict(Touched(s.writes))
	s.writes = s.writes[:0]
}

// Append appends tuples (strings in schema order) after checking every
// row's width. The cache then drops the entries that now trail the row
// count — lookups already refuse them, but dead partitions would hold the
// byte budget hostage — and the next lookup of a dropped set rebuilds it
// over the grown relation. This is the one way appended rows reach cached
// partitions. The write log is cleared: appends rewrite no cell. The
// engines pick the rows up by count — the monitor's Absorb joins every
// row past the last one it absorbed, as one batch.
func (s *Substrate) Append(rows [][]string) error {
	rel := s.v.Relation()
	for _, row := range rows {
		if len(row) != rel.NumCols() {
			return fmt.Errorf("core: append of %d cells into %d attributes", len(row), rel.NumCols())
		}
	}
	s.writes = s.writes[:0]
	if len(rows) == 0 {
		return nil
	}
	for _, row := range rows {
		rel.AppendRow(row)
	}
	s.v.Partitions().InvalidateStale()
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
