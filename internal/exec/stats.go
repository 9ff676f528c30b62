package exec

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stats is a registry of named stage spans. Engines record one span per
// pipeline stage ("discover.verify", "clean.beam", …); repeated spans under
// one name accumulate, so a per-lattice-level stage reports its total wall
// time and item count across levels. The registry is safe for concurrent
// use and every method is nil-receiver-safe, so engines instrument
// unconditionally and callers opt in by supplying a registry.
//
// Span wall time is aggregated with a monotonic clock; items, workers, and
// cache counters are plain integers. Marshalled JSON is a stable object:
//
//	{"stages":[{"name":...,"wall_ns":...,"items":...,"workers":...,
//	            "cache_hits":...,"cache_misses":...}],"notes":[...]}
type Stats struct {
	mu     sync.Mutex
	order  []string
	stages map[string]*stage
	notes  []string
}

type stage struct {
	wall        time.Duration
	items       int64
	skipped     int64
	workers     int
	cacheHits   uint64
	cacheMisses uint64
	spans       int64
}

// StageStat is one stage's accumulated counters, as reported by Snapshot
// and the JSON serialization.
type StageStat struct {
	Name        string        `json:"name"`
	Wall        time.Duration `json:"wall_ns"`
	Items       int64         `json:"items,omitempty"`
	Skipped     int64         `json:"skipped,omitempty"`
	Workers     int           `json:"workers,omitempty"`
	CacheHits   uint64        `json:"cache_hits,omitempty"`
	CacheMisses uint64        `json:"cache_misses,omitempty"`
	Spans       int64         `json:"spans,omitempty"`
}

// NewStats returns an empty registry.
func NewStats() *Stats { return &Stats{} }

func (s *Stats) stageLocked(name string) *stage {
	if s.stages == nil {
		s.stages = make(map[string]*stage)
	}
	st, ok := s.stages[name]
	if !ok {
		st = &stage{}
		s.stages[name] = st
		s.order = append(s.order, name)
	}
	return st
}

// Span is one in-flight timed stage. End (or Done) must be called exactly
// once; the other mutators may be called any number of times before that,
// from any goroutine that owns the span.
type Span struct {
	stats *Stats
	name  string
	start time.Time

	mu      sync.Mutex
	items   int64
	skipped int64
	workers int
	hits    uint64
	misses  uint64
	ended   bool
}

// Span starts a named stage span. On a nil registry it returns a nil span,
// whose methods all no-op, so instrumentation never needs a nil check.
func (s *Stats) Span(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{stats: s, name: name, start: time.Now()}
}

// Items adds n processed work items to the span.
func (sp *Span) Items(n int) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.items += int64(n)
	sp.mu.Unlock()
}

// Skipped adds n work items the stage answered without doing the work —
// candidates resolved by a pruning oracle, cache-satisfied lookups, nodes
// excluded by a dirtiness test. Together with Items it makes skip rates
// first-class observability: the incremental engines' whole value
// proposition is a high skipped/(items+skipped) ratio.
func (sp *Span) Skipped(n int) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.skipped += int64(n)
	sp.mu.Unlock()
}

// Workers records the worker count the stage ran with (the maximum across
// accumulated spans is kept, so a stage that ran both serial and parallel
// phases reports its widest fan-out).
func (sp *Span) Workers(w int) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if w > sp.workers {
		sp.workers = w
	}
	sp.mu.Unlock()
}

// Cache adds partition-cache hit/miss deltas observed during the stage.
func (sp *Span) Cache(hits, misses uint64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.hits += hits
	sp.misses += misses
	sp.mu.Unlock()
}

// End stops the span's clock and folds its counters into the registry.
// Calling End more than once is a no-op, so `defer sp.End()` composes with
// an explicit early End on the success path.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	wall := time.Since(sp.start)
	items, skipped, workers, hits, misses := sp.items, sp.skipped, sp.workers, sp.hits, sp.misses
	sp.mu.Unlock()

	s := sp.stats
	s.mu.Lock()
	st := s.stageLocked(sp.name)
	st.wall += wall
	st.items += items
	st.skipped += skipped
	if workers > st.workers {
		st.workers = workers
	}
	st.cacheHits += hits
	st.cacheMisses += misses
	st.spans++
	s.mu.Unlock()
}

// Note records a free-form observation ("verification forced sequential:
// PruneAugmentation disabled"). Notes surface in the JSON serialization and
// at the bottom of the rendered table; duplicates are collapsed.
func (s *Stats) Note(format string, args ...any) {
	if s == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.notes {
		if n == msg {
			return
		}
	}
	s.notes = append(s.notes, msg)
}

// Snapshot returns the accumulated stages in first-recorded order plus the
// notes. Safe to call while spans are still running; running spans are not
// included until they End.
func (s *Stats) Snapshot() ([]StageStat, []string) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StageStat, 0, len(s.order))
	for _, name := range s.order {
		st := s.stages[name]
		out = append(out, StageStat{
			Name:        name,
			Wall:        st.wall,
			Items:       st.items,
			Skipped:     st.skipped,
			Workers:     st.workers,
			CacheHits:   st.cacheHits,
			CacheMisses: st.cacheMisses,
			Spans:       st.spans,
		})
	}
	notes := append([]string(nil), s.notes...)
	return out, notes
}

// statsJSON is the stable wire form of a registry.
type statsJSON struct {
	Stages []StageStat `json:"stages"`
	Notes  []string    `json:"notes,omitempty"`
}

// MarshalJSON serializes the registry. (A nil *Stats still marshals as
// null — encoding/json short-circuits nil pointers — so report embedders
// should hold a concrete registry.)
func (s *Stats) MarshalJSON() ([]byte, error) {
	stages, notes := s.Snapshot()
	if stages == nil {
		stages = []StageStat{}
	}
	return json.Marshal(statsJSON{Stages: stages, Notes: notes})
}

// Table renders the registry as an aligned text table, the form the CLIs
// print on -stats and on interrupt. Empty registries render a single
// "(no stages recorded)" line so interrupt handlers can print
// unconditionally.
func (s *Stats) Table() string {
	stages, notes := s.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %10s %8s %12s %12s\n", "stage", "wall", "items", "workers", "cache-hits", "cache-misses")
	if len(stages) == 0 {
		b.WriteString("(no stages recorded)\n")
	}
	for _, st := range stages {
		fmt.Fprintf(&b, "%-28s %12s %10d %8d %12d %12d\n",
			st.Name, st.Wall.Round(time.Microsecond), st.Items, st.Workers, st.CacheHits, st.CacheMisses)
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Merge folds other's stages and notes into s (for embedding a
// sub-engine's registry into a caller's). Stage names collide by
// accumulation, matching repeated-span semantics.
func (s *Stats) Merge(other *Stats) {
	if s == nil || other == nil {
		return
	}
	stages, notes := other.Snapshot()
	s.mu.Lock()
	for _, st := range stages {
		dst := s.stageLocked(st.Name)
		dst.wall += st.Wall
		dst.items += st.Items
		dst.skipped += st.Skipped
		if st.Workers > dst.workers {
			dst.workers = st.Workers
		}
		dst.cacheHits += st.CacheHits
		dst.cacheMisses += st.CacheMisses
		dst.spans += st.Spans
	}
	s.mu.Unlock()
	for _, n := range notes {
		s.Note("%s", n)
	}
}

// SortedNames returns the recorded stage names in lexical order (test
// helper; display order stays first-recorded).
func (s *Stats) SortedNames() []string {
	stages, _ := s.Snapshot()
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	sort.Strings(names)
	return names
}
