package core

import (
	"context"

	"github.com/fastofd/fastofd/internal/live"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// DefaultCacheBudget is the byte budget NewSubstrate arms on the partition
// cache it builds. Generous enough that update streams over mid-size
// instances never evict, small enough that a long-lived engine cannot grow
// without bound.
const DefaultCacheBudget int64 = 256 << 20

// Substrate is the live index the incremental engines answer from: one
// relation, one partition cache with the live overlay registry installed
// as its miss provider, and one verifier over both. The cover maintainer
// requires one, and the merged pipeline hands the same one to its monitor,
// so maintenance, detection and repair verification share every
// partition.
//
// Overlay references follow one rule: each engine acquires what it
// consults. The maintainer holds one per cover element and one per single
// column; the pipeline adds one per monitored antecedent.
type Substrate struct {
	reg *live.Overlays
	v   *Verifier
}

// NewSubstrate builds the substrate over rel and ont: a fresh partition
// cache (single-column partitions spread over up to workers goroutines)
// bounded by DefaultCacheBudget. A cancelled build returns an error
// satisfying errors.Is(err, ctx.Err()).
func NewSubstrate(ctx context.Context, rel *relation.Relation, ont *ontology.Ontology, workers int) (*Substrate, error) {
	pc, err := relation.NewPartitionCacheContext(ctx, rel, workers)
	if err != nil {
		return nil, err
	}
	pc.SetBudget(DefaultCacheBudget)
	return newSubstrate(NewVerifier(rel, ont, pc)), nil
}

// DecodeSubstrate is NewSubstrate over the verifier tables AppendVerifier
// wrote, skipping per-value ontology resolution. pc, when non-nil, is a
// restored cache snapshot-consistent with rel and keeps its saved budget;
// nil starts an empty cache bounded by DefaultCacheBudget. No overlay
// reference is taken (the engine decoders re-acquire theirs).
func DecodeSubstrate(r *wire.Reader, rel *relation.Relation, ont *ontology.Ontology, pc *relation.PartitionCache) (*Substrate, error) {
	if pc == nil {
		pc = relation.NewPartitionCache(rel)
		pc.SetBudget(DefaultCacheBudget)
	}
	v, err := DecodeVerifier(r, rel, ont, pc)
	if err != nil {
		return nil, err
	}
	return newSubstrate(v), nil
}

// newSubstrate installs an empty overlay registry as the miss provider of
// v's cache and wraps both.
func newSubstrate(v *Verifier) *Substrate {
	reg := live.NewOverlays(v.Relation(), v.Partitions())
	v.Partitions().SetOverlayProvider(reg)
	return &Substrate{reg: reg, v: v}
}

// Relation returns the shared relation.
func (s *Substrate) Relation() *relation.Relation { return s.v.Relation() }

// Cache returns the shared partition cache.
func (s *Substrate) Cache() *relation.PartitionCache { return s.v.Partitions() }

// Overlays returns the live overlay registry serving the cache's misses.
func (s *Substrate) Overlays() *live.Overlays { return s.reg }

// Verifier returns the verifier over the shared cache.
func (s *Substrate) Verifier() *Verifier { return s.v }
