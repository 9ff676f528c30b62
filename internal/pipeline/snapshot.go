package pipeline

import (
	"fmt"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

// The pipeline's snapshot payload is the follow-cover flag, the shared
// substrate (core.AppendSubstrate: the partition cache's entries, then the
// verifier's tables), and then the monitor body and the maintainer body —
// neither of which carries its own substrate copy. A decoded pipeline
// provably shares one cache and one verifier: both engines point at the
// same substrate by construction, not by deduplication.

// Append encodes the pipeline. Must not run concurrently with mutations.
func Append(w *wire.Writer, p *Pipeline) {
	if p.followCover {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
	core.AppendSubstrate(w, p.sub)
	core.AppendMonitorBody(w, p.m)
	discovery.AppendMaintainerBody(w, p.mt)
}

// Decode rebuilds a pipeline over rel/ont from a payload written by
// Append. The substrate is decoded once (core.DecodeSubstrate), warm with
// the saved cache entries, and both engine bodies run on it; the restored
// pipeline's reports, cover, and subsequent batches are byte-identical to
// the saved one's.
func Decode(r *wire.Reader, rel *relation.Relation, ont *ontology.Ontology, workers int, stats *exec.Stats) (*Pipeline, error) {
	follow := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if follow > 1 {
		return nil, fmt.Errorf("pipeline: snapshot follow-cover flag %d", follow)
	}
	sub, err := core.DecodeSubstrate(r, rel, ont)
	if err != nil {
		return nil, err
	}
	m, err := core.DecodeMonitorBody(r, sub, workers, stats)
	if err != nil {
		return nil, err
	}
	mt, err := discovery.DecodeMaintainerBody(r, sub, workers, stats)
	if err != nil {
		return nil, err
	}
	return &Pipeline{sub: sub, mt: mt, m: m, followCover: follow == 1}, nil
}

// Cache returns the shared partition cache.
func (p *Pipeline) Cache() *relation.PartitionCache { return p.sub.Cache() }
