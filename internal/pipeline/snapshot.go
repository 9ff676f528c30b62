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

// The pipeline's snapshot payload is the merged form of the two engines'
// sections: the shared verifier's tables are written ONCE, followed by
// the monitor body and the maintainer body — neither of which carries its
// own verifier copy. A pipeline snapshot is therefore strictly smaller
// than the two standalone sections it replaces, and a decoded pipeline
// provably shares one verifier (both engines point at the same tables by
// construction, not by deduplication).
//
// The live overlay registry is not serialized: overlay entries restore
// stale and rebuild from the (restored or recomputed) partition cache on
// the first append batch, which is byte-identical to what the saved
// registry held.

// Append encodes the pipeline. Must not run concurrently with mutations.
func Append(w *wire.Writer, p *Pipeline) {
	if p.followCover {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
	core.AppendVerifier(w, p.sub.Verifier())
	core.AppendMonitorBody(w, p.m)
	discovery.AppendMaintainerBody(w, p.mt)
}

// Decode rebuilds a pipeline over rel/ont from a payload written by
// Append. pc, when non-nil, is the restored shared partition cache
// (snapshot-consistent with rel); nil starts an empty one. The substrate
// is decoded once (core.DecodeSubstrate) and both engine bodies run on
// it; each body decoder re-acquires its overlay references (entries start
// stale and rebuild on first use), and the restored pipeline's reports,
// cover, and subsequent batches are byte-identical to the saved one's.
func Decode(r *wire.Reader, rel *relation.Relation, ont *ontology.Ontology, pc *relation.PartitionCache, workers int, stats *exec.Stats) (*Pipeline, error) {
	follow := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if follow > 1 {
		return nil, fmt.Errorf("pipeline: snapshot follow-cover flag %d", follow)
	}
	sub, err := core.DecodeSubstrate(r, rel, ont, pc)
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

// Cache returns the shared partition cache (the snapshot layer encodes it
// alongside the pipeline so a reopened pipeline starts warm).
func (p *Pipeline) Cache() *relation.PartitionCache { return p.sub.Cache() }
