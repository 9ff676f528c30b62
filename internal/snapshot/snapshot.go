// Package snapshot is the single-file persistence layer: it serializes a
// relation instance together with the engines built over it — the
// partition cache, the incremental violation monitor, and the discovery
// maintainer's full tracker and border state — into one versioned,
// checksummed file, and reopens it without recomputing what the file
// already knows.
//
// The format is a sectioned container:
//
//	magic (8 bytes) | version (uint32) | section count (uint32)
//	per section: name | crc32c of payload | payload (4-byte aligned)
//
// Sections are independent: each carries its own CRC-32 (Castagnoli)
// checksum, and unknown section names are skipped, so older readers open
// newer files that only add sections. The version guards layout changes
// inside the known sections.
//
// Open reads the whole file into one buffer and decodes zero-copy where
// the wire layer allows: restored column blocks, partition arrays, and
// overlay deltas are views into that buffer (see internal/wire for the
// aliasing contract — the State keeps the buffer reachable implicitly
// through those views). Reopen latency therefore scales with the flagged
// violation state, not the instance: the bulk of a large snapshot is
// never copied, dictionaries hydrate their maps lazily, and the monitor's
// LHS-key indexes stay in frozen array form until the first append.
//
// Save writes to a temp file in the destination directory and renames it
// into place, so a crashed save never corrupts an existing snapshot.
package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/wire"
)

const (
	// magic identifies a snapshot file ("FOFDSNAP", little-endian).
	magic = uint64(0x50414e5344464f46)
	// Version is the current format version. Bumped on any layout change
	// inside a section; Open rejects other versions outright rather than
	// guessing. Version 2: engine sections split verifier-first, and the
	// pipeline section stores one shared verifier for both engine bodies.
	Version = uint32(2)
)

// Section names. Order in the file is fixed (dependencies decode first);
// unknown names are skipped for forward compatibility.
const (
	secRelation   = "relation"
	secOntology   = "ontology"
	secCache      = "cache"
	secMonitor    = "monitor"
	secMaintainer = "maintainer"
	secPipeline   = "pipeline"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is what a snapshot holds. Relation is mandatory; everything else
// is optional and nil when absent. All present components must be built
// over the same Relation (and Ontology) pointer — Save enforces it, and
// Open restores the sharing: the reopened engine and cache reference the
// one restored relation. A state holds at most one standalone engine
// (Monitor or Maintainer): two engines writing one relation are a
// Pipeline.
type State struct {
	Relation   *relation.Relation
	Ontology   *ontology.Ontology
	Cache      *relation.PartitionCache
	Monitor    *core.Monitor
	Maintainer *discovery.Maintainer
	// Pipeline is the merged engine pair over one shared substrate. It
	// owns its monitor, maintainer, and cache: a state with Pipeline set
	// must leave Monitor, Maintainer, and Cache nil (Save enforces it),
	// and its snapshot stores the shared verifier and cache exactly once.
	Pipeline *pipeline.Pipeline
}

// Options configures Open.
type Options struct {
	// Workers bounds the restore fan-out and configures the reopened
	// monitor/maintainer, exactly as the construction-time parameter
	// would (0 selects all CPUs).
	Workers int
	// Stats, when non-nil, receives restore stage spans and is installed
	// on the reopened engines.
	Stats *exec.Stats
}

// resolve returns the relation and ontology the state's components share,
// read through each engine's substrate, or an error when they disagree — a
// snapshot has one instance.
func (st *State) resolve() (*relation.Relation, *ontology.Ontology, error) {
	rel, ont := st.Relation, st.Ontology
	type component struct {
		name string
		sub  *core.Substrate
	}
	var comps []component
	if st.Monitor != nil {
		comps = append(comps, component{secMonitor, st.Monitor.Substrate()})
	}
	if st.Maintainer != nil {
		comps = append(comps, component{secMaintainer, st.Maintainer.Substrate()})
	}
	if st.Pipeline != nil {
		comps = append(comps, component{secPipeline, st.Pipeline.Maintainer().Substrate()})
	}
	for _, c := range comps {
		cRel, cOnt := c.sub.Relation(), c.sub.Verifier().Ontology()
		if rel == nil {
			rel = cRel
		} else if rel != cRel {
			return nil, nil, fmt.Errorf("snapshot: %s is built over a different relation than the state", c.name)
		}
		if ont == nil {
			ont = cOnt
		} else if cOnt != nil && ont != cOnt {
			return nil, nil, fmt.Errorf("snapshot: %s is built over a different ontology than the state", c.name)
		}
	}
	if rel == nil {
		return nil, nil, fmt.Errorf("snapshot: state holds no relation")
	}
	return rel, ont, nil
}

// Encode serializes the state to a snapshot image (the file contents).
// Most callers want Save.
func Encode(st *State) ([]byte, error) {
	rel, ont, err := st.resolve()
	if err != nil {
		return nil, err
	}
	if (st.Monitor != nil || st.Maintainer != nil || st.Pipeline != nil) && ont == nil {
		return nil, fmt.Errorf("snapshot: monitor/maintainer/pipeline sections require an ontology")
	}
	if st.Pipeline != nil && (st.Monitor != nil || st.Maintainer != nil || st.Cache != nil) {
		return nil, fmt.Errorf("snapshot: a pipeline state owns its engines and cache; leave Monitor, Maintainer, and Cache nil")
	}
	if st.Monitor != nil && st.Maintainer != nil {
		// Each standalone engine decodes its own substrate; two of them
		// would install two overlay registries on one restored cache.
		return nil, fmt.Errorf("snapshot: a state holds at most one standalone engine; two engines writing one relation are a Pipeline")
	}
	type section struct {
		name    string
		payload []byte
	}
	var sections []section
	add := func(name string, encode func(w *wire.Writer) error) error {
		var w wire.Writer
		if err := encode(&w); err != nil {
			return err
		}
		sections = append(sections, section{name, w.Bytes()})
		return nil
	}
	_ = add(secRelation, func(w *wire.Writer) error {
		relation.AppendRelation(w, rel)
		return nil
	})
	if ont != nil {
		if err := add(secOntology, func(w *wire.Writer) error {
			var buf bytes.Buffer
			if err := ontology.WriteJSON(&buf, ont); err != nil {
				return err
			}
			w.Blob(buf.Bytes())
			return nil
		}); err != nil {
			return nil, err
		}
	}
	// A pipeline snapshot stores the shared cache as the ordinary cache
	// section — decode restores it first and hands it to the pipeline, so
	// the reopened pipeline starts warm without a second copy.
	cache := st.Cache
	if cache == nil && st.Pipeline != nil {
		cache = st.Pipeline.Cache()
	}
	if cache != nil {
		_ = add(secCache, func(w *wire.Writer) error {
			cache.AppendTo(w)
			return nil
		})
	}
	if st.Monitor != nil {
		_ = add(secMonitor, func(w *wire.Writer) error {
			core.AppendMonitor(w, st.Monitor)
			return nil
		})
	}
	if st.Maintainer != nil {
		_ = add(secMaintainer, func(w *wire.Writer) error {
			discovery.AppendMaintainer(w, st.Maintainer)
			return nil
		})
	}
	if st.Pipeline != nil {
		_ = add(secPipeline, func(w *wire.Writer) error {
			pipeline.Append(w, st.Pipeline)
			return nil
		})
	}
	var w wire.Writer
	w.Uint64(magic)
	w.Uint32(Version)
	w.Uint32(uint32(len(sections)))
	for _, s := range sections {
		w.String(s.name)
		w.Uint32(crc32.Checksum(s.payload, castagnoli))
		w.AlignedBlob(s.payload)
	}
	return w.Bytes(), nil
}

// Save atomically writes the state to path: the image lands in a temp
// file in the same directory and is renamed into place, so a crash mid-
// save leaves any previous snapshot intact.
func Save(path string, st *State) error {
	img, err := Encode(st)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Decode reconstructs a state from a snapshot image. The image must stay
// reachable and unmodified for the life of the returned state — decoded
// column blocks, partitions, and overlay deltas alias it (they keep it
// reachable via the garbage collector; "unmodified" is the caller's
// contract and holds trivially for a private buffer).
func Decode(img []byte, opts Options) (*State, error) {
	r := wire.NewReader(img)
	if m := r.Uint64(); r.Err() != nil || m != magic {
		return nil, fmt.Errorf("snapshot: not a snapshot file (bad magic)")
	}
	if v := r.Uint32(); v != Version {
		if r.Err() != nil {
			return nil, fmt.Errorf("snapshot: truncated header")
		}
		return nil, fmt.Errorf("snapshot: version %d not supported (want %d)", v, Version)
	}
	count := int(r.Uint32())
	type section struct {
		name    string
		payload []byte
	}
	sections := make([]section, 0, count)
	for k := 0; k < count; k++ {
		name := r.String()
		sum := r.Uint32()
		payload := r.AlignedBlob()
		if r.Err() != nil {
			return nil, fmt.Errorf("snapshot: truncated section table: %w", r.Err())
		}
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return nil, fmt.Errorf("snapshot: section %q checksum mismatch (file %08x, computed %08x)", name, sum, got)
		}
		sections = append(sections, section{name, payload})
	}
	st := &State{}
	for _, s := range sections {
		sr := wire.NewReader(s.payload)
		switch s.name {
		case secRelation:
			rel, err := relation.DecodeRelation(sr)
			if err != nil {
				return nil, fmt.Errorf("snapshot: relation: %w", err)
			}
			st.Relation = rel
		case secOntology:
			ont, err := ontology.ReadJSON(bytes.NewReader(sr.Blob()))
			if sr.Err() != nil {
				return nil, fmt.Errorf("snapshot: ontology: %w", sr.Err())
			}
			if err != nil {
				return nil, fmt.Errorf("snapshot: ontology: %w", err)
			}
			st.Ontology = ont
		case secCache:
			if st.Relation == nil {
				return nil, fmt.Errorf("snapshot: cache section precedes relation")
			}
			pc, err := relation.DecodePartitionCache(sr, st.Relation)
			if err != nil {
				return nil, fmt.Errorf("snapshot: cache: %w", err)
			}
			st.Cache = pc
		case secMonitor:
			if st.Relation == nil || st.Ontology == nil {
				return nil, fmt.Errorf("snapshot: monitor section requires relation and ontology sections")
			}
			m, err := core.DecodeMonitor(sr, st.Relation, st.Ontology, st.Cache, opts.Workers, opts.Stats)
			if err != nil {
				return nil, fmt.Errorf("snapshot: monitor: %w", err)
			}
			st.Monitor = m
		case secMaintainer:
			if st.Relation == nil || st.Ontology == nil {
				return nil, fmt.Errorf("snapshot: maintainer section requires relation and ontology sections")
			}
			if st.Monitor != nil {
				return nil, fmt.Errorf("snapshot: monitor and maintainer sections in one file; two engines writing one relation are a pipeline")
			}
			mt, err := discovery.DecodeMaintainer(sr, st.Relation, st.Ontology, st.Cache, opts.Workers, opts.Stats)
			if err != nil {
				return nil, fmt.Errorf("snapshot: maintainer: %w", err)
			}
			st.Maintainer = mt
		case secPipeline:
			if st.Relation == nil || st.Ontology == nil {
				return nil, fmt.Errorf("snapshot: pipeline section requires relation and ontology sections")
			}
			p, err := pipeline.Decode(sr, st.Relation, st.Ontology, st.Cache, opts.Workers, opts.Stats)
			if err != nil {
				return nil, fmt.Errorf("snapshot: pipeline: %w", err)
			}
			st.Pipeline = p
			// The cache belongs to the pipeline in this shape; the State
			// field mirrors the ownership rule Save enforces.
			st.Cache = nil
		default:
			// Unknown section: a newer writer added it; skip.
		}
	}
	if st.Relation == nil {
		return nil, fmt.Errorf("snapshot: no relation section")
	}
	return st, nil
}

// Open reads and reconstructs a snapshot file written by Save.
func Open(path string, opts Options) (*State, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(img, opts)
}
