// Package snapshot is the single-file persistence layer: it serializes a
// relation instance, its ontology, and at most one merged pipeline — the
// violation monitor, the discovery maintainer's full tracker and border
// state, and the live substrate they share (partition cache and verifier
// tables) — into one versioned, checksummed file, and reopens it without
// recomputing what the file already knows.
//
// The format is a sectioned container:
//
//	magic (8 bytes) | version (uint32) | section count (uint32)
//	per section: name | crc32c of payload | payload (4-byte aligned)
//
// Version 10 writes at most three sections, in this order: relation,
// ontology, pipeline. Each carries its own CRC-32 (Castagnoli) checksum.
// Decode rejects a known section that repeats or arrives out of order, and
// skips unknown names, so older readers open newer files that only add
// sections. The version guards layout changes inside the known sections.
//
// Save and Encode share one streamed writer: each section is encoded into
// a reused buffer and written out before the next is built, so a save
// holds one section's payload at a time rather than the whole image.
//
// Open reads the whole file into one buffer and decodes zero-copy where
// the wire layer allows: restored column blocks, partition arrays, and
// the class tables' row→class arrays and member lists are views into
// that buffer (see internal/wire for the aliasing contract — the State keeps
// the buffer reachable implicitly through those views). Reopen latency
// therefore scales with the flagged violation state, not the instance:
// the bulk of a large snapshot is never copied, dictionaries hydrate their
// maps lazily, and no key map is stored at all — each table rebuilds its
// map from the saved row→class array on its first append or antecedent
// write.
//
// Save writes to a temp file in the destination directory, syncs it,
// renames it into place and syncs the directory, so a crashed save never
// corrupts an existing snapshot.
package snapshot

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

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
	// inside a section; Open rejects versions outside [minVersion, Version]
	// outright rather than guessing. Version 10: the substrate writes each
	// class table once (row→class array, class sizes and, while a
	// monitored dependency reads them, member lists) and each dependency
	// state's multisets once, for both engines; the engine bodies carry
	// no multisets and no verdicts, which decode derives from the
	// multisets (version 9 wrote each engine's multisets, and the
	// maintainer's satisfied flags, in its own body). Since version 6 no
	// key map is written; the tables rebuild theirs from the row→class
	// arrays.
	Version = uint32(10)
	// minVersion is the oldest version Open reads.
	minVersion = uint32(10)
)

// Section names, in file order (dependencies decode first); unknown names
// are skipped for forward compatibility.
const (
	secRelation = "relation"
	secOntology = "ontology"
	secPipeline = "pipeline"
)

// sectionRank orders the known sections: Decode requires strictly rising
// ranks, so a repeated or out-of-order section is rejected.
var sectionRank = map[string]int{secRelation: 1, secOntology: 2, secPipeline: 3}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is what a snapshot holds. Save needs a Relation or a Pipeline;
// the Ontology is optional without a pipeline. A Pipeline owns its
// monitor, maintainer and substrate, and a Relation or Ontology given next
// to it must be the pipeline's own — Save enforces it, and Open restores
// the sharing: the reopened pipeline runs over the one restored relation.
type State struct {
	Relation *relation.Relation
	Ontology *ontology.Ontology
	// Pipeline is the merged engine pair over one shared substrate; its
	// snapshot stores the shared cache and verifier exactly once.
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

// resolve returns the relation and ontology the snapshot holds: the
// pipeline's own when there is one — a Relation or Ontology given next to
// it must be the same pointer, since a snapshot has one instance.
func (st *State) resolve() (*relation.Relation, *ontology.Ontology, error) {
	rel, ont := st.Relation, st.Ontology
	if p := st.Pipeline; p != nil {
		pRel, pOnt := p.Relation(), p.Verifier().Ontology()
		if (rel != nil && rel != pRel) || (ont != nil && ont != pOnt) {
			return nil, nil, fmt.Errorf("snapshot: the pipeline is built over a different relation or ontology than the state")
		}
		rel, ont = pRel, pOnt
		if ont == nil {
			return nil, nil, fmt.Errorf("snapshot: a pipeline section requires an ontology")
		}
	}
	if rel == nil {
		return nil, nil, fmt.Errorf("snapshot: state holds no relation")
	}
	return rel, ont, nil
}

// write streams the snapshot image of st to out. Each section's payload
// is encoded into one reused buffer, then its framing and payload are
// written; the absolute offset is tracked so the payload padding equals
// what AlignedBlob would write into one in-memory image.
func write(out io.Writer, st *State) error {
	rel, ont, err := st.resolve()
	if err != nil {
		return err
	}
	type section struct {
		name   string
		encode func(w *wire.Writer) error
	}
	sections := []section{{secRelation, func(w *wire.Writer) error {
		relation.AppendRelation(w, rel)
		return nil
	}}}
	if ont != nil {
		sections = append(sections, section{secOntology, func(w *wire.Writer) error {
			var buf bytes.Buffer
			if err := ontology.WriteJSON(&buf, ont); err != nil {
				return err
			}
			w.Blob(buf.Bytes())
			return nil
		}})
	}
	if st.Pipeline != nil {
		sections = append(sections, section{secPipeline, func(w *wire.Writer) error {
			pipeline.Append(w, st.Pipeline)
			return nil
		}})
	}
	off := 0
	emit := func(b []byte) error {
		n, err := out.Write(b)
		off += n
		return err
	}
	var frame, payload wire.Writer
	frame.Uint64(magic)
	frame.Uint32(Version)
	frame.Uint32(uint32(len(sections)))
	if err := emit(frame.Bytes()); err != nil {
		return err
	}
	for _, s := range sections {
		payload.Reset()
		if err := s.encode(&payload); err != nil {
			return err
		}
		p := payload.Bytes()
		frame.Reset()
		frame.String(s.name)
		frame.Uint32(crc32.Checksum(p, castagnoli))
		frame.AlignedBlobHeader(len(p), off)
		if err := emit(frame.Bytes()); err != nil {
			return err
		}
		if err := emit(p); err != nil {
			return err
		}
	}
	return nil
}

// Encode serializes the state to a snapshot image (the file contents).
// Most callers want Save, which streams the same bytes to disk.
func Encode(st *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := write(&buf, st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Save atomically and durably writes the state to path: the image streams
// into a temp file in the same directory, which is synced and renamed into
// place before the directory itself is synced, so a crash mid-save leaves
// any previous snapshot intact and a returned nil means the new one is on
// disk.
func Save(path string, st *State) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := write(bw, st); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries, making a rename inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Decode reconstructs a state from a snapshot image, and the returned
// state takes ownership of img. Decoded column blocks, partitions, the
// class tables' row→class arrays and their member lists alias it
// (keeping it reachable via the garbage collector), and the state writes
// through those views: cell writes rewrite the column blocks and
// antecedent moves the row→class arrays, in place. The caller must therefore neither reuse
// nor modify img; Open passes a private buffer.
//
// Sections decode as they are read, so the header's section count — which
// no checksum covers — allocates nothing: a count past the image's end
// fails as a truncated section table.
func Decode(img []byte, opts Options) (*State, error) {
	r := wire.NewReader(img)
	if m := r.Uint64(); r.Err() != nil || m != magic {
		return nil, fmt.Errorf("snapshot: not a snapshot file (bad magic)")
	}
	if v := r.Uint32(); v < minVersion || v > Version {
		if r.Err() != nil {
			return nil, fmt.Errorf("snapshot: truncated header")
		}
		return nil, fmt.Errorf("snapshot: version %d not supported (want %d to %d)", v, minVersion, Version)
	}
	count := r.Uint32()
	if r.Err() != nil {
		return nil, fmt.Errorf("snapshot: truncated header")
	}
	st := &State{}
	last := 0
	for k := uint32(0); k < count; k++ {
		name := r.String()
		sum := r.Uint32()
		payload := r.AlignedBlob()
		if r.Err() != nil {
			return nil, fmt.Errorf("snapshot: truncated section table: %w", r.Err())
		}
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return nil, fmt.Errorf("snapshot: section %q checksum mismatch (file %08x, computed %08x)", name, sum, got)
		}
		rank, known := sectionRank[name]
		if !known {
			continue // a newer writer added it; skip
		}
		if rank <= last {
			return nil, fmt.Errorf("snapshot: section %q repeated or out of order", name)
		}
		last = rank
		sr := wire.NewReader(payload)
		switch name {
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
		case secPipeline:
			if st.Relation == nil || st.Ontology == nil {
				return nil, fmt.Errorf("snapshot: pipeline section requires relation and ontology sections")
			}
			p, err := pipeline.Decode(sr, st.Relation, st.Ontology, opts.Workers, opts.Stats)
			if err != nil {
				return nil, fmt.Errorf("snapshot: pipeline: %w", err)
			}
			st.Pipeline = p
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
