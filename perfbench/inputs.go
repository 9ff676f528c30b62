package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/gen"
)

// The logical content of every workload — its Clinical instance and
// update stream — is pinned by these seeds; the run's --seed permutes the
// physical row order. Drawing the content per run made the 20-batch
// churn-12k stream cost 26–51 s of CPU across five seeds (which cells a
// batch corrupts decides how much of the lattice its repair reopens), a
// spread that would hide any code change. A permutation keeps the
// dependencies, violations and repairs fixed while changing the CSV
// bytes, dictionary codes and partition layouts the engines work on.
const (
	genSeed    = 1
	streamSeed = 7
)

// inputs are one run's generated files plus its in-memory stream.
type inputs struct {
	base     string // CSV of the instance
	ontology string // ontology JSON
	sigma    string // planted Σ, one "A,B -> C" per line
	// stream is the closed loop, with row ids mapped to the permuted base.
	stream []batch
}

// writeInputs generates the workload's inputs for seed under dir. None
// of it is timed.
func writeInputs(w *workload, seed int64, dir string) (*inputs, error) {
	ds := gen.Generate(gen.Config{Rows: w.rows, Seed: genSeed, Preset: "clinical"})
	in := &inputs{
		base:     filepath.Join(dir, "base.csv"),
		ontology: filepath.Join(dir, "ontology.json"),
		sigma:    filepath.Join(dir, "sigma.txt"),
	}
	if err := fastofd.WriteOntologyFile(in.ontology, ds.FullOnt); err != nil {
		return nil, err
	}
	if err := core.WriteSetFile(in.sigma, ds.Rel.Schema(), ds.Sigma); err != nil {
		return nil, err
	}
	// Physical row p holds logical row perm[p].
	perm := rand.New(rand.NewSource(seed)).Perm(ds.Rel.NumRows())
	rows := make([][]string, len(perm))
	inv := make([]int, len(perm))
	for p, r := range perm {
		rows[p] = ds.Rel.Row(r)
		inv[r] = p
	}
	permuted, err := fastofd.FromRows(ds.Rel.Schema(), rows)
	if err != nil {
		return nil, fmt.Errorf("permute: %w", err)
	}
	if err := fastofd.WriteCSVFile(in.base, permuted); err != nil {
		return nil, err
	}
	in.stream = genStream(ds.Rel, w.stream, streamSeed)
	for _, b := range in.stream {
		for i := range b.updates {
			b.updates[i].Row = inv[b.updates[i].Row]
		}
	}
	return in, nil
}
