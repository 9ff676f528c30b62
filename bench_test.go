package fastofd

// Benchmark harness: one bench per table/figure of the paper's evaluation
// (see DESIGN.md's per-experiment index and EXPERIMENTS.md for measured
// results). cmd/benchrunner prints the paper-style tables; these testing.B
// benchmarks make the same sweeps available to `go test -bench`.

import (
	"context"
	"fmt"
	"testing"

	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/fd"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/holoclean"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/repair"
	"github.com/fastofd/fastofd/internal/stats"
)

// BenchmarkExp1VaryN reproduces Fig 7a / Table 6: discovery runtime vs N
// for FastOFD and the FD baselines. Pair-based algorithms run at the
// smallest size only (they are quadratic, as the paper observes).
func BenchmarkExp1VaryN(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		ds := gen.Clinical(n, 1)
		b.Run(fmt.Sprintf("fastofd/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions())
			}
		})
		for _, alg := range []string{fd.TANE, fd.FUN, fd.DFD} {
			b.Run(fmt.Sprintf("%s/N=%d", alg, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := fd.Discover(alg, ds.Rel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if n <= 1000 {
			for _, alg := range []string{fd.DepMiner, fd.FastFDs, fd.FDep, fd.FDMine} {
				b.Run(fmt.Sprintf("%s/N=%d", alg, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := fd.Discover(alg, ds.Rel); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkExp2VaryAttrs reproduces Fig 7b: discovery runtime vs number of
// attributes (exponential lattice growth).
func BenchmarkExp2VaryAttrs(b *testing.B) {
	ds := gen.Clinical(1000, 1)
	for _, n := range []int{4, 8, 12, 15} {
		cols := make([]int, n)
		for i := range cols {
			cols[i] = i
		}
		sub, err := ds.Rel.ProjectColumns(cols)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fastofd/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.Discover(sub, ds.FullOnt, discovery.DefaultOptions())
			}
		})
		b.Run(fmt.Sprintf("tane/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fd.DiscoverTANE(sub)
			}
		})
	}
}

// BenchmarkExp3Optimizations reproduces Fig 7c: FastOFD with pruning rules
// ablated.
func BenchmarkExp3Optimizations(b *testing.B) {
	ds := gen.Clinical(2000, 1)
	configs := []struct {
		name string
		opts discovery.Options
	}{
		{"none", discovery.Options{}},
		{"opt2", discovery.Options{PruneAugmentation: true}},
		{"opt2+3", discovery.Options{PruneAugmentation: true, PruneKeys: true}},
		{"opt2+4", discovery.Options{PruneAugmentation: true, FDShortcut: true}},
		{"all", discovery.DefaultOptions()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.Discover(ds.Rel, ds.FullOnt, c.opts)
			}
		})
	}
}

// BenchmarkExp4LatticeLevels reproduces the level-capping analysis: most
// OFDs live in the top levels for a fraction of the cost.
func BenchmarkExp4LatticeLevels(b *testing.B) {
	ds := gen.Clinical(2000, 1)
	for _, cap := range []int{3, 6, 0} {
		name := fmt.Sprintf("maxlevel=%d", cap)
		if cap == 0 {
			name = "maxlevel=all"
		}
		opts := discovery.DefaultOptions()
		opts.MaxLevel = cap
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.Discover(ds.Rel, ds.FullOnt, opts)
			}
		})
	}
}

// BenchmarkExp5FalsePositives measures the cost of quantifying the tuples
// an FD-based cleaner would falsely flag (the discovery pass that feeds
// the paper's Exp-5 percentages).
func BenchmarkExp5FalsePositives(b *testing.B) {
	ds := gen.Clinical(2000, 1)
	res := discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions())
	v := NewVerifier(ds.Rel, ds.FullOnt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range res.OFDs {
			v.NonEqualConsequentFraction(d)
		}
	}
}

// BenchmarkExp6VarySenses reproduces Fig 8b: sense assignment time vs |λ|.
func BenchmarkExp6VarySenses(b *testing.B) {
	for _, nl := range []int{2, 6, 10} {
		ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, Senses: nl, ErrRate: 0.03, NumOFDs: 6})
		b.Run(fmt.Sprintf("senses=%d", nl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp7VaryErr reproduces Fig 8d: cleaning time vs error rate.
func BenchmarkExp7VaryErr(b *testing.B) {
	for _, er := range []float64{0.03, 0.09, 0.15} {
		ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, ErrRate: er, NumOFDs: 6})
		b.Run(fmt.Sprintf("err=%.0f%%", 100*er), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp8SenseVaryN reproduces the Table 6 companion: sense
// assignment runtime vs N.
func BenchmarkExp8SenseVaryN(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		ds := gen.Generate(gen.Config{Rows: n, Seed: 1, ErrRate: 0.03, NumOFDs: 6})
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp9VaryBeam reproduces Fig 10b: runtime growth with beam size.
func BenchmarkExp9VaryBeam(b *testing.B) {
	ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, Preset: "kiva", ErrRate: 0.12, IncRate: 0.08, NumOFDs: 8, Senses: 6})
	for _, beam := range []int{1, 3, 5} {
		opts := repair.DefaultOptions()
		opts.Beam = beam
		b.Run(fmt.Sprintf("b=%d", beam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp10VsHoloClean reproduces Fig 10d: OFDClean vs the
// HoloClean-style baseline runtime.
func BenchmarkExp10VsHoloClean(b *testing.B) {
	ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, Preset: "kiva", ErrRate: 0.09, IncRate: 0.04, NumOFDs: 6})
	var dict []string
	for _, id := range ds.Ont.AllClasses() {
		dict = append(dict, ds.Ont.Synonyms(id)...)
	}
	dictionary := holoclean.DictionaryFromValues(dict)
	b.Run("ofdclean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("holoclean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			holoclean.Repair(ds.Rel, ds.Sigma, dictionary, holoclean.DefaultOptions())
		}
	})
}

// BenchmarkExp11VaryInc reproduces Fig 9a's runtime facet: cleaning with a
// staler ontology evaluates more ontology-repair candidates.
func BenchmarkExp11VaryInc(b *testing.B) {
	for _, inc := range []float64{0.02, 0.06, 0.10} {
		ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, ErrRate: 0.03, IncRate: inc, NumOFDs: 6})
		b.Run(fmt.Sprintf("inc=%.0f%%", 100*inc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp12VarySigma reproduces Fig 9b's runtime facet: more OFDs mean
// more equivalence classes and interactions.
func BenchmarkExp12VarySigma(b *testing.B) {
	for _, ns := range []int{10, 30, 50} {
		ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, ErrRate: 0.03, IncRate: 0.04, NumOFDs: ns})
		b.Run(fmt.Sprintf("sigma=%d", ns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp13CleanVaryN reproduces Table 7: OFDClean runtime vs N
// (~linear).
func BenchmarkExp13CleanVaryN(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		ds := gen.Generate(gen.Config{Rows: n, Seed: 1, ErrRate: 0.06, IncRate: 0.04, NumOFDs: 6})
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches for DESIGN.md's called-out design choices. ---

// BenchmarkAblationPartitionProduct: stripped-partition product vs direct
// recomputation of Π_X from scratch for 2-attribute sets.
func BenchmarkAblationPartitionProduct(b *testing.B) {
	ds := gen.Clinical(4000, 1)
	pa := relation.SingleColumnPartition(ds.Rel, 2).Strip()
	pb := relation.SingleColumnPartition(ds.Rel, 3).Strip()
	b.Run("product", func(b *testing.B) {
		var buf relation.ProductBuffer
		for i := 0; i < b.N; i++ {
			buf.Product(pa, pb)
		}
	})
	b.Run("direct", func(b *testing.B) {
		attrs := relation.Single(2).With(3)
		for i := 0; i < b.N; i++ {
			relation.PartitionOf(ds.Rel, attrs)
		}
	})
}

// BenchmarkAblationVerify: sense-frequency hash verification cost on
// synonym-rich vs plain-FD columns.
func BenchmarkAblationVerify(b *testing.B) {
	ds := gen.Clinical(4000, 1)
	v := NewVerifier(ds.Rel, ds.FullOnt)
	schema := ds.Rel.Schema()
	synOFD := MustParseOFD(schema, "CC -> CTRY")
	fdOFD := MustParseOFD(schema, "SYMP -> STUDY_TYPE")
	b.Run("synonym-heavy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.HoldsSyn(synOFD)
		}
	})
	b.Run("fd-fastpath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.HoldsSyn(fdOFD)
		}
	})
}

// BenchmarkAblationMADvsFreq: MAD-based vs plain frequency ranking in
// sense initialization.
func BenchmarkAblationMADvsFreq(b *testing.B) {
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = float64((i*7)%13 + 1)
	}
	b.Run("mad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.RankByMADScore(freqs)
		}
	})
	b.Run("freq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.RankByValue(freqs)
		}
	})
}

// BenchmarkAblationEMDGuided: EMD-guided local refinement vs skipping
// refinement entirely.
func BenchmarkAblationEMDGuided(b *testing.B) {
	ds := gen.Generate(gen.Config{Rows: 2000, Seed: 1, ErrRate: 0.06, NumOFDs: 10})
	withOpts := repair.DefaultOptions()
	withoutOpts := repair.DefaultOptions()
	withoutOpts.SkipRefinement = true
	b.Run("refined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, withOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrefined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, withoutOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClosure measures the linear-time inference procedure.
func BenchmarkClosure(b *testing.B) {
	schema := MustSchema("A", "B", "C", "D", "E", "F", "G", "H")
	sigma := Set{
		MustParseOFD(schema, "A -> B"),
		MustParseOFD(schema, "A, C -> D"),
		MustParseOFD(schema, "B, C -> E"),
		MustParseOFD(schema, "F -> G"),
		MustParseOFD(schema, "A, F -> H"),
	}
	x := schema.MustSet("A", "C", "F")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Closure(sigma, x)
	}
}

// BenchmarkParallelDiscovery measures the Workers option's effect.
func BenchmarkParallelDiscovery(b *testing.B) {
	ds := gen.Clinical(4000, 1)
	for _, w := range []int{1, 2, 4} {
		opts := discovery.DefaultOptions()
		opts.Workers = w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.Discover(ds.Rel, ds.FullOnt, opts)
			}
		})
	}
}

// BenchmarkInheritanceDiscovery compares synonym vs inheritance discovery
// cost (the conference version's 1.8x vs 2.4x overhead comparison).
func BenchmarkInheritanceDiscovery(b *testing.B) {
	ds := gen.Clinical(2000, 1)
	b.Run("synonym", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions())
		}
	})
	b.Run("inheritance", func(b *testing.B) {
		opts := discovery.DefaultOptions()
		opts.Mode = discovery.ModeInheritance
		opts.Theta = 2
		for i := 0; i < b.N; i++ {
			discovery.Discover(ds.Rel, ds.FullOnt, opts)
		}
	})
}

// BenchmarkMonitorUpdate measures incremental verification vs full
// re-verification per cell update.
func BenchmarkMonitorUpdate(b *testing.B) {
	ds := gen.Generate(gen.Config{Rows: 4000, Seed: 1, NumOFDs: 6})
	m, err := NewMonitor(context.Background(), ds.Rel.Clone(), ds.FullOnt, ds.Sigma, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	col := ds.Sigma[0].RHS
	vals := ds.Rel.Project(col)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Update(i%ds.Rel.NumRows(), col, vals[i%len(vals)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		batch := make([]CellUpdate, 64)
		for i := 0; i < b.N; i++ {
			for j := range batch {
				k := i*len(batch) + j
				batch[j] = CellUpdate{Row: k % ds.Rel.NumRows(), Col: col, Value: vals[k%len(vals)]}
			}
			if err := m.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-reverify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := NewVerifier(ds.Rel, ds.FullOnt)
			v.SatisfiesAll(ds.Sigma)
		}
	})
}
