// Package fastofd is a from-scratch Go implementation of Ontology
// Functional Dependencies (OFDs) as described in "(Discovery and)
// Contextual Data Cleaning with Ontology Functional Dependencies"
// (EDBT 2018 and its extended version): dependencies whose consequent
// values must agree up to synonym relationships defined by a sense-annotated
// ontology, rather than up to syntactic equality.
//
// The package exposes the two systems from the paper plus everything they
// stand on:
//
//   - FastOFD (Discover): lattice-based discovery of a complete, minimal
//     set of synonym OFDs holding on a relation w.r.t. an ontology, with
//     the paper's axiomatic pruning rules and approximate-OFD support.
//   - OFDClean (Clean): contextual repair — per-equivalence-class sense
//     assignment, Earth-Mover's-Distance-guided refinement, beam-search
//     ontology repair, and conflict-graph data repair producing
//     Pareto-optimal (ontology, data) repair combinations.
//   - The OFD theory: sound & complete axioms, linear-time inference
//     (Closure), implication, and minimal covers.
//   - Relational substrate: column-store relations, partitions, CSV I/O.
//   - Ontology substrate: sense-annotated synonym classes with is-a trees,
//     JSON I/O.
//
// Quick start:
//
//	rel, _ := fastofd.ReadCSVFile("trials.csv")
//	ont, _ := fastofd.ReadOntologyFile("drugs.json")
//	found := fastofd.Discover(rel, ont, fastofd.DefaultDiscoveryOptions())
//	res, _ := fastofd.Clean(rel, ont, found.OFDs, fastofd.DefaultCleanOptions())
//	fmt.Println(res.Best.DataDist, "cell repairs,", res.Best.OntDist, "ontology additions")
package fastofd

import (
	"context"
	"io"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/exec"
	"github.com/fastofd/fastofd/internal/ontology"
	"github.com/fastofd/fastofd/internal/pipeline"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/repair"
	"github.com/fastofd/fastofd/internal/snapshot"
)

// Relational model.
type (
	// Relation is a column-oriented, dictionary-encoded relational instance.
	Relation = relation.Relation
	// Schema names a relation's attributes.
	Schema = relation.Schema
	// AttrSet is a bitset of attribute positions.
	AttrSet = relation.AttrSet
	// Partition is a set of equivalence classes over an attribute set.
	Partition = relation.Partition
)

// Ontology model.
type (
	// Ontology is a sense-annotated synonym ontology.
	Ontology = ontology.Ontology
	// ClassID identifies one ontology class (a sense of an entity).
	ClassID = ontology.ClassID
)

// NoClass marks the absence of an ontology class.
const NoClass = ontology.NoClass

// Dependencies.
type (
	// OFD is a synonym Ontology Functional Dependency X →syn A.
	OFD = core.OFD
	// Set is a set of OFDs (Σ).
	Set = core.Set
	// Verifier checks OFDs against a relation and ontology.
	Verifier = core.Verifier
	// Violation explains one violating equivalence class.
	Violation = core.Violation
	// Report is the output of Detect.
	Report = core.Report
	// Monitor maintains OFD satisfaction incrementally under updates.
	Monitor = core.Monitor
	// CellUpdate is one cell write of a batched Monitor update.
	CellUpdate = core.CellUpdate
)

// Execution substrate.
type (
	// Stats is a registry of named per-stage execution spans; pass one via
	// DiscoveryOptions.Stats / CleanOptions.Stats (or DetectContext) to
	// observe where a run spends its time.
	Stats = exec.Stats
	// StageStat is one stage's accumulated counters.
	StageStat = exec.StageStat
)

// NewStats returns an empty per-stage statistics registry.
func NewStats() *Stats { return exec.NewStats() }

// Discovery (FastOFD).
type (
	// DiscoveryOptions configure Discover.
	DiscoveryOptions = discovery.Options
	// DiscoveryResult is Discover's output.
	DiscoveryResult = discovery.Result
	// LevelStat records per-lattice-level effort.
	LevelStat = discovery.LevelStat
	// DiscoveryMode selects the ontological relationship for candidates.
	DiscoveryMode = discovery.Mode
	// RankedOFD pairs a discovered OFD with interestingness measures.
	RankedOFD = discovery.RankedOFD
	// Maintainer keeps the minimal OFD cover live under update streams.
	Maintainer = discovery.Maintainer
	// CoverDiff is one batch's change to a maintained cover.
	CoverDiff = discovery.Diff
)

// Discovery modes.
const (
	// ModeSynonym discovers synonym OFDs (the paper's focus).
	ModeSynonym = discovery.ModeSynonym
	// ModeInheritance discovers inheritance (is-a) OFDs with a path bound.
	ModeInheritance = discovery.ModeInheritance
)

// Cleaning (OFDClean).
type (
	// CleanOptions configure Clean.
	CleanOptions = repair.Options
	// CleanResult is Clean's output.
	CleanResult = repair.Result
	// RepairOption is one Pareto-optimal repair combination.
	RepairOption = repair.RepairOption
	// CellChange is one data repair.
	CellChange = repair.CellChange
	// OntChange is one ontology repair.
	OntChange = repair.OntChange
	// ClassKey identifies one equivalence class of one OFD.
	ClassKey = repair.ClassKey
	// Assignment maps equivalence classes to senses.
	Assignment = repair.Assignment
	// SigmaRepair proposes antecedent augmentations for a violated OFD.
	SigmaRepair = repair.SigmaRepair
	// SigmaRepairOptions configure RepairSigma.
	SigmaRepairOptions = repair.SigmaRepairOptions
)

// NewSchema creates a schema from attribute names.
func NewSchema(names ...string) (*Schema, error) { return relation.NewSchema(names...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(names ...string) *Schema { return relation.MustSchema(names...) }

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation { return relation.New(schema) }

// FromRows builds a relation from string rows.
func FromRows(schema *Schema, rows [][]string) (*Relation, error) {
	return relation.FromRows(schema, rows)
}

// ReadCSV parses a relation from CSV (header row = attribute names).
func ReadCSV(r io.Reader) (*Relation, error) { return relation.ReadCSV(r) }

// ReadCSVFile parses a relation from a CSV file.
func ReadCSVFile(path string) (*Relation, error) { return relation.ReadCSVFile(path) }

// WriteCSV serializes a relation as CSV.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// WriteCSVFile serializes a relation to a CSV file.
func WriteCSVFile(path string, rel *Relation) error { return relation.WriteCSVFile(path, rel) }

// NewOntology returns an empty ontology.
func NewOntology() *Ontology { return ontology.New() }

// ReadOntology parses an ontology from its JSON serialization.
func ReadOntology(r io.Reader) (*Ontology, error) { return ontology.ReadJSON(r) }

// ReadOntologyFile parses an ontology from a JSON file.
func ReadOntologyFile(path string) (*Ontology, error) { return ontology.ReadJSONFile(path) }

// WriteOntology serializes an ontology as JSON.
func WriteOntology(w io.Writer, o *Ontology) error { return ontology.WriteJSON(w, o) }

// WriteOntologyFile serializes an ontology to a JSON file.
func WriteOntologyFile(path string, o *Ontology) error { return ontology.WriteJSONFile(path, o) }

// ParseOFD parses "A,B -> C" using schema attribute names.
func ParseOFD(schema *Schema, s string) (OFD, error) { return core.Parse(schema, s) }

// MustParseOFD is ParseOFD that panics on error.
func MustParseOFD(schema *Schema, s string) OFD { return core.MustParse(schema, s) }

// ParseOFDs parses one dependency per element.
func ParseOFDs(schema *Schema, specs []string) (Set, error) { return core.ParseSet(schema, specs) }

// Closure computes X⁺ = {A | Σ ⊢ X → A} under the OFD axioms in linear
// time (Algorithm 1).
func Closure(sigma Set, x AttrSet) AttrSet { return core.Closure(sigma, x) }

// Implies reports whether Σ ⊢ X → A.
func Implies(sigma Set, d OFD) bool { return core.Implies(sigma, d) }

// MinimalCover computes a minimal cover of Σ.
func MinimalCover(sigma Set) Set { return core.MinimalCover(sigma) }

// NewVerifier builds a verifier for checking OFDs on an instance.
func NewVerifier(rel *Relation, ont *Ontology) *Verifier {
	return core.NewVerifier(rel, ont, nil)
}

// Detect finds and explains every violation of Σ on the instance, also
// counting the tuples only a syntactic FD would (falsely) flag.
func Detect(rel *Relation, ont *Ontology, sigma Set) *Report {
	return core.Detect(rel, ont, sigma)
}

// DetectWorkers is Detect with the partition-cache warm-up and the
// verification spread over up to workers goroutines (0 = all CPUs); each
// distinct antecedent of Σ is one work item. The report is identical for
// every worker count.
func DetectWorkers(rel *Relation, ont *Ontology, sigma Set, workers int) *Report {
	return core.DetectWorkers(rel, ont, sigma, workers)
}

// DetectContext is DetectWorkers with cooperative cancellation and optional
// per-stage stats: a cancelled run returns the violations of whole
// antecedent groups only (every dependency on an antecedent, or none),
// canonically sorted, plus an error satisfying errors.Is(err, ctx.Err()).
// stats may be nil.
func DetectContext(ctx context.Context, rel *Relation, ont *Ontology, sigma Set, workers int, stats *Stats) (*Report, error) {
	return core.DetectContext(ctx, rel, ont, sigma, workers, stats)
}

// NewMonitor builds an incremental satisfaction monitor over the
// instance: cell updates and appended tuples re-verify only the affected
// equivalence classes. Any Σ is accepted, chained dependencies (A→B, B→C)
// included, and updates may touch any cell — a write to a monitored
// antecedent re-routes that dependency. The monitor runs on a live
// substrate of its own — a byte-budgeted partition cache and a verifier,
// exactly the substrate a Pipeline shares between its engines. The
// substrate keeps one state per dependency, so ApplyBatch folds the
// dependencies a batch touches in parallel with no shared write state,
// and Report reads epoch-stamped snapshots concurrently with ingestion.
// The index build and the batch fan-out use up to workers goroutines
// (0 = all CPUs), one dependency each; stats, when non-nil, receives the
// "monitor.build", "monitor.fold", "monitor.apply", and "monitor.merge"
// spans. Reports
// are byte-identical for every worker count. A cancelled build returns
// nil plus the wrapped context error.
func NewMonitor(ctx context.Context, rel *Relation, ont *Ontology, sigma Set, workers int, stats *Stats) (*Monitor, error) {
	sub, err := core.NewSubstrate(ctx, rel, ont, workers)
	if err != nil {
		return nil, err
	}
	return core.NewMonitor(ctx, sub, sigma, workers, stats)
}

// DefaultDiscoveryOptions returns the paper's full FastOFD configuration
// (all pruning optimizations on, exact OFDs).
func DefaultDiscoveryOptions() DiscoveryOptions { return discovery.DefaultOptions() }

// Discover runs FastOFD: it returns the complete, minimal set of synonym
// OFDs holding on the relation w.r.t. the ontology.
func Discover(rel *Relation, ont *Ontology, opts DiscoveryOptions) *DiscoveryResult {
	return discovery.Discover(rel, ont, opts)
}

// DiscoverContext is Discover with cooperative cancellation: the lattice
// traversal stops between work items, returning the sorted OFDs of the
// completed levels plus an error satisfying errors.Is(err, ctx.Err()).
func DiscoverContext(ctx context.Context, rel *Relation, ont *Ontology, opts DiscoveryOptions) (*DiscoveryResult, error) {
	return discovery.DiscoverContext(ctx, rel, ont, opts)
}

// NewMaintainer builds an incremental discovery engine: it runs one fresh
// discovery for the initial cover, then keeps the complete minimal cover
// live under the same cell-update batches and row appends the Monitor
// consumes, emitting a CoverDiff per batch instead of re-running the
// lattice. It runs on a live substrate of its own — a byte-budgeted
// partition cache and a verifier, exactly the substrate a Pipeline shares
// between its engines. Supports exact synonym OFDs over
// the uncapped lattice (the configuration the incremental soundness
// argument covers); other DiscoveryOptions are rejected. The maintained
// cover is byte-identical to Discover over the current instance for every
// worker count. A cancelled build returns nil plus the wrapped context
// error.
func NewMaintainer(ctx context.Context, rel *Relation, ont *Ontology, opts DiscoveryOptions) (*Maintainer, error) {
	if err := discovery.CheckMaintainerOptions(opts); err != nil {
		return nil, err
	}
	sub, err := core.NewSubstrate(ctx, rel, ont, opts.Workers)
	if err != nil {
		return nil, err
	}
	return discovery.NewMaintainer(ctx, sub, opts)
}

// Merged pipeline (discover → detect → repair on one shared index).
type (
	// Pipeline runs the Maintainer and the Monitor on one shared live-index
	// substrate: one relation, one verifier, and one partition cache serve
	// cover maintenance, violation detection, and repair verification
	// together. A single ApplyBatch feeds all three.
	Pipeline = pipeline.Pipeline
	// PipelineOptions configure NewPipeline.
	PipelineOptions = pipeline.Options
	// PipelineBatchResult is one batch's combined outcome: the cover diff,
	// the monitor epoch observing the batch, and per-phase latencies.
	PipelineBatchResult = pipeline.BatchResult
)

// NewPipeline builds the merged pipeline: the initial cover is discovered
// once, both engines index it off one shared substrate, and every batch
// thereafter maintains the cover and the violation report together.
// Everything observable is byte-identical to running the engines
// separately — the cover matches a fresh Discover and reports match a
// fresh Detect over the final instance, for any worker count.
// With FollowCover, the monitored set tracks the cover as it drifts.
func NewPipeline(ctx context.Context, rel *Relation, ont *Ontology, opts PipelineOptions) (*Pipeline, error) {
	return pipeline.New(ctx, rel, ont, opts)
}

// Persistence (snapshots).
type (
	// SnapshotState is the content of one snapshot: a relation instance,
	// its ontology, and at most one Pipeline, which owns its monitor,
	// maintainer, and shared cache. A Relation or Ontology given next to a
	// Pipeline must be the pipeline's own.
	SnapshotState = snapshot.State
	// SnapshotOptions configure OpenSnapshot (restore workers and stats).
	SnapshotOptions = snapshot.Options
)

// SaveSnapshot atomically and durably writes the state to a single
// versioned, checksummed snapshot file. Reopening with OpenSnapshot
// restores the relation and the pipeline — its cache, monitor, and
// maintainer — without recomputing their indexes: the first Report and
// Cover are byte-identical to the saved ones.
func SaveSnapshot(path string, st *SnapshotState) error { return snapshot.Save(path, st) }

// OpenSnapshot reads a snapshot file written by SaveSnapshot. Reopen cost
// scales with the flagged violation state, not the instance: bulk arrays
// decode as zero-copy views, and the engines' key maps, which snapshots do
// not store, are rebuilt on the first append or antecedent write.
func OpenSnapshot(path string, opts SnapshotOptions) (*SnapshotState, error) {
	return snapshot.Open(path, opts)
}

// Rank scores discovered OFDs by interestingness (compactness, evidence,
// and how much of their satisfaction the ontology provides).
func Rank(rel *Relation, ont *Ontology, ofds Set) []RankedOFD {
	return discovery.Rank(rel, ont, ofds)
}

// Top returns the k highest-scoring ranked OFDs.
func Top(ranked []RankedOFD, k int) []RankedOFD { return discovery.Top(ranked, k) }

// DefaultCleanOptions returns the paper's OFDClean defaults (θ=5, beam 3,
// τ=65%).
func DefaultCleanOptions() CleanOptions { return repair.DefaultOptions() }

// Clean runs OFDClean: sense assignment, beam-search ontology repair and
// τ-constrained data repair, returning the Pareto-optimal repairs and a
// repaired (instance, ontology) pair for the best one.
func Clean(rel *Relation, ont *Ontology, sigma Set, opts CleanOptions) (*CleanResult, error) {
	return repair.Clean(rel, ont, sigma, opts)
}

// CleanContext is Clean with cooperative cancellation: a cancelled run
// returns the phases completed so far as a well-formed partial result plus
// an error satisfying errors.Is(err, ctx.Err()).
func CleanContext(ctx context.Context, rel *Relation, ont *Ontology, sigma Set, opts CleanOptions) (*CleanResult, error) {
	return repair.CleanContext(ctx, rel, ont, sigma, opts)
}

// RepairSigma proposes minimal antecedent augmentations for the violated
// dependencies in Σ — repairing the constraints instead of the data or the
// ontology.
func RepairSigma(rel *Relation, ont *Ontology, sigma Set, opts SigmaRepairOptions) []SigmaRepair {
	return repair.RepairSigma(rel, ont, sigma, opts)
}
