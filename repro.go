// Package repro is the public API of a full reproduction of
//
//	D. Coudert, A. Ferreira, S. Pérennes,
//	"De Bruijn Isomorphisms and Free Space Optical Networks",
//	14th IEEE International Parallel and Distributed Processing
//	Symposium (IPDPS 2000), pp. 769–774.
//
// The paper proves that a wide class of word digraphs — built from an
// arbitrary permutation σ of the alphabet Z_d and an arbitrary permutation
// f of the letter positions Z_D, with one free position j — is isomorphic
// to the de Bruijn digraph B(d, D) exactly when f is cyclic, and applies
// this to lay out B(d, D) on the OTIS free-space optical architecture with
// Θ(√n) lenses instead of the O(n) previously known.
//
// The facade exports what the example programs (examples/*) and the
// godoc examples use, plus the types those names take or return:
//
//   - words and permutations, the labels of word digraphs;
//   - the de Bruijn family: DeBruijn, Kautz, ImaseItoh, with the
//     isomorphism witnesses of Propositions 3.2 and 3.3, self-routing,
//     sequences and necklaces;
//   - the alphabet digraphs A(f, σ, j) of Proposition 3.9 (NewAlpha);
//   - the OTIS layouts of Section 4: HDigraph, IsDeBruijnLayout,
//     LayoutWitness, OptimalLayout and the Table 1 search;
//   - the optical bench: NewBench, power budgets, bills of materials;
//   - the packet simulator: NewNetwork and Network.RunOpts, workloads,
//     runtime fault plans, self-healing and the lens circuit breaker;
//   - observability: recorders and the OBS_run/v1 document;
//   - the assembled machine (BuildMachine) and the de Bruijn-dataflow
//     FFT.
//
// The commands under cmd/ and the benchmark under perfbench/ import the
// internal packages directly and reach everything else.
//
// Quick start:
//
//	layout, ok := repro.OptimalLayout(2, 8)      // OTIS(16,32) ⊢ B(2,8)
//	mapping, err := repro.LayoutWitness(2, 4, 5) // H(16,32,2) → B(2,8)
//	bench, err := repro.NewBench(16, 32, repro.DefaultPitch)
//	err = bench.VerifyTranspose()                // optics agree with graph theory
//
// Instrumented simulation (ExampleNewRecorder):
//
//	rec := repro.NewRecorder(repro.NewMetricsRegistry())
//	g := repro.DeBruijn(3, 4)
//	nw, err := repro.NewNetwork(g,
//		repro.WithRouter(repro.NewTableRouterObserved(g, rec)))
//	nw.Observe(rec)
//	rep, err := nw.RunOpts(repro.UniformLoad(10_000), repro.WithSeed(1))
//	doc, err := rec.Snapshot().MarshalIndent() // stable OBS_run/v1 JSON
//
// Million-node scale, table-free shift routing on the prefix-sharded
// engine (ExampleWithShards):
//
//	g := repro.DeBruijn(2, 20) // 1,048,576 nodes
//	nw, err := repro.NewNetwork(g, repro.WithRouting(repro.ShiftRouting))
//	rep, err := nw.RunOpts(repro.PermutationLoad(), repro.WithShards(8))
package repro

import (
	"repro/internal/alpha"
	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/perm"
	"repro/internal/simnet"
	"repro/internal/word"
)

// ---------------------------------------------------------------------------
// Permutations (Section 2.1) and words.
// ---------------------------------------------------------------------------

type (
	// Perm is a permutation of Z_n in one-line notation.
	Perm = perm.Perm
	// Word is a word over Z_d, the vertex label type of word digraphs.
	Word = word.Word
)

var (
	// IdentityPerm returns the identity permutation of Z_n.
	IdentityPerm = perm.Identity
	// PermFromImage builds and validates a permutation.
	PermFromImage = perm.FromImage
	// ParseWord parses a digit string over Z_d (d ≤ 10).
	ParseWord = word.Parse
	// Pow returns d^D.
	Pow = word.Pow
)

// ---------------------------------------------------------------------------
// De Bruijn-family digraphs (Section 2.2) and their isomorphisms
// (Section 3.1).
// ---------------------------------------------------------------------------

// Digraph is a directed multigraph on vertices 0..n-1.
type Digraph = digraph.Digraph

var (
	// DeBruijn returns B(d, D) (Definition 2.2) on Horner labels.
	DeBruijn = debruijn.DeBruijn
	// Kautz returns K(d, D) (Definition 2.7) with its word table.
	Kautz = debruijn.Kautz
	// ImaseItoh returns II(d, n) (Definition 2.8).
	ImaseItoh = debruijn.ImaseItoh
	// IsoIIToB verifies Proposition 3.3 constructively.
	IsoIIToB = debruijn.IsoIIToB
	// IsoKautzToII builds and verifies the explicit K(d,D) →
	// II(d, d^{D-1}(d+1)) isomorphism (alternating difference encoding).
	IsoKautzToII = debruijn.IsoKautzToII
	// DiameterGain measures the II-vs-RRK degree–diameter advantage.
	DiameterGain = debruijn.DiameterGain
	// DeBruijnRoute returns the canonical shortest path between words.
	DeBruijnRoute = debruijn.Route
	// BroadcastTree returns a BFS arborescence of B(d, D).
	BroadcastTree = debruijn.BroadcastTree
	// DeBruijnSequence returns a de Bruijn sequence of order D over Z_d.
	DeBruijnSequence = debruijn.Sequence
	// VerifyDeBruijnSequence checks the all-windows-distinct property.
	VerifyDeBruijnSequence = debruijn.VerifySequence
	// NecklaceCycles returns the rotation 1-factor of B(d, D).
	NecklaceCycles = debruijn.NecklaceCycles
	// NecklaceCount returns the Burnside necklace number.
	NecklaceCount = debruijn.NecklaceCount
	// MooreBound returns 1 + d + ... + d^D.
	MooreBound = digraph.MooreBound
	// VerifyIsomorphism checks a proposed isomorphism in O(n+m).
	VerifyIsomorphism = digraph.VerifyIsomorphism
)

// ---------------------------------------------------------------------------
// Alphabet digraphs A(f, σ, j) (Section 3.2).
// ---------------------------------------------------------------------------

// Alpha is the alphabet digraph A(f, σ, j) of Definition 3.7.
type Alpha = alpha.Alpha

var (
	// NewAlpha builds A(f, σ, j) (Definition 3.7).
	NewAlpha = alpha.New
	// CountDefinitions returns d!(D-1)!, the number of alternative
	// de Bruijn definitions (Section 3.2).
	CountDefinitions = alpha.CountDefinitions
)

// ---------------------------------------------------------------------------
// OTIS architecture and layouts (Section 4).
// ---------------------------------------------------------------------------

type (
	// OTISLayout describes an OTIS realization of B(d, D).
	OTISLayout = otis.Layout
	// TableRow is one row of the Table 1 degree–diameter search.
	TableRow = otis.TableRow
	// MultistageStack describes copies × (C_c ⊗ B(d, r)).
	MultistageStack = multistage.Stack
)

var (
	// HDigraph returns H(p, q, d) (Section 4.2).
	HDigraph = otis.H
	// IsDeBruijnLayout is the O(D) layout criterion (Corollaries 4.2/4.5).
	IsDeBruijnLayout = otis.IsDeBruijnLayout
	// LayoutWitness returns the isomorphism H(d^p', d^q', d) → B(d, D).
	LayoutWitness = otis.LayoutWitness
	// OptimalLayout minimizes lenses over splits (Corollaries 4.4/4.6).
	OptimalLayout = otis.OptimalLayout
	// IILayoutLenses returns the O(n) baseline lens count of [14].
	IILayoutLenses = otis.IILayoutLenses
	// LargestWithDiameter finds the largest OTIS-realizable digraph of a
	// given degree and diameter (Table 1).
	LargestWithDiameter = otis.LargestWithDiameter
	// RealizedStructure describes what a non-layout OTIS split builds:
	// a stack of circuit ⊗ de Bruijn networks (Remark 3.10 made useful).
	RealizedStructure = otis.RealizedStructure
)

// ---------------------------------------------------------------------------
// Optical bench simulation.
// ---------------------------------------------------------------------------

type (
	// Bench is a paraxial optical model of an OTIS(p, q) bench.
	Bench = optics.Bench
	// Trajectory is one traced beam through a Bench.
	Trajectory = optics.Trajectory
	// PowerBudget is the optical link budget model.
	PowerBudget = optics.PowerBudget
	// BOM is the hardware bill of materials of a realized network.
	BOM = optics.BOM
)

var (
	// NewBench builds a paraxial OTIS(p, q) bench.
	NewBench = optics.NewBench
	// DefaultBudget returns a representative optical link budget.
	DefaultBudget = optics.DefaultBudget
	// WorstCaseMargin traces every beam and returns the worst margin.
	WorstCaseMargin = optics.WorstCaseMargin
	// BillOfMaterials summarizes hardware for a bench and degree.
	BillOfMaterials = optics.BillOfMaterials
)

// DefaultPitch is the default transceiver pitch (metres).
const DefaultPitch = optics.DefaultPitch

// ---------------------------------------------------------------------------
// Packet-level network simulation.
//
// NewNetwork is the one constructor: a Digraph plus the options a
// Network fixes (WithRouting, WithRouter; Network.Observe attaches a
// recorder). Network.RunOpts is the one run entry point: a Workload plus
// per-run options (WithSeed, WithFaults, WithShards); FixedWorkload runs
// a literal packet list.
// ---------------------------------------------------------------------------

type (
	// Network is a packet-level simulation over a Digraph.
	Network = simnet.Network
	// Packet is one simulated datagram.
	Packet = simnet.Packet
	// Router chooses packet next hops.
	Router = simnet.Router
	// Workload supplies the packets of a RunOpts call.
	Workload = simnet.Workload
	// NetworkOption is a functional option for NewNetwork.
	NetworkOption = simnet.NetworkOption
	// RunOption is a functional option for Network.RunOpts.
	RunOption = simnet.RunOption
	// RoutingMode selects how a Network resolves next arcs.
	RoutingMode = simnet.RoutingMode
)

// ShiftRouting routes by the O(D) de Bruijn shift closed form instead of
// an O(n²) next-hop table; it requires a congruence-form B(d, D) digraph.
const ShiftRouting = simnet.ShiftRouting

var (
	// NewNetwork creates a Network configured by functional options.
	NewNetwork = simnet.NewNetwork
	// WithRouting selects the routing mode at construction.
	WithRouting = simnet.WithRouting
	// WithRouter supplies an explicit Router implementation.
	WithRouter = simnet.WithRouter
	// NewTableRouter routes by precomputed shortest paths.
	NewTableRouter = simnet.NewTableRouter
	// NewDeBruijnRouter routes natively on B(d, D) labels. Labels are
	// int32, so it serves d^D ≤ math.MaxInt32, every graph a Network
	// can hold, and panics above.
	NewDeBruijnRouter = simnet.NewDeBruijnRouter

	// FixedWorkload wraps an explicit packet slice as a Workload.
	FixedWorkload = simnet.Fixed
	// UniformLoad sends n packets between uniformly random pairs.
	UniformLoad = simnet.UniformLoad
	// PermutationLoad sends one packet per node along a random permutation.
	PermutationLoad = simnet.PermutationLoad
	// BroadcastLoad floods one source to all other nodes.
	BroadcastLoad = simnet.BroadcastLoad
	// PoissonLoad injects Poisson arrivals at a given rate.
	PoissonLoad = simnet.PoissonLoad

	// WithSeed fixes the workload-generation seed (default 1).
	WithSeed = simnet.WithSeed
	// WithFaults runs the workload under a FaultPlan.
	WithFaults = simnet.WithFaults
	// WithShards partitions the cycle engine into prefix shards; plain
	// runs execute on a worker pool, identical results at any count.
	WithShards = simnet.WithShards
)

// ---------------------------------------------------------------------------
// Runtime faults and self-healing.
//
// A FaultPlan schedules link, node and lens faults; RunOpts with
// WithFaults routes around them with an omniscient router. Network.SelfHeal
// (and OpticalMachine.SelfHeal) removes the oracle: nodes detect dead
// arcs by NACK timeouts, flood link-state events and repair their routes
// epoch by epoch. NewLensBreaker adds the per-lens circuit breaker.
// ---------------------------------------------------------------------------

type (
	// FaultPlan schedules link, node and lens faults against a run.
	FaultPlan = simnet.FaultPlan
	// DegradationPoint is one fault-rate measurement of a sweep.
	DegradationPoint = simnet.DegradationPoint
	// HealConfig sets a self-healing session's queue bound, hold budget
	// and optional monitor.
	HealConfig = simnet.HealConfig
	// LensBreaker is the per-lens quarantine circuit breaker.
	LensBreaker = machine.LensBreaker
	// LensBreakerConfig tunes the breaker's threshold and hold times.
	LensBreakerConfig = machine.BreakerConfig
)

var (
	// NewFaultPlan returns an empty runtime fault schedule.
	NewFaultPlan = simnet.NewFaultPlan
	// NewFaultPlanFor returns a fault schedule validated eagerly against
	// a digraph (errors surface on Err instead of at Compile).
	NewFaultPlanFor = simnet.NewFaultPlanFor
	// DegradationSweep measures delivery and latency vs. fault rate.
	DegradationSweep = simnet.DegradationSweep
	// NewLensBreaker builds the per-lens circuit breaker of a machine.
	NewLensBreaker = machine.NewLensBreaker
)

// ---------------------------------------------------------------------------
// Observability.
//
// A Recorder attached via Network.Observe (or OpticalMachine.Observe)
// instruments every later run; an unattached (nil) recorder costs one
// predictable branch per hop. Recorder.Snapshot yields a document in the
// stable OBS_run/v1 JSON schema, which ValidateRunMetrics checks.
// ---------------------------------------------------------------------------

type (
	// MetricsRegistry is a concurrency-safe registry of named counters,
	// gauges and power-of-two histograms.
	MetricsRegistry = obs.Registry
	// Recorder is the simulator-facing instrumentation handle. All its
	// methods are safe on a nil receiver (the uninstrumented mode).
	Recorder = obs.Recorder
)

var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewRecorder binds a recorder to a registry (nil for a private one).
	NewRecorder = obs.NewRecorder
	// ValidateRunMetrics checks an OBS_run/v1 JSON document.
	ValidateRunMetrics = obs.ValidateRunMetrics
	// NewTableRouterObserved builds a table router and records its
	// construction time and slab footprint into the recorder's gauges.
	NewTableRouterObserved = simnet.NewTableRouterObserved
)

// ---------------------------------------------------------------------------
// The assembled machine and the de Bruijn-dataflow FFT.
// ---------------------------------------------------------------------------

// OpticalMachine is a fully assembled, audited optical de Bruijn machine:
// layout + optics + witness + routing + metrics in one artifact.
type OpticalMachine = machine.Machine

var (
	// BuildMachine assembles and fully verifies an optical de Bruijn
	// machine for B(d, D).
	BuildMachine = machine.Build

	// FFT computes the DFT with the constant-geometry de Bruijn dataflow
	// of the Pease FFT ([12], [24]).
	FFT = fft.Transform
	// FFTStageSources returns a stage's reads: the de Bruijn
	// in-neighbours.
	FFTStageSources = fft.StageSources
	// VerifyFFTDataflow checks every stage read is a de Bruijn arc.
	VerifyFFTDataflow = fft.VerifyDataflow
)
