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
// The facade re-exports the subsystems, grouped below in dependency
// order:
//
//   - combinatorial substrate: permutations of Z_n and words over Z_d;
//   - de Bruijn-family digraphs: DeBruijn, Kautz, RRK, ImaseItoh, BSigma,
//     with explicit isomorphism witnesses (Propositions 3.2, 3.3), plus
//     sequences, ring/tree embeddings and necklace certificates;
//   - alphabet digraphs A(f, σ, j): NewAlpha and the Proposition 3.9
//     machinery, plus the Remark 3.10 component decomposition;
//   - general digraph machinery: diameters, connectivity, conjunction,
//     line digraphs, isomorphism testing;
//   - the OTIS architecture: OTISSystem, HDigraph, the layout criteria of
//     Corollaries 4.2–4.6, OptimalLayout, and the Table 1 search;
//   - the optical bench simulation: NewBench, beam tracing, power budgets
//     and diffraction feasibility;
//   - the packet-level network simulator: NewNetwork and the
//     Network.RunOpts functional-options entry points, table-free shift
//     routing, the prefix-sharded cycle engine, workloads, load sweeps
//     and bufferless deflection routing;
//   - runtime fault injection and fault-aware rerouting;
//   - self-healing: oracle-free failure detection, gossip-flooded
//     link-state events, per-epoch route repair, and the
//     per-lens quarantine circuit breaker;
//   - observability: a stdlib-only metrics registry (counters, gauges,
//     power-of-two histograms), per-arc and per-lens telemetry, and the
//     stable OBS_run/v1 snapshot schema;
//   - the assembled machine: layout + optics + witness + routing + metrics
//     in one audited artifact;
//   - applications on the de Bruijn dataflow: multistage networks,
//     broadcasting/gossiping, the Pease FFT, Viterbi decoding, POPS
//     comparisons.
//
// Quick start:
//
//	layout, ok := repro.OptimalLayout(2, 8)      // OTIS(16,32) ⊢ B(2,8)
//	mapping, err := repro.LayoutWitness(2, 4, 5) // H(16,32,2) → B(2,8)
//	bench, err := repro.NewBench(16, 32, repro.DefaultPitch)
//	err = bench.VerifyTranspose()                // optics agree with graph theory
//
// Instrumented simulation:
//
//	rec := repro.NewRecorder(repro.NewMetricsRegistry())
//	g := repro.DeBruijn(2, 8)
//	nw, err := repro.NewNetwork(g,
//		repro.WithRouter(repro.NewTableRouterObserved(g, rec)))
//	nw.Observe(rec)
//	rep, err := nw.RunOpts(repro.UniformLoad(10_000), repro.WithSeed(1))
//	doc, err := rec.Snapshot().MarshalIndent() // stable OBS_run/v1 JSON
//
// Million-node scale (table-free shift routing, prefix-sharded engine):
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
	"repro/internal/gossip"
	"repro/internal/machine"
	"repro/internal/multistage"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/perm"
	"repro/internal/pops"
	"repro/internal/simnet"
	"repro/internal/viterbi"
	"repro/internal/word"
)

// ---------------------------------------------------------------------------
// Combinatorial substrate: permutations (Section 2.1) and words.
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
	// ComplementPerm returns C(u) = n-u-1 (Definition 2.1).
	ComplementPerm = perm.Complement
	// CyclicShiftPerm returns ρ(i) = i+1 mod n (Remark 3.8).
	CyclicShiftPerm = perm.CyclicShift
	// RandomPerm returns a uniformly random permutation.
	RandomPerm = perm.Random
	// PermFromImage builds and validates a permutation.
	PermFromImage = perm.FromImage
	// PermFromCycles builds a permutation from disjoint cycles.
	PermFromCycles = perm.FromCycles
	// AllPerms enumerates the permutations of Z_n.
	AllPerms = perm.All
	// AllCyclicPerms enumerates the (n-1)! cyclic permutations of Z_n.
	AllCyclicPerms = perm.AllCyclic
	// PermParse reads cycle or one-line notation.
	PermParse = perm.Parse
)

var (
	// NewWord returns the all-zero word of the given length over Z_d.
	NewWord = word.New
	// WordFromInt converts a Horner label to a word (Remark 2.6).
	WordFromInt = word.FromInt
	// WordFromLetters builds a word from letters, most significant first.
	WordFromLetters = word.FromLetters
	// ParseWord parses a digit string over Z_d (d ≤ 10).
	ParseWord = word.Parse
	// Pow returns d^D.
	Pow = word.Pow
)

// ---------------------------------------------------------------------------
// De Bruijn-family digraphs (Section 2.2) and their isomorphisms
// (Section 3.1).
// ---------------------------------------------------------------------------

var (
	// DeBruijn returns B(d, D) (Definition 2.2) on Horner labels.
	DeBruijn = debruijn.DeBruijn
	// Kautz returns K(d, D) (Definition 2.7) with its word table.
	Kautz = debruijn.Kautz
	// KautzOrder returns d^{D-1}(d+1).
	KautzOrder = debruijn.KautzOrder
	// RRK returns the Reddy–Raghavan–Kuhl digraph (Definition 2.5).
	RRK = debruijn.RRK
	// ImaseItoh returns II(d, n) (Definition 2.8).
	ImaseItoh = debruijn.ImaseItoh
	// BSigma returns B_σ(d, D) (Definition 3.1).
	BSigma = debruijn.BSigma
	// BBar returns B̄(d, D) = B_C(d, D), equal to II(d, d^D).
	BBar = debruijn.BBar
	// WitnessW returns the Proposition 3.2 isomorphism B_σ → B.
	WitnessW = debruijn.WitnessW
	// IsoBSigmaToB verifies Proposition 3.2 constructively.
	IsoBSigmaToB = debruijn.IsoBSigmaToB
	// WitnessIIToB returns the Proposition 3.3 isomorphism II → B.
	WitnessIIToB = debruijn.WitnessIIToB
	// IsoIIToB verifies Proposition 3.3 constructively.
	IsoIIToB = debruijn.IsoIIToB
	// DeBruijnDistance returns the routing distance between two words.
	DeBruijnDistance = debruijn.Distance
	// DeBruijnRoute returns the canonical shortest path between words.
	DeBruijnRoute = debruijn.Route
	// BroadcastTree returns a BFS arborescence of B(d, D).
	BroadcastTree = debruijn.BroadcastTree
	// DiameterGain measures the II-vs-RRK degree–diameter advantage.
	DiameterGain = debruijn.DiameterGain
)

// De Bruijn sequences and ring embeddings (the embedding literature [9]).
var (
	// EulerianCircuit returns an Eulerian circuit (Hierholzer).
	EulerianCircuit = debruijn.EulerianCircuit
	// DeBruijnSequence returns a de Bruijn sequence of order D over Z_d.
	DeBruijnSequence = debruijn.Sequence
	// VerifyDeBruijnSequence checks the all-windows-distinct property.
	VerifyDeBruijnSequence = debruijn.VerifySequence
	// DeBruijnSequenceFKM is the Lyndon-word (FKM) construction: the
	// lexicographically least sequence, an independent cross-check.
	DeBruijnSequenceFKM = debruijn.SequenceFKM
	// LyndonWords enumerates Lyndon words in lexicographic order.
	LyndonWords = debruijn.LyndonWords
	// LineIterate returns L^k(g); B(d,D) = L^{D-1}(K*_d) and
	// K(d,D) = L^{D-1}(K_{d+1}).
	LineIterate = debruijn.LineIterate
	// VerifyLineIterateCharacterization checks both identities.
	VerifyLineIterateCharacterization = debruijn.VerifyLineIterateCharacterization
	// HamiltonianCycle returns a dilation-1 ring embedding of B(d, D).
	HamiltonianCycle = debruijn.HamiltonianCycle
	// VerifyHamiltonianCycle checks a proposed Hamiltonian cycle.
	VerifyHamiltonianCycle = debruijn.VerifyHamiltonianCycle
	// TreeEmbedding returns the dilation-1 forest of d-1 complete d-ary
	// trees covering B(d, D) minus the zero word.
	TreeEmbedding = debruijn.TreeEmbedding
	// VerifyTreeEmbedding checks a proposed forest embedding.
	VerifyTreeEmbedding = debruijn.VerifyTreeEmbedding
	// CompleteBinaryTreeInB2 returns the binary-tree embedding for d = 2.
	CompleteBinaryTreeInB2 = debruijn.CompleteBinaryTreeInB2
)

// TreeNode is one vertex of an embedded forest.
type TreeNode = debruijn.TreeNode

// Kautz extras: the explicit isomorphism onto Imase–Itoh ([21]) and
// self-routing on Kautz words.
var (
	// WitnessKautzToII returns the explicit K(d,D) → II(d, d^{D-1}(d+1))
	// isomorphism (alternating difference encoding).
	WitnessKautzToII = debruijn.WitnessKautzToII
	// IsoKautzToII builds and verifies the witness.
	IsoKautzToII = debruijn.IsoKautzToII
	// KautzDistance and KautzRoute are word-level self-routing on K(d,D).
	KautzDistance = debruijn.KautzDistance
	KautzRoute    = debruijn.KautzRoute
	// IsKautzWord validates a Kautz vertex label.
	IsKautzWord = debruijn.IsKautzWord
)

// Combinatorial certificates.
var (
	// NecklaceCycles returns the rotation 1-factor of B(d, D).
	NecklaceCycles = debruijn.NecklaceCycles
	// NecklaceCount returns the Burnside necklace number.
	NecklaceCount = debruijn.NecklaceCount
	// VerifyNecklaceFactor checks a proposed rotation factor.
	VerifyNecklaceFactor = debruijn.VerifyNecklaceFactor
)

// ---------------------------------------------------------------------------
// Alphabet digraphs A(f, σ, j) (Section 3.2).
// ---------------------------------------------------------------------------

type (
	// Alpha is the alphabet digraph A(f, σ, j) of Definition 3.7.
	Alpha = alpha.Alpha
	// AlphaComponent annotates one weak component of a non-cyclic
	// A(f, σ, j) with its Remark 3.10 structure.
	AlphaComponent = alpha.Component
	// AlphaClassCount pairs a structural signature with its frequency.
	AlphaClassCount = alpha.ClassCount
)

var (
	// NewAlpha builds A(f, σ, j) (Definition 3.7).
	NewAlpha = alpha.New
	// DeBruijnAlpha exhibits B(d, D) as A(ρ, Id, 0) (Remark 3.8).
	DeBruijnAlpha = alpha.DeBruijnAlpha
	// CountDefinitions returns d!(D-1)!, the number of alternative
	// de Bruijn definitions (Section 3.2).
	CountDefinitions = alpha.CountDefinitions
	// ClassifyAlpha tallies the structural signatures of every (f, σ, j).
	ClassifyAlpha = alpha.Classify
	// AlphaSignature computes the component-shape signature of one
	// alphabet digraph.
	AlphaSignature = alpha.SignatureOf
	// AlphaIsoBetween maps one cyclic alphabet digraph onto another.
	AlphaIsoBetween = alpha.IsoBetween
)

// ---------------------------------------------------------------------------
// General digraph machinery.
// ---------------------------------------------------------------------------

// Digraph is a directed multigraph on vertices 0..n-1.
type Digraph = digraph.Digraph

var (
	// NewDigraph returns an arcless digraph on n vertices.
	NewDigraph = digraph.New
	// DigraphFromFunc builds a digraph from an out-neighbour function.
	DigraphFromFunc = digraph.FromFunc
	// Conjunction returns G1 ⊗ G2 (Definition 2.3).
	Conjunction = digraph.Conjunction
	// LineDigraph returns L(G) and its arc table.
	LineDigraph = digraph.LineDigraph
	// Circuit returns the directed cycle C_k.
	Circuit = digraph.Circuit
	// CompleteWithLoops returns K*_n, the OTIS-realizable complete
	// digraph of Zane et al.
	CompleteWithLoops = digraph.CompleteWithLoops
	// MooreBound returns 1 + d + ... + d^D.
	MooreBound = digraph.MooreBound
	// VerifyIsomorphism checks a proposed isomorphism in O(n+m).
	VerifyIsomorphism = digraph.VerifyIsomorphism
	// FindIsomorphism searches for an isomorphism (small instances).
	FindIsomorphism = digraph.FindIsomorphism
	// AreIsomorphic reports whether two digraphs are isomorphic.
	AreIsomorphic = digraph.AreIsomorphic
)

// TDM scheduling: d-regular digraphs decompose into d conflict-free
// permutation slots (König). See Digraph.OneFactorization and
// Digraph.VerifyFactorization, available on the Digraph type directly.

// ---------------------------------------------------------------------------
// OTIS architecture and layouts (Section 4).
// ---------------------------------------------------------------------------

type (
	// OTISSystem is an OTIS(p, q) optical transpose interconnect.
	OTISSystem = otis.System
	// OTISLayout describes an OTIS realization of B(d, D).
	OTISLayout = otis.Layout
	// TableRow is one row of the Table 1 degree–diameter search.
	TableRow = otis.TableRow
	// OTISCatalogEntry describes one surveyed OTIS split.
	OTISCatalogEntry = otis.CatalogEntry
	// ConjectureSplitResult is one candidate of a conjecture scan.
	ConjectureSplitResult = otis.SplitResult
)

var (
	// NewOTIS returns an OTIS(p, q) system.
	NewOTIS = otis.NewSystem
	// HDigraph returns H(p, q, d) (Section 4.2).
	HDigraph = otis.H
	// IndexPermutation returns the Proposition 4.1 permutation f.
	IndexPermutation = otis.IndexPermutation
	// IsDeBruijnLayout is the O(D) layout criterion (Corollaries 4.2/4.5).
	IsDeBruijnLayout = otis.IsDeBruijnLayout
	// LayoutWitness returns the isomorphism H(d^p', d^q', d) → B(d, D).
	LayoutWitness = otis.LayoutWitness
	// OptimalLayout minimizes lenses over splits (Corollaries 4.4/4.6).
	OptimalLayout = otis.OptimalLayout
	// MinimizeLenses returns the minimum lens count for B(d, D).
	MinimizeLenses = otis.MinimizeLenses
	// IILayoutLenses returns the O(n) baseline lens count of [14].
	IILayoutLenses = otis.IILayoutLenses
	// SearchDegreeDiameter reruns the exhaustive search of Table 1.
	SearchDegreeDiameter = otis.SearchDegreeDiameter
	// SearchDegreeDiameterParallel is the worker-pool Table 1 search.
	SearchDegreeDiameterParallel = otis.SearchDegreeDiameterParallel
	// LargestWithDiameter finds the largest OTIS-realizable digraph of a
	// given degree and diameter.
	LargestWithDiameter = otis.LargestWithDiameter
	// OTISCatalog surveys what every power-of-d split physically builds.
	OTISCatalog = otis.Catalog
	// VerifyIILayout checks H(d, n, d) = II(d, n) ([14]).
	VerifyIILayout = otis.VerifyIILayout
)

// The concluding conjecture: exhaustive scans over all factorizations.
var (
	// ConjectureScan checks every pq = d^(D+1) split for B(d, D).
	ConjectureScan = otis.ConjectureScan
	// NonPowerLayouts filters a scan to conjecture counterexamples.
	NonPowerLayouts = otis.NonPowerLayouts
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
	// OpticalBench2D is a separable two-axis OTIS bench.
	OpticalBench2D = optics.Bench2D
	// DiffractionReport summarizes a bench's diffraction analysis.
	DiffractionReport = optics.Diffraction
)

var (
	// NewBench builds a paraxial OTIS(p, q) bench.
	NewBench = optics.NewBench
	// NewBench2D builds the separable 2-D bench for OTIS(px·py, qx·qy).
	NewBench2D = optics.NewBench2D
	// DefaultBudget returns a representative optical link budget.
	DefaultBudget = optics.DefaultBudget
	// WorstCaseMargin traces every beam and returns the worst margin.
	WorstCaseMargin = optics.WorstCaseMargin
	// BillOfMaterials summarizes hardware for a bench and degree.
	BillOfMaterials = optics.BillOfMaterials
	// CompareLayoutLenses compares baseline and optimized lens counts.
	CompareLayoutLenses = optics.CompareLayouts
	// Diffract evaluates the diffraction limits of a bench.
	Diffract = optics.Diffract
	// MaxFeasibleEvenDiameter returns the largest even D whose balanced
	// layout passes the diffraction check.
	MaxFeasibleEvenDiameter = optics.MaxFeasibleDiameterEven
	// RayleighRange returns the collimation length of an unguided beam.
	RayleighRange = optics.RayleighRange
)

// DefaultPitch is the default transceiver pitch (metres).
const DefaultPitch = optics.DefaultPitch

// DefaultWavelength is a typical VCSEL wavelength (850 nm).
const DefaultWavelength = optics.DefaultWavelength

// ---------------------------------------------------------------------------
// Packet-level network simulation.
//
// NewNetwork is the one constructor: a Digraph plus the options a
// Network fixes (WithRouting, WithRouter, WithHopLatency, WithMaxCycles;
// Network.Observe attaches a recorder). Network.RunOpts is the one run
// entry point: a Workload plus per-run options (WithSeed, WithFaults,
// WithTrace, WithRecorder, WithShards, …); FixedWorkload runs a literal
// packet list, and Workload.Packets yields one for DeflectionNetwork.Run.
//
// At scale, WithRouting(ShiftRouting) routes table-free on
// congruence-form de Bruijn digraphs (O(D) state instead of an O(n²)
// next-hop slab) and WithShards(s) partitions the cycle engine by word
// prefix — results are identical for every shard count.
// ---------------------------------------------------------------------------

type (
	// Network is a packet-level simulation over a Digraph.
	Network = simnet.Network
	// Packet is one simulated datagram.
	Packet = simnet.Packet
	// SimResult summarizes a simulation run.
	SimResult = simnet.Result
	// Router chooses packet next hops.
	Router = simnet.Router
	// Workload supplies the packets of a RunOpts call.
	Workload = simnet.Workload
	// WorkloadFunc adapts a plain generator function to Workload.
	WorkloadFunc = simnet.WorkloadFunc
	// RunOption is a functional option for Network.RunOpts.
	RunOption = simnet.RunOption
	// RunReport is the uniform result envelope of Network.RunOpts.
	RunReport = simnet.RunReport
	// NetworkOption is a functional option for NewNetwork.
	NetworkOption = simnet.NetworkOption
	// RoutingMode selects how a Network resolves next arcs.
	RoutingMode = simnet.RoutingMode
)

// Routing modes for WithRouting and Network.Routing.
const (
	// AutoRouting picks table routing for small graphs and table-free
	// shift routing for large congruence-form de Bruijn graphs.
	AutoRouting = simnet.AutoRouting
	// TableRouting precomputes the O(n²) shortest-path next-hop slab.
	TableRouting = simnet.TableRouting
	// ShiftRouting routes by the O(D) de Bruijn shift closed form;
	// requires a congruence-form B(d, D) digraph.
	ShiftRouting = simnet.ShiftRouting
	// CustomRouting reports a caller-supplied Router (WithRouter).
	CustomRouting = simnet.CustomRouting
)

var (
	// NewNetwork creates a Network configured by functional options.
	NewNetwork = simnet.NewNetwork
	// WithRouting selects the routing mode at construction.
	WithRouting = simnet.WithRouting
	// WithRouter supplies an explicit Router implementation.
	WithRouter = simnet.WithRouter
	// WithHopLatency sets the per-hop latency in cycles.
	WithHopLatency = simnet.WithHopLatency
	// WithMaxCycles caps the simulation length.
	WithMaxCycles = simnet.WithMaxCycles
	// WithShards partitions the cycle engine into prefix shards; plain
	// runs execute on a worker pool, identical results at any count.
	WithShards = simnet.WithShards
	// RecognizeDeBruijn reports whether a digraph is the congruence-form
	// B(d, D) that shift routing requires, returning d and D.
	RecognizeDeBruijn = debruijn.Recognize
)

var (
	// NewTableRouter routes by precomputed shortest paths.
	NewTableRouter = simnet.NewTableRouter
	// NewDeBruijnRouter routes natively on B(d, D) labels. Labels are
	// int32, so it serves d^D ≤ math.MaxInt32, every graph a Network
	// can hold, and panics above.
	NewDeBruijnRouter = simnet.NewDeBruijnRouter
)

// Workloads for Network.RunOpts. Each returns a Workload whose Packets
// method is driven by the run's packet budget and seed, so one workload
// value can be reused across runs and sweeps.
var (
	// FixedWorkload wraps an explicit packet slice as a Workload.
	FixedWorkload = simnet.Fixed
	// UniformLoad sends n packets between uniformly random pairs.
	UniformLoad = simnet.UniformLoad
	// PermutationLoad sends one packet per node along a random permutation.
	PermutationLoad = simnet.PermutationLoad
	// BroadcastLoad floods one source to all other nodes.
	BroadcastLoad = simnet.BroadcastLoad
	// AllToAllLoad sends every ordered pair once.
	AllToAllLoad = simnet.AllToAllLoad
	// PoissonLoad injects Poisson arrivals at a given rate.
	PoissonLoad = simnet.PoissonLoad
	// RatedLoad sends uniform traffic at a fixed aggregate rate, which
	// may exceed one packet per cycle — the overload workload.
	RatedLoad = simnet.RatedLoad
)

// Run options for Network.RunOpts (and OpticalMachine.RunOpts).
var (
	// WithSeed fixes the workload-generation seed (default 1).
	WithSeed = simnet.WithSeed
	// WithFaults runs the workload under a FaultPlan.
	WithFaults = simnet.WithFaults
	// WithFaultConfig overrides the fault-engine tuning.
	WithFaultConfig = simnet.WithFaultConfig
	// WithTrace captures the per-packet event log in RunReport.Events.
	WithTrace = simnet.WithTrace
	// WithRecorder records this run into the given Recorder, overriding
	// (for this run only) any recorder attached with Network.Observe.
	WithRecorder = simnet.WithRecorder
	// WithQueueCapacity bounds every output queue, turning full
	// downstream queues into credit-based backpressure.
	WithQueueCapacity = simnet.WithQueueCapacity
	// WithHoldBudget caps the hold-in-place cycles a packet may spend
	// against full queues before dropping as queue-full.
	WithHoldBudget = simnet.WithHoldBudget
	// WithAdmission regulates injection with a token-bucket source
	// regulator; refused packets land in the disjoint Shed bucket.
	WithAdmission = simnet.WithAdmission
)

// Overload protection and saturation studies.
var (
	// SaturationRate returns a digraph's uniform-traffic saturation
	// throughput in packets per cycle (M / mean distance).
	SaturationRate = simnet.SaturationRate
)

type (
	// AdmissionConfig tunes the WithAdmission token bucket.
	AdmissionConfig = simnet.AdmissionConfig
	// SaturationPoint is one load multiple of Network.SaturationSweep.
	SaturationPoint = simnet.SaturationPoint
	// OptionError reports an invalid RunOpts option or workload
	// parameter, detected eagerly before any simulation work.
	OptionError = simnet.OptionError
)

// Load–latency characterization.
var (
	// LoadSweep measures mean latency across offered Poisson loads.
	LoadSweep = simnet.LoadSweep
	// ZeroLoadLatency returns mean distance × hop latency.
	ZeroLoadLatency = simnet.ZeroLoadLatency
)

// LoadSweepPoint is one offered-load measurement.
type LoadSweepPoint = simnet.SweepPoint

// Deflection (hot-potato) routing — the bufferless optical regime.
var (
	// NewDeflection builds a hot-potato simulator on a Network whose
	// digraph is d-regular and whose hop latency is 1: outputs rank by
	// the Network router's fault-free distance, runs record into the
	// recorder attached with Observe, and WithMaxCycles bounds them.
	NewDeflection = simnet.NewDeflection
)

// DeflectionNetwork simulates bufferless hot-potato routing on a
// Network.
type DeflectionNetwork = simnet.DeflectionNetwork

// DeflectionResult summarizes a hot-potato run. It satisfies the drain
// invariant Delivered + Dropped == Offered, with Dropped split into the
// Stuck and DroppedHorizon buckets.
type DeflectionResult = simnet.DeflectionResult

// ---------------------------------------------------------------------------
// Runtime fault injection and fault-aware rerouting.
// ---------------------------------------------------------------------------

var (
	// NewFaultPlan returns an empty runtime fault schedule.
	NewFaultPlan = simnet.NewFaultPlan
	// NewFaultAwareRouter wraps a router with fault awareness.
	NewFaultAwareRouter = simnet.NewFaultAwareRouter
	// DegradationSweep measures delivery and latency vs. fault rate.
	DegradationSweep = simnet.DegradationSweep
)

type (
	// FaultPlan schedules link, node and lens faults against a run.
	FaultPlan = simnet.FaultPlan
	// FaultKind classifies scheduled faults (link, node, lens).
	FaultKind = simnet.FaultKind
	// Fault is one scheduled failure.
	Fault = simnet.Fault
	// SimArc identifies a directed link as (tail, adjacency position).
	SimArc = simnet.Arc
	// FaultState is a compiled FaultPlan bound to a digraph.
	FaultState = simnet.FaultState
	// FaultAwareRouter reroutes around the faults of a FaultState.
	FaultAwareRouter = simnet.FaultAwareRouter
	// FaultSimConfig tunes a fault run (TTL, retries, backoff).
	FaultSimConfig = simnet.FaultConfig
	// FaultSimResult extends SimResult with fault-path accounting.
	FaultSimResult = simnet.FaultResult
	// DegradationPoint is one fault-rate measurement of a sweep.
	DegradationPoint = simnet.DegradationPoint
	// SimEvent is one record of a traced simulation run.
	SimEvent = simnet.Event
	// SimEventKind classifies trace events (inject … reroute, drop).
	SimEventKind = simnet.EventKind
)

// ---------------------------------------------------------------------------
// Self-healing: local failure detection, gossip-driven route repair and
// lens quarantine.
//
// Network.SelfHeal (and OpticalMachine.SelfHeal) opens a session that
// runs the fault engine with the oracle removed: the fault plan is
// physical truth only, and every routing decision works from knowledge
// the nodes earned — NACK timeouts, flooded link-state events
// (GossipFlood), and per-epoch shortest paths around the believed-down
// arcs, built per destination on demand. NewLensBreaker adds the
// machine-level circuit breaker that quarantines a misbehaving lens's
// whole arc group with exponential-backoff hysteresis.
// ---------------------------------------------------------------------------

type (
	// SelfHealingSession is a live self-healing run context; the clock,
	// event log and epoch routing persist across its Run calls.
	SelfHealingSession = simnet.SelfHealing
	// HealConfig tunes detection, gossip and probing.
	HealConfig = simnet.HealConfig
	// HealResult extends FaultSimResult with control-plane accounting.
	HealResult = simnet.HealResult
	// HealMonitor observes transmission outcomes and may quarantine arc
	// groups (the lens circuit breaker implements it).
	HealMonitor = simnet.HealMonitor
	// GossipFlood is the incremental fault-tolerant all-port flood that
	// spreads link-state events.
	GossipFlood = gossip.Flood
	// LensBreaker is the per-lens quarantine circuit breaker.
	LensBreaker = machine.LensBreaker
	// LensBreakerConfig tunes the breaker's threshold and hold times.
	LensBreakerConfig = machine.BreakerConfig
	// LensBreakerState is the breaker state of one lens.
	LensBreakerState = machine.BreakerState
	// LensBreakerStatus is one row of LensBreaker.States.
	LensBreakerStatus = machine.LensBreakerStatus
	// LensBreakerTransition is one recorded state change.
	LensBreakerTransition = machine.BreakerTransition
)

var (
	// NewFaultPlanFor returns a fault schedule validated eagerly against
	// a digraph (errors surface on Err instead of at Compile).
	NewFaultPlanFor = simnet.NewFaultPlanFor
	// NewGossipFlood starts a flood of one message from an origin node.
	NewGossipFlood = gossip.NewFlood
	// NewLensBreaker builds the per-lens circuit breaker of a machine.
	NewLensBreaker = machine.NewLensBreaker
)

// Breaker states.
const (
	LensBreakerClosed   = machine.BreakerClosed
	LensBreakerOpen     = machine.BreakerOpen
	LensBreakerHalfOpen = machine.BreakerHalfOpen
)

// ---------------------------------------------------------------------------
// Observability: metrics registry, per-arc/per-lens telemetry, and the
// OBS_run/v1 snapshot schema.
//
// A Recorder attached via Network.Observe (or OpticalMachine.Observe)
// instruments every subsequent run at near-zero cost: counters and the
// per-arc traversal/peak-queue slabs are updated with atomic operations,
// and an unattached (nil) recorder costs one predictable branch per hop.
// Recorder.Snapshot yields a RunMetrics document in the stable OBS_run/v1
// JSON schema; ValidateRunMetrics checks a document an external tool is
// about to trust.
// ---------------------------------------------------------------------------

type (
	// MetricsRegistry is a concurrency-safe registry of named counters,
	// gauges and power-of-two histograms.
	MetricsRegistry = obs.Registry
	// Recorder is the simulator-facing instrumentation handle. All its
	// methods are safe on a nil receiver (the uninstrumented mode).
	Recorder = obs.Recorder
	// RunMetrics is one OBS_run/v1 snapshot document.
	RunMetrics = obs.RunMetrics
	// ArcMetrics is the per-arc traversal and peak-queue slab pair.
	ArcMetrics = obs.ArcMetrics
	// HistogramSnapshot is a frozen power-of-two histogram.
	HistogramSnapshot = obs.HistogramSnapshot
	// LensUtilization is one per-lens traffic roll-up row.
	LensUtilization = obs.LensUtilization
	// LensCongestion is one per-lens peak-queue-depth roll-up row.
	LensCongestion = obs.LensCongestion
	// DropCause classifies packet drops (noroute, ttl, fault, horizon,
	// stuck, queuefull).
	DropCause = obs.DropCause
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

// ObsRunSchema is the schema tag of RunMetrics documents.
const ObsRunSchema = obs.RunMetricsSchema

// Metric names used by the instrumented simulators. Stable: external
// dashboards may key on them.
const (
	MetricDelivered    = obs.MetricDelivered
	MetricDropped      = obs.MetricDropped
	MetricDropPrefix   = obs.MetricDropPrefix
	MetricReroutes     = obs.MetricReroutes
	MetricRetries      = obs.MetricRetries
	MetricDeflections  = obs.MetricDeflections
	MetricArcTraversed = obs.MetricArcTraversed
	MetricArenaReused  = obs.MetricArenaReused
	MetricArenaAlloc   = obs.MetricArenaAlloc
	MetricRouterNS     = obs.MetricRouterNS
	MetricRouterBytes  = obs.MetricRouterBytes
	MetricMaxQueue     = obs.MetricMaxQueue
	MetricShed         = obs.MetricShed
	MetricHolds        = obs.MetricHolds
	MetricHistLatency  = obs.MetricHistLatency
	MetricHistQueue    = obs.MetricHistQueue
	MetricHistHops     = obs.MetricHistHops

	MetricHealNacks      = obs.MetricHealNacks
	MetricHealDetections = obs.MetricHealDetections
	MetricHealEvents     = obs.MetricHealEvents
	MetricHealRepairs    = obs.MetricHealRepairs
	MetricHealProbes     = obs.MetricHealProbes
	MetricHealConverge   = obs.MetricHealConverge
	MetricQuarTrips      = obs.MetricQuarTrips
	MetricQuarHalfOpen   = obs.MetricQuarHalfOpen
	MetricQuarCloses     = obs.MetricQuarCloses
)

// Drop causes recorded under MetricDropPrefix + cause.String().
const (
	DropNoRoute   = obs.DropNoRoute
	DropTTL       = obs.DropTTL
	DropFault     = obs.DropFault
	DropHorizon   = obs.DropHorizon
	DropStuck     = obs.DropStuck
	DropQueueFull = obs.DropQueueFull
)

// ---------------------------------------------------------------------------
// The assembled machine: layout + optics + witness + routing + metrics in
// one artifact.
// ---------------------------------------------------------------------------

var (
	// BuildMachine assembles and fully verifies an optical de Bruijn
	// machine for B(d, D).
	BuildMachine = machine.Build
	// PlanMachine picks the largest de Bruijn machine within a node
	// budget.
	PlanMachine = machine.Plan
	// PlanAndBuildMachine plans and assembles in one call.
	PlanAndBuildMachine = machine.PlanAndBuild
)

// MachinePlan is a capacity-planning recommendation.
type MachinePlan = machine.PlanResult

// OpticalMachine is a fully assembled, audited optical de Bruijn machine.
// Observe/RunOpts/LensUtilization/RunMetrics expose the observability
// layer at machine level, including the per-lens traffic roll-up.
type OpticalMachine = machine.Machine

// ---------------------------------------------------------------------------
// Applications on the de Bruijn dataflow.
// ---------------------------------------------------------------------------

// Multistage networks built from de Bruijn digraphs ([27], [30]).
var (
	// WrappedButterfly returns WBF(d, D).
	WrappedButterfly = multistage.WrappedButterfly
	// ButterflyWitness maps WBF(d, D) onto C_D ⊗ B(d, D).
	ButterflyWitness = multistage.ButterflyWitness
	// ShuffleNet returns SN(d, k) = C_k ⊗ B(d, k).
	ShuffleNet = multistage.ShuffleNet
	// GEMNET returns GEMNET(K, M, d) = C_K ⊗ RRK(d, M).
	GEMNET = multistage.GEMNET
	// RealizedStructure describes what a non-layout OTIS split builds:
	// a stack of circuit ⊗ de Bruijn networks (Remark 3.10 made useful).
	RealizedStructure = otis.RealizedStructure
)

// MultistageStack describes copies × (C_c ⊗ B(d, r)).
type MultistageStack = multistage.Stack

// Broadcasting and gossiping ([3], [28]).
var (
	// BroadcastAllPort simulates all-port broadcasting (rounds =
	// eccentricity).
	BroadcastAllPort = gossip.BroadcastAllPort
	// BroadcastSinglePort builds a greedy single-port broadcast schedule.
	BroadcastSinglePort = gossip.BroadcastSinglePort
	// VerifyBroadcastSchedule validates a single-port schedule.
	VerifyBroadcastSchedule = gossip.VerifySchedule
	// GossipAllPort simulates all-port gossiping (rounds = diameter).
	GossipAllPort = gossip.GossipAllPort
	// BroadcastLogLowerBound returns ⌈log2 n⌉.
	BroadcastLogLowerBound = gossip.LogLowerBound
)

// BroadcastSchedule is a single-port broadcast schedule.
type BroadcastSchedule = gossip.Schedule

// The Pease FFT — the de Bruijn-dataflow parallel FFT ([12], [24]).
var (
	// FFT computes the DFT with the constant-geometry de Bruijn dataflow.
	FFT = fft.Transform
	// InverseFFT computes the inverse DFT.
	InverseFFT = fft.Inverse
	// FFTStageSources returns a stage's reads: the de Bruijn
	// in-neighbours.
	FFTStageSources = fft.StageSources
	// VerifyFFTDataflow checks every stage read is a de Bruijn arc.
	VerifyFFTDataflow = fft.VerifyDataflow
	// Convolve computes circular convolution via the FFT.
	Convolve = fft.Convolve
)

// Viterbi decoding on the de Bruijn trellis (Galileo, [11]).
var (
	// NASACode is the CCSDS rate-1/2, K=7 convolutional code.
	NASACode = viterbi.NASA
	// GalileoCode returns a rate-1/4 long-constraint code; its trellis is
	// B(2, K-1).
	GalileoCode = viterbi.Galileo
	// BSCChannel flips bits with probability p.
	BSCChannel = viterbi.BSC
)

// ConvolutionalCode is a rate-1/r binary convolutional code whose trellis
// is the de Bruijn digraph B(2, K-1).
type ConvolutionalCode = viterbi.Code

// Soft-decision channel tools for the Viterbi substrate.
var (
	// AWGNChannel modulates to BPSK and adds Gaussian noise.
	AWGNChannel = viterbi.AWGN
	// HardSlice converts soft symbols to hard bits.
	HardSlice = viterbi.HardSlice
)

// Prior-work multi-OPS networks ([10], [13], [34]).
var (
	// NewPOPS returns a POPS(t, g) single-hop network model.
	NewPOPS = pops.NewPOPS
	// StackKautz returns SK(s, d, k) = K(d,k) ⊗ K*_s ([13]).
	StackKautz = pops.StackKautz
	// StackKautzOrder returns s·d^{k-1}(d+1).
	StackKautzOrder = pops.StackKautzOrder
	// VerifyZaneCompleteLayout checks H(n,n,n) = K*_n ([34]).
	VerifyZaneCompleteLayout = pops.VerifyZaneCompleteLayout
	// CompareOpticalDesigns contrasts POPS, complete-OTIS and de Bruijn-
	// OTIS hardware for n = d^D processors.
	CompareOpticalDesigns = pops.Compare
)

// POPSNetwork is a POPS(t, g) model.
type POPSNetwork = pops.POPS

// OpticalHardwareComparison contrasts per-processor optics across designs.
type OpticalHardwareComparison = pops.HardwareComparison
