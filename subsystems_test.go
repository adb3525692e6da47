package repro

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/alpha"
	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/fft"
	"repro/internal/gossip"
	"repro/internal/machine"
	"repro/internal/multistage"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/perm"
	"repro/internal/simnet"
	"repro/internal/viterbi"
	"repro/internal/word"
)

// Smoke checks of the subsystems the facade does not export, called
// through their internal packages. Each package's own tests are the
// primary coverage; these compose several packages the way the commands
// do.

func TestFacadeDigraphOps(t *testing.T) {
	b := debruijn.DeBruijn(2, 4)
	k, words := debruijn.Kautz(2, 4)
	if b.N() != 16 || k.N() != 24 || len(words) != 24 {
		t.Error("orders wrong")
	}
	if digraph.MooreBound(2, 4) != 31 {
		t.Error("Moore bound wrong")
	}
	l, arcs := digraph.LineDigraph(b)
	if l.N() != 32 || len(arcs) != 32 {
		t.Error("line digraph wrong")
	}
	c := digraph.Conjunction(digraph.Circuit(2), debruijn.DeBruijn(2, 1))
	if c.N() != 4 {
		t.Error("conjunction wrong")
	}
	if digraph.CompleteWithLoops(8).M() != 64 {
		t.Error("K*_8 wrong")
	}
}

func TestFacadeAlpha(t *testing.T) {
	a, err := alpha.New(perm.CyclicShift(5), perm.Identity(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsDeBruijn() {
		t.Error("shift alpha not de Bruijn")
	}
	if !a.Digraph().Equal(debruijn.DeBruijn(2, 5)) {
		t.Error("A(ρ,Id,0) != B(2,5)")
	}
	if alpha.DeBruijnAlpha(2, 3).N() != 8 {
		t.Error("DeBruijnAlpha wrong")
	}
}

func TestFacadeRoutingAndBroadcast(t *testing.T) {
	src, _ := word.Parse(2, "0000")
	dst, _ := word.Parse(2, "1111")
	if debruijn.Distance(src, dst) != 4 {
		t.Error("distance wrong")
	}
	path := debruijn.Route(src, dst)
	if len(path) != 5 {
		t.Errorf("route length %d", len(path))
	}
	parent, depth := debruijn.BroadcastTree(2, 4, 0)
	if parent[0] != -1 || depth[0] != 0 {
		t.Error("broadcast tree root wrong")
	}
}

func TestFacadeOpticsBudget(t *testing.T) {
	bench := mustBench(t)
	margin, _ := optics.WorstCaseMargin(bench, optics.DefaultBudget())
	if margin <= 0 {
		t.Errorf("link margin %.2f", margin)
	}
	bom := optics.BillOfMaterials(bench, 2)
	if bom.Nodes != 256 || bom.Lenses != 48 {
		t.Errorf("BOM %+v", bom)
	}
	base, opt, ratio, err := optics.CompareLayouts(2, 10)
	if err != nil || base != 1026 || opt != 96 || ratio < 10 {
		t.Errorf("CompareLayouts: %d %d %.1f %v", base, opt, ratio, err)
	}
}

func TestFacadeIIAndWitnesses(t *testing.T) {
	if err := otis.VerifyIILayout(2, 100); err != nil {
		t.Error(err)
	}
	if _, err := debruijn.IsoIIToB(2, 5); err != nil {
		t.Error(err)
	}
	sigma, _ := perm.FromImage([]int{1, 0})
	if _, err := debruijn.IsoBSigmaToB(2, 5, sigma); err != nil {
		t.Error(err)
	}
	if len(debruijn.WitnessW(2, 3, perm.Identity(2))) != 8 {
		t.Error("witness length wrong")
	}
	if len(debruijn.WitnessIIToB(2, 3)) != 8 {
		t.Error("II witness length wrong")
	}
}

func TestFacadeSearchSmall(t *testing.T) {
	rows := otis.SearchDegreeDiameter(2, 4, 16, 31)
	// B(2,4) must appear at n=16 with the (4,8) split among others.
	found := false
	for _, r := range rows {
		if r.N == 16 {
			for _, pq := range r.Pairs {
				if pq == [2]int{4, 8} {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("H(4,8,2) missing from D=4 search: %v", rows)
	}
	// Kautz K(2,4) = 24 must be the largest.
	row, ok := otis.LargestWithDiameter(2, 4, digraph.MooreBound(2, 4))
	if !ok || row.N != 24 {
		t.Errorf("largest D=4: %v %v", row, ok)
	}
}

func TestFacadeOTISSystem(t *testing.T) {
	s, err := otis.NewSystem(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lenses() != 9 {
		t.Error("lenses wrong")
	}
	ri, rj := s.Receiver(0, 0)
	if ri != 5 || rj != 2 {
		t.Error("transpose wrong")
	}
	if otis.IILayoutLenses(2, 256) != 258 {
		t.Error("baseline lens count wrong")
	}
}

func TestFacadeIsomorphismSearch(t *testing.T) {
	if !digraph.AreIsomorphic(debruijn.DeBruijn(2, 3), debruijn.RRK(2, 8)) {
		t.Error("B(2,3) ≇ RRK(2,8)?")
	}
	if m, ok := digraph.FindIsomorphism(digraph.Circuit(4), digraph.Circuit(4)); !ok || len(m) != 4 {
		t.Error("C4 self-isomorphism failed")
	}
	g := digraph.New(2)
	g.AddArc(0, 1)
	if digraph.AreIsomorphic(g, digraph.Circuit(2)) {
		t.Error("path ≅ cycle?")
	}
	if digraph.FromFunc(3, func(u int) []int { return []int{(u + 1) % 3} }).Diameter() != 2 {
		t.Error("FromFunc circuit wrong")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(simnet.PermutationLoad().Packets(16, 1)) != 16 {
		t.Error("permutation workload size")
	}
	if len(simnet.BroadcastLoad(3).Packets(16, 1)) != 15 {
		t.Error("broadcast workload size")
	}
	if len(simnet.AllToAllLoad().Packets(4, 1)) != 12 {
		t.Error("all-to-all workload size")
	}
	if len(simnet.PoissonLoad(10, 0.5).Packets(16, 1)) != 10 {
		t.Error("poisson workload size")
	}
	if len(simnet.UniformLoad(10).Packets(16, 1)) != 10 {
		t.Error("uniform workload size")
	}
}

func TestFacadeSequences(t *testing.T) {
	seq, err := debruijn.Sequence(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := debruijn.VerifySequence(2, 8, seq); err != nil {
		t.Fatal(err)
	}
	cycle, err := debruijn.HamiltonianCycle(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := debruijn.VerifyHamiltonianCycle(debruijn.DeBruijn(2, 6), cycle); err != nil {
		t.Fatal(err)
	}
	if _, err := debruijn.EulerianCircuit(debruijn.DeBruijn(2, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	X, err := fft.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fft.Inverse(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(back[i]-x[i]) > 1e-9 {
			t.Fatal("FFT round trip failed")
		}
	}
	if err := fft.VerifyDataflow(6); err != nil {
		t.Fatal(err)
	}
	if _, err := fft.Convolve(x, x); err != nil {
		t.Fatal(err)
	}
	if src := fft.StageSources(3, 16); src != [2]int{1, 9} {
		t.Errorf("StageSources = %v", src)
	}
}

func TestFacadeMultistage(t *testing.T) {
	wbf := multistage.WrappedButterfly(2, 3)
	if err := digraph.VerifyIsomorphism(wbf,
		digraph.Conjunction(digraph.Circuit(3), debruijn.DeBruijn(2, 3)), multistage.ButterflyWitness(2, 3)); err != nil {
		t.Fatal(err)
	}
	if multistage.ShuffleNet(2, 3).N() != 24 {
		t.Error("ShuffleNet size")
	}
	if multistage.GEMNET(2, 11, 2).N() != 22 {
		t.Error("GEMNET size")
	}
	stacks := otis.RealizedStructure(2, 3, 6)
	if len(stacks) != 2 {
		t.Fatalf("stacks = %v", stacks)
	}
	if s := stacks[0]; s.Copies != 2 || !s.IsShuffleNet() {
		t.Errorf("first stack = %v", s)
	}
}

func TestFacadeGossip(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	if gossip.BroadcastAllPort(g, 0) != 5 {
		t.Error("all-port broadcast rounds wrong")
	}
	sched, err := gossip.BroadcastSinglePort(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := gossip.VerifySchedule(g, sched); err != nil {
		t.Fatal(err)
	}
	if gossip.GossipAllPort(g) != 5 {
		t.Error("gossip rounds wrong")
	}
	if gossip.LogLowerBound(32) != 5 {
		t.Error("log lower bound wrong")
	}
}

func TestFacadeConjecture(t *testing.T) {
	res := otis.ConjectureScan(4, 2)
	if len(res) == 0 {
		t.Fatal("empty scan")
	}
	if r := res[0]; r.P != 1 {
		t.Errorf("first split %+v", r)
	}
	if np := otis.NonPowerLayouts(res); len(np) != 0 {
		t.Errorf("conjecture counterexamples: %v", np)
	}
}

func TestGalileoTrellisMatchesOptimizedLayoutSize(t *testing.T) {
	// The full-stack story: a K=11 Galileo-style decoder has trellis
	// B(2,10), whose optimal OTIS layout is the 96-lens OTIS(32,64).
	code := viterbi.Galileo(11)
	layout, ok := otis.OptimalLayout(2, 10)
	if !ok {
		t.Fatal("no layout")
	}
	if code.States() != layout.Nodes() {
		t.Errorf("trellis %d states vs layout %d nodes", code.States(), layout.Nodes())
	}
	if layout.Lenses() != 96 {
		t.Errorf("lenses = %d", layout.Lenses())
	}
}

func TestFacadeConnectivity(t *testing.T) {
	b := debruijn.DeBruijn(3, 2)
	if b.ArcConnectivity() != 2 || b.VertexConnectivity() != 2 {
		t.Error("B(3,2) connectivity != 2")
	}
	if paths := b.ArcDisjointPaths(0, 5); len(paths) < 2 {
		t.Error("too few disjoint paths")
	}
}

func TestFacadeLoadSweep(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	points, err := simnet.LoadSweep(g, simnet.NewTableRouter(g), []float64{0.1, 0.8}, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p := points[0]; p.Rate != 0.1 || p.Delivered == 0 {
		t.Errorf("first point %+v", p)
	}
	zero, ok := simnet.ZeroLoadLatency(g, 1)
	if !ok || zero <= 0 {
		t.Error("zero load latency wrong")
	}
}

func TestFacadeDeflection(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	nw, err := simnet.NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := simnet.NewDeflection(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dn.Run(simnet.UniformLoad(200).Packets(g.N(), 13))
	if err != nil || res.Delivered != 200 {
		t.Fatalf("deflection: %v, %v", res, err)
	}
}

func TestFacadeAnalysisHelpers(t *testing.T) {
	maxII, maxRRK := debruijn.DiameterGain(2, 5)
	if maxII != 48 || maxRRK != 32 {
		t.Errorf("DiameterGain = (%d,%d), want (48,32)", maxII, maxRRK)
	}
	d, err := optics.Diffract(mustBench(t), optics.DefaultWavelength)
	if err != nil || !d.Feasible {
		t.Errorf("diffraction: %+v %v", d, err)
	}
	if optics.MaxFeasibleDiameterEven(2, optics.DefaultPitch, optics.DefaultWavelength) < 8 {
		t.Error("feasible diameter too small")
	}
	if optics.RayleighRange(optics.DefaultPitch, optics.DefaultWavelength) <= 0 {
		t.Error("Rayleigh range")
	}
	if rows := otis.SearchDegreeDiameterParallel(2, 4, 16, 31, 2); len(rows) == 0 {
		t.Error("parallel search empty")
	}
	p, err := perm.Parse(4, "(0 1 2 3)")
	if err != nil || !p.IsCyclic() {
		t.Error("perm.Parse broken")
	}
	a1, _ := alpha.New(perm.CyclicShift(4), perm.Identity(2), 0)
	a2, _ := alpha.New(p, perm.Complement(2), 2)
	if _, err := alpha.IsoBetween(a1, a2); err != nil {
		t.Errorf("IsoBetween: %v", err)
	}
}

// mustBench builds the OTIS(16,32) bench of the B(2,8) layout.
func mustBench(t *testing.T) *optics.Bench {
	t.Helper()
	b, err := optics.NewBench(16, 32, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFacadePlanMachine(t *testing.T) {
	plan, ok := machine.Plan(2, 300)
	if !ok || plan.Nodes != 256 {
		t.Errorf("plan = %+v ok=%v", plan, ok)
	}
	m, err := machine.PlanAndBuild(3, 30, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 27 {
		t.Errorf("built %d nodes", m.Nodes())
	}
}
