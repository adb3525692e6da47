package repro

import (
	"testing"
)

// End-to-end tests exercising the public facade: graph theory, optics and
// simulation composed the way a user of the library would.

func TestQuickstartFlow(t *testing.T) {
	// The README quick start, as a test.
	layout, ok := OptimalLayout(2, 8)
	if !ok {
		t.Fatal("no layout for B(2,8)")
	}
	if layout.P() != 16 || layout.Q() != 32 || layout.Lenses() != 48 {
		t.Fatalf("layout = %v", layout)
	}
	mapping, err := LayoutWitness(2, layout.PPrime, layout.QPrime)
	if err != nil {
		t.Fatal(err)
	}
	h, err := HDigraph(layout.P(), layout.Q(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIsomorphism(h, DeBruijn(2, 8), mapping); err != nil {
		t.Fatal(err)
	}
	bench, err := NewBench(layout.P(), layout.Q(), DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.VerifyTranspose(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndLayout(t *testing.T) {
	// Experiment E5: realize B(2,10) on its optimal OTIS layout, verify
	// the optics, then route packets over the *relabelled* digraph
	// H(32,64,2) with table routing, and check the hop bound is the
	// de Bruijn diameter.
	const d, D = 2, 10
	layout, ok := OptimalLayout(d, D)
	if !ok {
		t.Fatal("no layout")
	}
	if layout.Lenses() != 96 {
		t.Fatalf("lenses = %d, want 96 = 3·√1024", layout.Lenses())
	}
	h, err := HDigraph(layout.P(), layout.Q(), d)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Diameter(); got != D {
		t.Fatalf("H diameter = %d, want %d", got, D)
	}
	nw, err := NewNetwork(h, WithRouter(NewTableRouter(h)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RunOpts(UniformLoad(2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2000 || res.Dropped != 0 {
		t.Fatalf("result %v", res)
	}
	if res.MaxHops > D {
		t.Errorf("max hops %d exceeds diameter %d", res.MaxHops, D)
	}
	mean, okMean := h.MeanDistance()
	if !okMean {
		t.Fatal("mean distance undefined")
	}
	// Uniform traffic mean hops must be close to the digraph's mean
	// distance (same distribution, sampled).
	if res.MeanHops < mean-0.5 || res.MeanHops > mean+0.5 {
		t.Errorf("mean hops %.2f far from mean distance %.2f", res.MeanHops, mean)
	}
}

func TestFacadePermsAndWords(t *testing.T) {
	c := ComplementPerm(8)
	if c.Apply(0) != 7 {
		t.Error("complement wrong")
	}
	w, err := ParseWord(2, "1011")
	if err != nil || w.Int() != 11 {
		t.Errorf("ParseWord: %v %v", w, err)
	}
	if Pow(2, 10) != 1024 {
		t.Error("Pow wrong")
	}
	if CountDefinitions(2, 8) != 2*5040 {
		t.Error("CountDefinitions wrong")
	}
}

func TestFacadeDigraphOps(t *testing.T) {
	b := DeBruijn(2, 4)
	k, words := Kautz(2, 4)
	if b.N() != 16 || k.N() != 24 || len(words) != 24 {
		t.Error("orders wrong")
	}
	if MooreBound(2, 4) != 31 {
		t.Error("Moore bound wrong")
	}
	l, arcs := LineDigraph(b)
	if l.N() != 32 || len(arcs) != 32 {
		t.Error("line digraph wrong")
	}
	c := Conjunction(Circuit(2), DeBruijn(2, 1))
	if c.N() != 4 {
		t.Error("conjunction wrong")
	}
	if CompleteWithLoops(8).M() != 64 {
		t.Error("K*_8 wrong")
	}
}

func TestFacadeAlpha(t *testing.T) {
	a, err := NewAlpha(CyclicShiftPerm(5), IdentityPerm(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsDeBruijn() {
		t.Error("shift alpha not de Bruijn")
	}
	if !a.Digraph().Equal(DeBruijn(2, 5)) {
		t.Error("A(ρ,Id,0) != B(2,5) via facade")
	}
	if DeBruijnAlpha(2, 3).N() != 8 {
		t.Error("DeBruijnAlpha wrong")
	}
}

func TestFacadeRoutingAndBroadcast(t *testing.T) {
	src, _ := ParseWord(2, "0000")
	dst, _ := ParseWord(2, "1111")
	if DeBruijnDistance(src, dst) != 4 {
		t.Error("distance wrong")
	}
	path := DeBruijnRoute(src, dst)
	if len(path) != 5 {
		t.Errorf("route length %d", len(path))
	}
	parent, depth := BroadcastTree(2, 4, 0)
	if parent[0] != -1 || depth[0] != 0 {
		t.Error("broadcast tree root wrong")
	}
}

func TestFacadeOpticsBudget(t *testing.T) {
	bench, err := NewBench(16, 32, DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	margin, _ := WorstCaseMargin(bench, DefaultBudget())
	if margin <= 0 {
		t.Errorf("link margin %.2f", margin)
	}
	bom := BillOfMaterials(bench, 2)
	if bom.Nodes != 256 || bom.Lenses != 48 {
		t.Errorf("BOM %+v", bom)
	}
	base, opt, ratio, err := CompareLayoutLenses(2, 10)
	if err != nil || base != 1026 || opt != 96 || ratio < 10 {
		t.Errorf("CompareLayoutLenses: %d %d %.1f %v", base, opt, ratio, err)
	}
}

func TestFacadeIIAndWitnesses(t *testing.T) {
	if err := VerifyIILayout(2, 100); err != nil {
		t.Error(err)
	}
	if _, err := IsoIIToB(2, 5); err != nil {
		t.Error(err)
	}
	sigma, _ := PermFromImage([]int{1, 0})
	if _, err := IsoBSigmaToB(2, 5, sigma); err != nil {
		t.Error(err)
	}
	if len(WitnessW(2, 3, IdentityPerm(2))) != 8 {
		t.Error("witness length wrong")
	}
	if len(WitnessIIToB(2, 3)) != 8 {
		t.Error("II witness length wrong")
	}
}

func TestFacadeSearchSmall(t *testing.T) {
	rows := SearchDegreeDiameter(2, 4, 16, 31)
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
	row, ok := LargestWithDiameter(2, 4, MooreBound(2, 4))
	if !ok || row.N != 24 {
		t.Errorf("largest D=4: %v %v", row, ok)
	}
}

func TestFacadeOTISSystem(t *testing.T) {
	s, err := NewOTIS(3, 6)
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
	if IILayoutLenses(2, 256) != 258 {
		t.Error("baseline lens count wrong")
	}
}

func TestFacadeIsomorphismSearch(t *testing.T) {
	if !AreIsomorphic(DeBruijn(2, 3), RRK(2, 8)) {
		t.Error("B(2,3) ≇ RRK(2,8)?")
	}
	if m, ok := FindIsomorphism(Circuit(4), Circuit(4)); !ok || len(m) != 4 {
		t.Error("C4 self-isomorphism failed")
	}
	g := NewDigraph(2)
	g.AddArc(0, 1)
	if AreIsomorphic(g, Circuit(2)) {
		t.Error("path ≅ cycle?")
	}
	if DigraphFromFunc(3, func(u int) []int { return []int{(u + 1) % 3} }).Diameter() != 2 {
		t.Error("FromFunc circuit wrong")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(PermutationLoad().Packets(16, 1)) != 16 {
		t.Error("permutation workload size")
	}
	if len(BroadcastLoad(3).Packets(16, 1)) != 15 {
		t.Error("broadcast workload size")
	}
	if len(AllToAllLoad().Packets(4, 1)) != 12 {
		t.Error("all-to-all workload size")
	}
	if len(PoissonLoad(10, 0.5).Packets(16, 1)) != 10 {
		t.Error("poisson workload size")
	}
	if len(UniformLoad(10).Packets(16, 1)) != 10 {
		t.Error("uniform workload size")
	}
}

func TestFacadeNativeRouterOnLayout(t *testing.T) {
	// Route on B(2,8) labels with the native router, after mapping H
	// vertices through the layout witness — the full "self-routing OTIS
	// de Bruijn machine" pipeline.
	const d, D = 2, 8
	mapping, err := LayoutWitness(d, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := DeBruijn(d, D)
	nw, err := NewNetwork(b, WithRouter(NewDeBruijnRouter(d, D)))
	if err != nil {
		t.Fatal(err)
	}
	// Translate an H-space workload to B-space through the witness.
	pkts := UniformLoad(500).Packets(b.N(), 2)
	for i := range pkts {
		pkts[i].Src = mapping[pkts[i].Src]
		pkts[i].Dst = mapping[pkts[i].Dst]
	}
	res, err := nw.RunOpts(FixedWorkload(pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 500 {
		t.Fatalf("delivered %d/500", res.Delivered)
	}
	if res.MaxHops > D {
		t.Errorf("max hops %d > %d", res.MaxHops, D)
	}
}
