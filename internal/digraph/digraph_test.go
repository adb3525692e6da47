package digraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// deBruijnCongruence builds B(d, D) in RRK congruence form (Remark 2.6) for
// use as a test fixture without importing the debruijn package (which would
// create an import cycle: debruijn depends on digraph).
func deBruijnCongruence(d, D int) *Digraph {
	n := 1
	for i := 0; i < D; i++ {
		n *= d
	}
	return FromFunc(n, func(u int) []int {
		out := make([]int, d)
		for a := 0; a < d; a++ {
			out[a] = (d*u + a) % n
		}
		return out
	})
}

func TestNewAndAddArc(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("fresh digraph n=%d m=%d", g.N(), g.M())
	}
	g.AddArc(0, 1)
	g.AddArc(0, 1) // parallel arc
	g.AddArc(2, 2) // loop
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if g.ArcMultiplicity(0, 1) != 2 {
		t.Error("parallel arc not counted")
	}
	if !g.HasArc(2, 2) {
		t.Error("loop missing")
	}
	if got := g.Loops(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("Loops = %v", got)
	}
}

func TestAddArcBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range arc accepted")
		}
	}()
	New(2).AddArc(0, 5)
}

func TestDegrees(t *testing.T) {
	g := deBruijnCongruence(2, 3)
	if !g.IsOutRegular(2) || !g.IsInRegular(2) || !g.IsRegular(2) {
		t.Error("B(2,3) must be 2-regular")
	}
	if g.IsRegular(3) {
		t.Error("B(2,3) reported 3-regular")
	}
	in := g.InDegrees()
	for u, d := range in {
		if d != 2 {
			t.Errorf("in-degree of %d = %d", u, d)
		}
	}
}

func TestReverse(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 2)
	r := g.Reverse()
	if !r.HasArc(1, 0) || !r.HasArc(2, 1) || !r.HasArc(2, 2) {
		t.Error("Reverse missing arcs")
	}
	if r.M() != 3 {
		t.Error("Reverse arc count wrong")
	}
	if !r.Reverse().Equal(g) {
		t.Error("double reverse != original")
	}
}

func TestEqual(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1)
	g.AddArc(0, 1)
	h := New(2)
	h.AddArc(0, 1)
	if g.Equal(h) {
		t.Error("different multiplicities reported equal")
	}
	h.AddArc(0, 1)
	if !g.Equal(h) {
		t.Error("equal digraphs reported different")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	// Directed path 0→1→2→3.
	g := New(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 3)
	dist := g.BFSFrom(0)
	if !reflect.DeepEqual(dist, []int{0, 1, 2, 3}) {
		t.Fatalf("BFS dist = %v", dist)
	}
	if d := g.BFSFrom(3)[0]; d != Unreachable {
		t.Error("reverse reachability reported on a path")
	}
	if g.Diameter() != Unreachable {
		t.Error("path digraph has no finite directed diameter")
	}
	// Close the cycle: now diameter 3.
	g.AddArc(3, 0)
	if got := g.Diameter(); got != 3 {
		t.Errorf("C4 diameter = %d, want 3", got)
	}
}

func TestDeBruijnDiameter(t *testing.T) {
	// The defining property: B(d, D) has diameter exactly D.
	cases := []struct{ d, D int }{{2, 3}, {2, 6}, {3, 3}, {4, 2}, {2, 8}}
	for _, c := range cases {
		g := deBruijnCongruence(c.d, c.D)
		if got := g.Diameter(); got != c.D {
			t.Errorf("B(%d,%d) diameter = %d, want %d", c.d, c.D, got, c.D)
		}
	}
}

func TestDiameterAtMost(t *testing.T) {
	g := deBruijnCongruence(2, 5)
	if !g.DiameterAtMost(5) {
		t.Error("B(2,5) diameter should be at most 5")
	}
	if g.DiameterAtMost(4) {
		t.Error("B(2,5) diameter should exceed 4")
	}
	// Disconnected digraph: never within any bound.
	h := New(2)
	if h.DiameterAtMost(10) {
		t.Error("arcless digraph reported within diameter bound")
	}
}

func TestEccentricity(t *testing.T) {
	g := deBruijnCongruence(2, 4)
	for u := 0; u < g.N(); u++ {
		ecc := g.Eccentricity(u)
		// In B(2,4): from vertex u every vertex is within 4, and some
		// vertex is exactly 4 away except... in fact eccentricity of
		// every de Bruijn vertex is exactly D.
		if ecc != 4 {
			t.Errorf("ecc(%d) = %d, want 4", u, ecc)
		}
	}
}

func TestDistanceHistogram(t *testing.T) {
	g := deBruijnCongruence(2, 3)
	hist, unreachable := g.DistanceHistogram()
	if unreachable != 0 {
		t.Fatalf("unreachable = %d", unreachable)
	}
	// Total ordered pairs = n².
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != 64 {
		t.Fatalf("histogram total = %d, want 64", total)
	}
	if hist[0] != 8 {
		t.Errorf("hist[0] = %d, want 8", hist[0])
	}
	if len(hist)-1 != 3 {
		t.Errorf("max distance %d, want 3", len(hist)-1)
	}
}

func TestMeanDistance(t *testing.T) {
	g := Circuit(4)
	mean, ok := g.MeanDistance()
	if !ok {
		t.Fatal("circuit should be strongly connected")
	}
	// Distances from any vertex: 1, 2, 3 → mean = 2.
	if mean != 2.0 {
		t.Errorf("mean distance = %v, want 2", mean)
	}
	if _, ok := New(3).MeanDistance(); ok {
		t.Error("arcless digraph should report not-ok")
	}
}

func TestShortestPath(t *testing.T) {
	g := deBruijnCongruence(2, 4)
	path := g.ShortestPath(3, 12)
	if path == nil || path[0] != 3 || path[len(path)-1] != 12 {
		t.Fatalf("bad path %v", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.HasArc(path[i], path[i+1]) {
			t.Fatalf("path uses missing arc (%d,%d)", path[i], path[i+1])
		}
	}
	dist := g.BFSFrom(3)
	if len(path)-1 != dist[12] {
		t.Errorf("path length %d, BFS distance %d", len(path)-1, dist[12])
	}
	if p := g.ShortestPath(0, 0); len(p) != 1 {
		t.Errorf("trivial path = %v", p)
	}
	h := New(2)
	if h.ShortestPath(0, 1) != nil {
		t.Error("path found in arcless digraph")
	}
}

func TestGirth(t *testing.T) {
	if got := Circuit(5).Girth(); got != 5 {
		t.Errorf("C5 girth = %d", got)
	}
	if got := deBruijnCongruence(2, 3).Girth(); got != 1 {
		t.Errorf("B(2,3) girth = %d, want 1 (loops at 000, 111)", got)
	}
	acyclic := New(3)
	acyclic.AddArc(0, 1)
	acyclic.AddArc(1, 2)
	if acyclic.Girth() != Unreachable {
		t.Error("acyclic digraph has a girth")
	}
}

func TestSCCTarjan(t *testing.T) {
	// Two 2-cycles joined by a one-way arc, plus an isolated vertex.
	g := New(5)
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(1, 2)
	g.AddArc(2, 3)
	g.AddArc(3, 2)
	comps := g.StronglyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d SCCs: %v", len(comps), comps)
	}
	// Check the partition regardless of order.
	byVertex := map[int][]int{}
	for _, c := range comps {
		for _, v := range c {
			byVertex[v] = c
		}
	}
	if !reflect.DeepEqual(byVertex[0], []int{0, 1}) {
		t.Errorf("SCC of 0 = %v", byVertex[0])
	}
	if !reflect.DeepEqual(byVertex[2], []int{2, 3}) {
		t.Errorf("SCC of 2 = %v", byVertex[2])
	}
	if !reflect.DeepEqual(byVertex[4], []int{4}) {
		t.Errorf("SCC of 4 = %v", byVertex[4])
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	// Tarjan emits components in reverse topological order: a component
	// is emitted before any component that can reach it.
	g := New(4)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	g.AddArc(2, 1)
	g.AddArc(2, 3)
	comps := g.StronglyConnectedComponents()
	pos := map[int]int{}
	for i, c := range comps {
		for _, v := range c {
			pos[v] = i
		}
	}
	if !(pos[3] < pos[1] && pos[1] < pos[0]) {
		t.Errorf("not reverse topological: %v", comps)
	}
}

func TestSCCDeBruijnIsOneComponent(t *testing.T) {
	g := deBruijnCongruence(2, 6)
	comps := g.StronglyConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 64 {
		t.Fatalf("B(2,6) SCCs = %d", len(comps))
	}
	if !g.IsStronglyConnected() {
		t.Error("IsStronglyConnected disagrees")
	}
}

func TestSCCLargeRandomAgainstDefinition(t *testing.T) {
	// Validate Tarjan against the O(n²) definition on random digraphs.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		for k := 0; k < n*2; k++ {
			g.AddArc(rng.Intn(n), rng.Intn(n))
		}
		comps := g.StronglyConnectedComponents()
		compOf := make([]int, n)
		for i, c := range comps {
			for _, v := range c {
				compOf[v] = i
			}
		}
		// Mutual reachability check.
		reach := make([][]int, n)
		for u := 0; u < n; u++ {
			reach[u] = g.BFSFrom(u)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := reach[u][v] != Unreachable && reach[v][u] != Unreachable
				if mutual != (compOf[u] == compOf[v]) {
					t.Fatalf("trial %d: SCC disagrees for (%d,%d)", trial, u, v)
				}
			}
		}
	}
}

func TestWeakComponents(t *testing.T) {
	g := New(6)
	g.AddArc(0, 1)
	g.AddArc(2, 1) // weakly joins 2 to {0,1}
	g.AddArc(3, 4)
	comps := g.WeaklyConnectedComponents()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("weak components = %v, want %v", comps, want)
	}
	if g.IsWeaklyConnected() {
		t.Error("disconnected digraph reported weakly connected")
	}
	if !Circuit(3).IsWeaklyConnected() {
		t.Error("C3 not weakly connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := deBruijnCongruence(2, 3)
	sub, old := g.InducedSubgraph([]int{0, 1, 2})
	if sub.N() != 3 {
		t.Fatalf("sub n=%d", sub.N())
	}
	if !reflect.DeepEqual(old, []int{0, 1, 2}) {
		t.Fatalf("old labels %v", old)
	}
	// 0→{0,1}, 1→{2,3}, 2→{4,5}: induced arcs 0→0, 0→1, 1→2.
	if sub.M() != 3 || !sub.HasArc(0, 0) || !sub.HasArc(0, 1) || !sub.HasArc(1, 2) {
		t.Errorf("induced arcs wrong: %v", sub)
	}
}

func TestConjunctionDefinition(t *testing.T) {
	// Check Definition 2.3 directly on small digraphs.
	g1 := Circuit(2)
	g2 := Circuit(3)
	c := Conjunction(g1, g2)
	if c.N() != 6 || c.M() != 6 {
		t.Fatalf("C2⊗C3: n=%d m=%d", c.N(), c.M())
	}
	// (0,0) → (1,1): label 0*3+0=0 → 1*3+1=4.
	if !c.HasArc(0, 4) {
		t.Error("C2⊗C3 missing arc (0,0)→(1,1)")
	}
	// C2 ⊗ C3 = C6 (gcd(2,3)=1).
	if got := c.Diameter(); got != 5 {
		t.Errorf("C2⊗C3 diameter = %d, want 5 (it is C6)", got)
	}
}

func TestConjunctionDeBruijnIdentity(t *testing.T) {
	// Remark 2.4: B(d,k) ⊗ B(d',k) = B(dd',k).
	b2 := deBruijnCongruence(2, 2)
	b3 := deBruijnCongruence(3, 2)
	prod := Conjunction(b2, b3)
	b6 := deBruijnCongruence(6, 2)
	if prod.N() != b6.N() || prod.M() != b6.M() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", prod.N(), prod.M(), b6.N(), b6.M())
	}
	if _, ok := FindIsomorphism(prod, b6); !ok {
		t.Error("B(2,2)⊗B(3,2) not isomorphic to B(6,2)")
	}
}

func TestLineDigraphOfDeBruijn(t *testing.T) {
	// L(B(d,D)) = B(d,D+1).
	for _, c := range []struct{ d, D int }{{2, 2}, {2, 3}, {3, 2}} {
		b := deBruijnCongruence(c.d, c.D)
		l, arcs := LineDigraph(b)
		next := deBruijnCongruence(c.d, c.D+1)
		if l.N() != next.N() {
			t.Fatalf("L(B(%d,%d)) has %d vertices, want %d", c.d, c.D, l.N(), next.N())
		}
		if len(arcs) != b.M() {
			t.Fatalf("arc table size %d != m %d", len(arcs), b.M())
		}
		if _, ok := FindIsomorphism(l, next); !ok {
			t.Errorf("L(B(%d,%d)) not isomorphic to B(%d,%d)", c.d, c.D, c.d, c.D+1)
		}
	}
}

func TestCircuit(t *testing.T) {
	c1 := Circuit(1)
	if c1.N() != 1 || !c1.HasArc(0, 0) {
		t.Error("C1 must be a loop")
	}
	c4 := Circuit(4)
	if !c4.IsRegular(1) || c4.Diameter() != 3 {
		t.Error("C4 malformed")
	}
}

func TestCompleteWithLoops(t *testing.T) {
	k := CompleteWithLoops(4)
	if k.M() != 16 || !k.IsRegular(4) {
		t.Fatalf("K*_4: m=%d", k.M())
	}
	if k.Diameter() != 1 {
		t.Errorf("K*_4 diameter = %d", k.Diameter())
	}
}

func TestMooreBound(t *testing.T) {
	if MooreBound(2, 3) != 15 {
		t.Errorf("Moore(2,3) = %d, want 15", MooreBound(2, 3))
	}
	if MooreBound(2, 8) != 511 {
		t.Errorf("Moore(2,8) = %d, want 511", MooreBound(2, 8))
	}
	// Kautz K(2,8) from Table 1 has 384 = 2^7·3 nodes < 511.
	if 384 >= MooreBound(2, 8) {
		t.Error("Kautz exceeds Moore bound?!")
	}
}

func TestVerifyIsomorphism(t *testing.T) {
	g := Circuit(4)
	h := New(4)
	// Same cycle relabelled 0→2→1→3→0.
	h.AddArc(0, 2)
	h.AddArc(2, 1)
	h.AddArc(1, 3)
	h.AddArc(3, 0)
	mapping := []int{0, 3, 2, 1} // g vertex i ↦ h vertex
	// g arc 0→1 must become h arc 0→3? h has 0→2. Find correct mapping:
	// follow cycles: g: 0,1,2,3; h cycle from 0: 0,2,1,3.
	mapping = []int{0, 2, 1, 3}
	if err := VerifyIsomorphism(g, h, mapping); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	bad := []int{0, 1, 2, 3}
	if VerifyIsomorphism(g, h, bad) == nil {
		t.Error("invalid mapping accepted")
	}
	if VerifyIsomorphism(g, h, []int{0, 0, 1, 2}) == nil {
		t.Error("non-injective mapping accepted")
	}
	if VerifyIsomorphism(g, h, []int{0, 1}) == nil {
		t.Error("short mapping accepted")
	}
}

func TestFindIsomorphismPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		for k := 0; k < 2*n; k++ {
			g.AddArc(rng.Intn(n), rng.Intn(n))
		}
		// Random relabelling of g.
		pi := rng.Perm(n)
		h := New(n)
		for u := 0; u < n; u++ {
			for _, v := range g.Out(u) {
				h.AddArc(pi[u], pi[v])
			}
		}
		mapping, ok := FindIsomorphism(g, h)
		if !ok {
			t.Fatalf("trial %d: isomorphic digraphs not matched", trial)
		}
		if err := VerifyIsomorphism(g, h, mapping); err != nil {
			t.Fatalf("trial %d: returned mapping invalid: %v", trial, err)
		}
	}
}

func TestFindIsomorphismNegative(t *testing.T) {
	// C6 vs C3+C3: same degree sequence, not isomorphic.
	c6 := Circuit(6)
	two := New(6)
	for _, base := range []int{0, 3} {
		for i := 0; i < 3; i++ {
			two.AddArc(base+i, base+(i+1)%3)
		}
	}
	if AreIsomorphic(c6, two) {
		t.Error("C6 ≅ C3⊎C3 reported")
	}
	// Different sizes.
	if AreIsomorphic(Circuit(3), Circuit(4)) {
		t.Error("C3 ≅ C4 reported")
	}
	// Same size, different arc counts.
	g := Circuit(4)
	h := g.Clone()
	h.AddArc(0, 2)
	if AreIsomorphic(g, h) {
		t.Error("different arc counts reported isomorphic")
	}
}

func TestFindIsomorphismDeBruijnSelf(t *testing.T) {
	g := deBruijnCongruence(2, 4)
	mapping, ok := FindIsomorphism(g, g.Clone())
	if !ok {
		t.Fatal("B(2,4) not isomorphic to itself")
	}
	if err := VerifyIsomorphism(g, g, mapping); err != nil {
		t.Fatal(err)
	}
}

func TestColorInvariant(t *testing.T) {
	g := deBruijnCongruence(2, 3)
	h := deBruijnCongruence(2, 3)
	if g.ColorInvariant() != h.ColorInvariant() {
		t.Error("identical digraphs, different invariants")
	}
	k := CompleteWithLoops(8)
	if g.ColorInvariant() == k.ColorInvariant() {
		t.Error("B(2,3) and K*_8 share an invariant (unlucky but suspicious)")
	}
}

func TestDegreeSequence(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1)
	g.AddArc(0, 2)
	g.AddArc(1, 2)
	seq := g.DegreeSequence()
	if len(seq) != 3 {
		t.Fatalf("len = %d", len(seq))
	}
	h := g.Reverse()
	// Degree sequences of g and its reverse differ in general (out/in swap).
	_ = h.DegreeSequence()
}

func TestCloneIndependence(t *testing.T) {
	g := Circuit(3)
	h := g.Clone()
	h.AddArc(0, 0)
	if g.M() != 3 {
		t.Error("Clone shares storage")
	}
	if !g.Equal(Circuit(3)) {
		t.Error("original mutated")
	}
}

func TestStringRendering(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1)
	s := g.String()
	if s == "" {
		t.Error("empty String")
	}
}

func TestEmptyDigraph(t *testing.T) {
	g := New(0)
	if g.Diameter() != Unreachable {
		t.Error("empty diameter")
	}
	if g.IsStronglyConnected() {
		t.Error("empty digraph strongly connected")
	}
	if comps := g.StronglyConnectedComponents(); len(comps) != 0 {
		t.Error("empty digraph has components")
	}
	mapping, ok := FindIsomorphism(g, New(0))
	if !ok || len(mapping) != 0 {
		t.Error("empty digraphs not isomorphic")
	}
}

func TestRegularCutsOneSlab(t *testing.T) {
	heads := []int{1, 2, 2, 3, 3, 0, 0, 1}
	g := Regular(4, 2, heads)
	if g.N() != 4 || g.M() != 8 || !g.IsOutRegular(2) {
		t.Fatalf("Regular(4, 2): n=%d m=%d", g.N(), g.M())
	}
	for u := 0; u < 4; u++ {
		if out := g.Out(u); !reflect.DeepEqual(out, heads[2*u:2*u+2]) {
			t.Errorf("Out(%d) = %v, want %v", u, out, heads[2*u:2*u+2])
		}
	}
	// AddArc is the only in-place mutator: growing one list must
	// reallocate it, never write into the neighbour's window.
	g.AddArc(1, 0)
	want := [][]int{{1, 2}, {2, 3, 0}, {3, 0}, {0, 1}}
	for u, w := range want {
		if out := g.Out(u); !reflect.DeepEqual(out, w) {
			t.Errorf("after AddArc(1, 0): Out(%d) = %v, want %v", u, out, w)
		}
	}
	if g.M() != 9 {
		t.Errorf("after AddArc: m=%d, want 9", g.M())
	}
}

func TestRegularRejectsBadSlab(t *testing.T) {
	for _, c := range []struct {
		n, d  int
		heads []int
	}{
		{2, 2, []int{0, 1, 1}}, // short slab
		{2, 1, []int{0, 2}},    // head out of range
		{2, 1, []int{-1, 0}},   // negative head
		{1, -1, []int{}},       // negative degree
		{3, 2, make([]int, 7)}, // long slab
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Regular(%d, %d, %v) did not panic", c.n, c.d, c.heads)
				}
			}()
			Regular(c.n, c.d, c.heads)
		}()
	}
}
