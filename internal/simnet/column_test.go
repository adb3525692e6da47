package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/digraph"
)

// The residual columns' contract: every column equals, entry for entry,
// what NewTableRouter builds from scratch on the residual digraph, and
// on a shift-routed graph every clear shift path starts on the
// column's arc.

// residualDigraph rebuilds g minus the dead arcs, preserving adjacency
// order of the survivors.
func residualDigraph(g *digraph.Digraph, dead []Arc) *digraph.Digraph {
	mask := map[Arc]bool{}
	for _, a := range dead {
		mask[a] = true
	}
	h := digraph.New(g.N())
	for u := 0; u < g.N(); u++ {
		for k, v := range g.Out(u) {
			if mask[Arc{Tail: u, Index: k}] {
				continue
			}
			h.AddArc(u, v)
		}
	}
	return h
}

// routesEqualScratch checks a routing decision got(u, dst) against
// NewTableRouter on the residual digraph at every pair. The residual
// keeps surviving arcs at shifted adjacency positions, so the
// comparison translates: for every pair the two must pick the same
// physical arc (same flat position among survivors), not merely the
// same head.
func routesEqualScratch(t *testing.T, g *digraph.Digraph, dead []Arc, got func(u, dst int) int) {
	t.Helper()
	residual := residualDigraph(g, dead)
	want := NewTableRouter(residual)
	mask := map[Arc]bool{}
	for _, a := range dead {
		mask[a] = true
	}
	n := g.N()
	// shift[k] maps g's arc position at u to residual's, -1 for dead arcs.
	for u := 0; u < n; u++ {
		shift := make([]int, g.OutDegree(u))
		live := 0
		for k := range g.Out(u) {
			if mask[Arc{Tail: u, Index: k}] {
				shift[k] = -1
				continue
			}
			shift[k] = live
			live++
		}
		for dst := 0; dst < n; dst++ {
			if u == dst {
				continue
			}
			gotArc := got(u, dst)
			wantArc := want.NextArc(u, dst)
			switch {
			case gotArc < 0:
				if wantArc >= 0 {
					t.Fatalf("dead %v: (%d,%d) routes nowhere, scratch routes arc %d", dead, u, dst, wantArc)
				}
			case shift[gotArc] != wantArc:
				t.Fatalf("dead %v: (%d,%d) arc %d (residual pos %d) != scratch arc %d", dead, u, dst, gotArc, shift[gotArc], wantArc)
			}
		}
	}
}

// columnsEqualScratch checks every column of the residual of g minus
// dead against the scratch build, and — when shift routes g — every
// decision that takes the shift shortcut against the column.
func columnsEqualScratch(t *testing.T, g *digraph.Digraph, shift *DeBruijnRouter, dead []Arc) {
	t.Helper()
	r := newResidual(g, arcBaseOf(g), dead)
	routesEqualScratch(t, g, dead, func(u, dst int) int { return int(r.column(dst)[u]) })
	if shift != nil {
		routesEqualScratch(t, g, dead, func(u, dst int) int { return r.route(shift, u, dst) })
	}
}

// columnCase is a digraph of the column tests, with its shift router
// when it is a congruence-form de Bruijn digraph.
type columnCase struct {
	g     *digraph.Digraph
	shift *DeBruijnRouter
}

// columnCatalog is the catalog, the witness-routed OTIS wiring of
// B(2,6) and the hub digraph whose table is the wide int32 slab.
func columnCatalog(t *testing.T) map[string]columnCase {
	h, _, wr := otisB26Witness(t)
	out := map[string]columnCase{"wide_hub": {g: wideHubDigraph()}, "OTIS_B(2,6)_witness": {g: h, shift: wr}}
	for name, g := range catalogGraphs(t) {
		out[name] = columnCase{g: g}
	}
	out["B(2,4)"] = columnCase{g: out["B(2,4)"].g, shift: NewDeBruijnRouter(2, 4)}
	out["B(3,3)"] = columnCase{g: out["B(3,3)"].g, shift: NewDeBruijnRouter(3, 3)}
	return out
}

// TestCustomRouterDistanceMatchesSlab: under a custom router the
// fault-free distance deflections rank by is the walk of dst's column
// over the intact digraph, built on first use; it matches the all-pairs
// distance slab on every pair of the column catalog and of three
// digraphs with unreachable pairs.
func TestCustomRouterDistanceMatchesSlab(t *testing.T) {
	path := digraph.New(3) // 0 → 1 → 2: nothing returns
	path.AddArc(0, 1)
	path.AddArc(1, 2)
	split := digraph.New(4) // two 2-cycles with a one-way bridge
	split.AddArc(0, 1)
	split.AddArc(1, 0)
	split.AddArc(2, 3)
	split.AddArc(3, 2)
	split.AddArc(1, 2)
	loop := digraph.New(1)
	loop.AddArc(0, 0)
	graphs := map[string]*digraph.Digraph{"path(3)": path, "split(4)": split, "loop(1)": loop}
	for name, c := range columnCatalog(t) {
		graphs[name] = c.g
	}
	for name, g := range graphs {
		n := g.N()
		dist := g.DistanceSlab()
		src := distSource{g: g, router: opaqueRouter{NewTableRouter(g)}}
		for dst := 0; dst < n; dst++ {
			for v := 0; v < n; v++ {
				if got, want := src.dist(v, dst), dist[v*n+dst]; got != want {
					t.Fatalf("%s: distance from %d to %d is %d, slab %d", name, v, dst, got, want)
				}
			}
		}
		if src.cols == nil || len(src.cols.cols) != n {
			t.Fatalf("%s: the custom router's source built no columns over the intact digraph", name)
		}
	}
}

// TestResidualColumnsEverySingleArc: with no arc down every column is
// the table's, and for every single-arc fault of every catalog graph
// every column equals the from-scratch residual router.
func TestResidualColumnsEverySingleArc(t *testing.T) {
	for name, c := range columnCatalog(t) {
		g := c.g
		t.Run(name, func(t *testing.T) {
			columnsEqualScratch(t, g, c.shift, nil)
			if name == "wide_hub" {
				return // 160 nodes × 160+ arcs: the random sets below cover it
			}
			for u := 0; u < g.N(); u++ {
				for k := 0; k < g.OutDegree(u); k++ {
					columnsEqualScratch(t, g, c.shift, []Arc{{Tail: u, Index: k}})
				}
			}
		})
	}
}

// TestResidualColumnsRandomFaultSets: seeded multi-arc fault sets.
func TestResidualColumnsRandomFaultSets(t *testing.T) {
	for _, c := range columnCatalog(t) {
		g := c.g
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			seen := map[Arc]bool{}
			var dead []Arc
			for len(dead) < 1+rng.Intn(4) {
				u := rng.Intn(g.N())
				if g.OutDegree(u) == 0 {
					continue
				}
				a := Arc{Tail: u, Index: rng.Intn(g.OutDegree(u))}
				if seen[a] {
					continue
				}
				seen[a] = true
				dead = append(dead, a)
			}
			columnsEqualScratch(t, g, c.shift, dead)
		}
	}
}
