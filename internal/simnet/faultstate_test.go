package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// Tests for the flat compiled fault state and the diameter that
// defaults a fault run's TTL: every FaultState query, and the per-cycle
// fault view the fault kernel's departure sweep reads, must agree with a
// brute-force scan of the plan's faults, at any cycle and in any order
// of Advance calls, and a Network's diameter must be g.Diameter().

// bruteCovers reports whether fault f, expanded as Compile expands it,
// covers the arc at (u, k) of g.
func bruteCovers(g *digraph.Digraph, f Fault, u, k int) bool {
	switch f.Kind {
	case FaultLink:
		return f.Arc == Arc{Tail: u, Index: k}
	case FaultNode:
		return u == f.Node || g.Out(u)[k] == f.Node
	case FaultLens:
		for _, a := range f.Arcs {
			if a == (Arc{Tail: u, Index: k}) {
				return true
			}
		}
	}
	return false
}

// bruteArcSpans counts the arc spans Compile adds for f, duplicates
// included.
func bruteArcSpans(g *digraph.Digraph, f Fault) int {
	switch f.Kind {
	case FaultLink:
		return 1
	case FaultNode:
		c := g.OutDegree(f.Node)
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Out(u) {
				if v == f.Node && u != f.Node {
					c++
				}
			}
		}
		return c
	case FaultLens:
		return len(f.Arcs)
	}
	return 0
}

func activeAt(f Fault, cycle int) bool {
	return cycle >= f.Start && (f.Permanent() || cycle < f.Start+f.Duration)
}

// randomFaultPlan schedules a mix of link, node and lens faults, each
// transient or permanent, with starts and durations chosen to overlap.
func randomFaultPlan(g *digraph.Digraph, rng *rand.Rand) *FaultPlan {
	n := g.N()
	p := NewFaultPlanFor(g)
	for i := 0; i < 1+rng.Intn(6); i++ {
		dur := 0
		if rng.Intn(3) > 0 {
			dur = 1 + rng.Intn(12)
		}
		start := rng.Intn(20)
		switch rng.Intn(3) {
		case 0:
			u := rng.Intn(n)
			p.LinkDown(start, dur, u, rng.Intn(g.OutDegree(u)))
		case 1:
			p.NodeDown(start, dur, rng.Intn(n))
		case 2:
			var group []Arc
			for j := 0; j < 1+rng.Intn(6); j++ {
				u := rng.Intn(n)
				group = append(group, Arc{Tail: u, Index: rng.Intn(g.OutDegree(u))})
			}
			p.LensDown(start, dur, i, group)
		}
	}
	return p
}

// TestFaultStateMatchesBruteForce checks ArcDown, NodeDown,
// PermanentVersion, Empty and the permanently-down arcs residual routing
// avoids against a brute-force scan of the plan's faults, over random
// plans on several digraphs (including multigraph self-loops) and a
// random walk of Advance calls that moves backwards as often as
// forwards. Out-of-range arcs and nodes are never down, as the
// map-keyed state reported.
func TestFaultStateMatchesBruteForce(t *testing.T) {
	kautz, _ := debruijn.Kautz(2, 3)
	graphs := map[string]*digraph.Digraph{
		"B(2,4)": debruijn.DeBruijn(2, 4),
		"B(3,2)": debruijn.DeBruijn(3, 2),
		"K(2,3)": kautz,
	}
	for name, g := range graphs {
		n := g.N()
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			plan := randomFaultPlan(g, rng)
			if err := plan.Err(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			st, err := plan.Compile(g)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			faults := plan.Faults()
			if st.Empty() != (len(faults) == 0) {
				t.Fatalf("%s seed %d: Empty() = %v with %d faults", name, seed, st.Empty(), len(faults))
			}
			for step := 0; step < 30; step++ {
				cycle := rng.Intn(40) - 2
				st.Advance(cycle)
				version := 0
				for _, f := range faults {
					if f.Permanent() && cycle >= f.Start {
						version += bruteArcSpans(g, f)
					}
				}
				if got := st.PermanentVersion(); got != version {
					t.Fatalf("%s seed %d cycle %d: PermanentVersion = %d, want %d", name, seed, cycle, got, version)
				}
				var permanent []Arc
				for v := 0; v < n; v++ {
					want := false
					for _, f := range faults {
						want = want || (f.Kind == FaultNode && f.Node == v && activeAt(f, cycle))
					}
					if st.NodeDown(v) != want {
						t.Fatalf("%s seed %d cycle %d: NodeDown(%d) = %v, want %v", name, seed, cycle, v, !want, want)
					}
					for k := 0; k < g.OutDegree(v); k++ {
						down, perm := false, false
						for _, f := range faults {
							if !bruteCovers(g, f, v, k) {
								continue
							}
							down = down || activeAt(f, cycle)
							perm = perm || (f.Permanent() && cycle >= f.Start)
						}
						if st.ArcDown(v, k) != down {
							t.Fatalf("%s seed %d cycle %d: ArcDown(%d,%d) = %v, want %v", name, seed, cycle, v, k, !down, down)
						}
						if perm {
							permanent = append(permanent, Arc{Tail: v, Index: k})
						}
					}
				}
				if got := st.permanentlyDown(); !reflect.DeepEqual(got, permanent) {
					t.Fatalf("%s seed %d cycle %d: permanently down %v, want %v", name, seed, cycle, got, permanent)
				}
				for _, q := range [][2]int{{-1, 0}, {n, 0}, {0, -1}, {0, g.OutDegree(0)}} {
					if st.ArcDown(q[0], q[1]) {
						t.Fatalf("%s seed %d: out-of-range arc (%d#%d) reported down", name, seed, q[0], q[1])
					}
				}
				if st.NodeDown(-1) || st.NodeDown(n) {
					t.Fatalf("%s seed %d: out-of-range node reported down", name, seed)
				}
			}
		}
	}
	var nilState *FaultState
	if !nilState.Empty() || nilState.ArcDown(0, 0) || nilState.NodeDown(0) || nilState.PermanentVersion() != 0 {
		t.Fatal("nil FaultState must report no faults")
	}
}

// viewPlan is randomFaultPlan with the edges of the cycle range forced:
// besides random link, node and lens faults, transient and permanent,
// with overlapping spans, it adds a fault starting at 0 and one
// starting at horizon, each transient or permanent by coin flip.
func viewPlan(g *digraph.Digraph, rng *rand.Rand, horizon int) *FaultPlan {
	p := randomFaultPlan(g, rng)
	for _, start := range []int{0, horizon} {
		dur := rng.Intn(2) * (1 + rng.Intn(5))
		u := rng.Intn(g.N())
		switch rng.Intn(3) {
		case 0:
			p.LinkDown(start, dur, u, rng.Intn(g.OutDegree(u)))
		case 1:
			p.NodeDown(start, dur, u)
		default:
			p.LensDown(start, dur, 99, []Arc{{Tail: u, Index: 0}, {Tail: (u + 1) % g.N(), Index: g.OutDegree((u+1)%g.N()) - 1}})
		}
	}
	return p
}

// spansDown reports, for each of keys keys, whether a compiled span of it
// contains cycle: a direct scan of the spans, with no view.
func spansDown(spans []flatSpan, keys, cycle int) []bool {
	down := make([]bool, keys)
	for _, e := range spans {
		if e.sp.contains(cycle) {
			down[e.key] = true
		}
	}
	return down
}

// TestFaultViewMatchesSpans is the property test of the per-cycle fault
// view: after every Advance — through every cycle of [-1, horizon+2] in
// order, then backwards, then at random — the view's arc bitmap, node
// bitmap and permanent version, read raw as the departure sweep reads
// them, equal a direct scan of the compiled spans at that cycle. A view
// not rebuilt when the cycle crosses a span boundary fails it.
func TestFaultViewMatchesSpans(t *testing.T) {
	kautz, _ := debruijn.Kautz(2, 3)
	graphs := map[string]*digraph.Digraph{
		"B(2,4)": debruijn.DeBruijn(2, 4),
		"B(3,3)": debruijn.DeBruijn(3, 3),
		"K(2,3)": kautz,
	}
	const horizon = 24
	for name, g := range graphs {
		m := g.M()
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st, err := viewPlan(g, rng, horizon).Compile(g)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			check := func(cycle int) {
				st.Advance(cycle)
				arcs, permanent := st.arcDown, st.version > 0
				version := 0
				for _, e := range st.arcSpans {
					if e.sp.end < 0 && cycle >= e.sp.start {
						version++
					}
				}
				if st.version != version || permanent != (version > 0) {
					t.Fatalf("%s seed %d cycle %d: view version %d (permanent %v), spans give %d", name, seed, cycle, st.version, permanent, version)
				}
				arcsDown, nodesDown := spansDown(st.arcSpans, m, cycle), spansDown(st.nodeSpans, g.N(), cycle)
				for f := 0; f < m; f++ {
					want := arcsDown[f]
					if got := arcs[f>>6]&(1<<(uint(f)&63)) != 0; got != want {
						t.Fatalf("%s seed %d cycle %d: view says flat arc %d down=%v, spans say %v", name, seed, cycle, f, got, want)
					}
				}
				for u := 0; u < g.N(); u++ {
					want := nodesDown[u]
					if got := st.nodeDown != nil && st.nodeDown[u>>6]&(1<<(uint(u)&63)) != 0; got != want {
						t.Fatalf("%s seed %d cycle %d: view says node %d down=%v, spans say %v", name, seed, cycle, u, got, want)
					}
				}
			}
			for c := -1; c <= horizon+2; c++ {
				check(c)
			}
			for c := horizon + 2; c >= -1; c-- {
				check(c)
			}
			for step := 0; step < 40; step++ {
				check(rng.Intn(horizon+4) - 1)
			}
		}
	}
}

// TestNetworkDiameterMatchesBFS: the diameter a Network defaults a fault
// run's TTL from equals g.Diameter() on table-routed catalog graphs
// (congruence-form de Bruijn graphs take it from their recognition, the
// rest from breadth-first search), on a Kautz graph, on the one-node
// B(1,1) and on shift-routed de Bruijn graphs.
func TestNetworkDiameterMatchesBFS(t *testing.T) {
	graphs := catalogGraphs(t)
	graphs["B(2,8)"] = debruijn.DeBruijn(2, 8)
	graphs["B(3,5)"] = debruijn.DeBruijn(3, 5)
	graphs["B(1,1)"] = debruijn.DeBruijn(1, 1)
	kautz, _ := debruijn.Kautz(3, 3)
	graphs["K(3,3)"] = kautz
	for name, g := range graphs {
		modes := []RoutingMode{TableRouting}
		if _, _, ok := debruijn.Recognize(g); ok && g.N() > 1 {
			modes = append(modes, ShiftRouting)
		}
		for _, mode := range modes {
			nw, err := NewNetwork(g, WithRouting(mode))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := nw.diameter(), g.Diameter(); got != want {
				t.Errorf("%s under %v: diameter %d, g.Diameter() %d", name, mode, got, want)
			}
		}
	}
}
