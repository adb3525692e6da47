package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// Tests for the flat compiled fault state and the slab-derived
// diameter: every FaultState query must agree with a brute-force scan
// of the plan's faults, at any cycle and in any order of Advance calls,
// and the diameter read off a distance slab must be g.Diameter().

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

// TestFaultStateMatchesBruteForce checks ArcDown, ArcDownAt, NodeDown,
// ArcPermanentlyDown, PermanentVersion and Empty against a brute-force
// scan of the plan's faults, over random plans on several digraphs
// (including multigraph self-loops) and a random walk of Advance calls
// that moves backwards as often as forwards. Out-of-range arcs and nodes
// are never down, as the map-keyed state reported.
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
				if st.Cycle() != cycle {
					t.Fatalf("%s seed %d: Cycle() = %d after Advance(%d)", name, seed, st.Cycle(), cycle)
				}
				version := 0
				for _, f := range faults {
					if f.Permanent() && cycle >= f.Start {
						version += bruteArcSpans(g, f)
					}
				}
				if got := st.PermanentVersion(); got != version {
					t.Fatalf("%s seed %d cycle %d: PermanentVersion = %d, want %d", name, seed, cycle, got, version)
				}
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
						other := rng.Intn(40) - 2
						downAt := false
						for _, f := range faults {
							if !bruteCovers(g, f, v, k) {
								continue
							}
							down = down || activeAt(f, cycle)
							perm = perm || (f.Permanent() && cycle >= f.Start)
							downAt = downAt || activeAt(f, other)
						}
						if st.ArcDown(v, k) != down {
							t.Fatalf("%s seed %d cycle %d: ArcDown(%d,%d) = %v, want %v", name, seed, cycle, v, k, !down, down)
						}
						if st.ArcPermanentlyDown(v, k) != perm {
							t.Fatalf("%s seed %d cycle %d: ArcPermanentlyDown(%d,%d) = %v, want %v", name, seed, cycle, v, k, !perm, perm)
						}
						if st.ArcDownAt(v, k, other) != downAt {
							t.Fatalf("%s seed %d: ArcDownAt(%d,%d,%d) = %v, want %v", name, seed, v, k, other, !downAt, downAt)
						}
					}
				}
				for _, q := range [][2]int{{-1, 0}, {n, 0}, {0, -1}, {0, g.OutDegree(0)}} {
					if st.ArcDown(q[0], q[1]) || st.ArcPermanentlyDown(q[0], q[1]) {
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
	if !nilState.Empty() || nilState.ArcDown(0, 0) || nilState.NodeDown(0) ||
		nilState.ArcPermanentlyDown(0, 0) || nilState.PermanentVersion() != 0 {
		t.Fatal("nil FaultState must report no faults")
	}
}
