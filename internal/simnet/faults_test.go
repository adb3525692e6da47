package simnet

import (
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// Failure injection: the de Bruijn machine keeps operating around faults,
// as its (d-1)-connectivity promises. Static fault surgery uses
// digraph.RemoveArc / digraph.RemoveVertex; the runtime counterpart lives
// in faults.go / faultrun.go.

func TestSingleArcFailureRerouted(t *testing.T) {
	// B(3,3) has arc connectivity 2: any single arc failure leaves all
	// (non-failed) traffic deliverable with table rerouting.
	g := debruijn.DeBruijn(3, 3)
	faulty := g.RemoveArc(5, 16) // 5 → 3·5+1 = 16
	if faulty.M() != g.M()-1 {
		t.Fatal("arc removal failed")
	}
	nw, err := NewNetwork(faulty, WithRouter(NewTableRouter(faulty)))
	if err != nil {
		t.Fatal(err)
	}
	res := runFixed(t, nw, UniformRandom(g.N(), 500, 80))
	if res.Dropped != 0 || res.Delivered != 500 {
		t.Fatalf("arc failure dropped traffic: %v", res)
	}
	// Paths may stretch, but only boundedly.
	if res.MaxHops > 3+2 {
		t.Errorf("max hops %d after single arc failure", res.MaxHops)
	}
}

func TestVertexFailurePartialService(t *testing.T) {
	// B(2,D) has vertex connectivity 1, so one vertex failure may
	// disconnect some pairs (the price of d = 2); traffic not involving
	// the failed region must still flow.
	g := debruijn.DeBruijn(2, 4)
	faulty := g.RemoveVertex(5)
	nw, err := NewNetwork(faulty, WithRouter(NewTableRouter(faulty)))
	if err != nil {
		t.Fatal(err)
	}
	pkts := UniformRandom(g.N(), 400, 81)
	var filtered []Packet
	for _, p := range pkts {
		if p.Src != 5 && p.Dst != 5 {
			filtered = append(filtered, p)
		}
	}
	res := runFixed(t, nw, filtered)
	if res.Delivered+res.Dropped != len(filtered) {
		t.Fatal("packets lost without accounting")
	}
	// At degree 3 the same failure leaves everything routable.
	g3 := debruijn.DeBruijn(3, 3)
	faulty3 := g3.RemoveVertex(5)
	nw3, _ := NewNetwork(faulty3, WithRouter(NewTableRouter(faulty3)))
	pkts3 := UniformRandom(g3.N(), 400, 82)
	var filtered3 []Packet
	for _, p := range pkts3 {
		if p.Src != 5 && p.Dst != 5 {
			filtered3 = append(filtered3, p)
		}
	}
	res3 := runFixed(t, nw3, filtered3)
	if res3.Dropped != 0 {
		t.Errorf("B(3,3) minus one vertex dropped %d packets (κ = 2 promises none)", res3.Dropped)
	}
}

func TestDisjointPathsSurviveFault(t *testing.T) {
	// Menger in action: B(3,3) offers 2 arc-disjoint paths between any
	// distinct pair, so killing any single arc of one path leaves the
	// other intact.
	g := debruijn.DeBruijn(3, 3)
	paths := g.ArcDisjointPaths(2, 19)
	if len(paths) < 2 {
		t.Fatalf("expected ≥2 disjoint paths, got %d", len(paths))
	}
	victim := paths[0]
	faulty := g.RemoveArc(victim[0], victim[1])
	dist := faulty.BFSFrom(2)
	if dist[19] == digraph.Unreachable {
		t.Error("second disjoint path did not survive the fault")
	}
}
