//go:build !race

package simnet

import (
	"testing"

	"repro/internal/debruijn"
)

// TestMillionNodePermutation is the scale gate from the paper's regime:
// a full permutation on B(2,20) — 2^20 = 1,048,576 nodes — must complete
// table-free. A shortest-path table at this order would need ~n² ≈ 10^12
// entries (terabytes); AutoRouting must instead resolve to shift routing
// and the sharded engine must settle every packet within the diameter
// bound. Excluded under -race (the instrumented run is ~20× slower) and
// under -short.
func TestMillionNodePermutation(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run skipped in -short mode")
	}
	g := debruijn.DeBruijn(2, 20)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Routing(); got != ShiftRouting {
		t.Fatalf("AutoRouting on B(2,20) resolved to %v, want ShiftRouting", got)
	}
	rep, err := nw.RunOpts(PermutationLoad(), WithSeed(1), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if rep.Delivered != n || rep.Dropped != 0 {
		t.Fatalf("delivered %d dropped %d, want %d delivered", rep.Delivered, rep.Dropped, n)
	}
	// Unbounded single-packet queues on a permutation: every packet rides
	// a shortest path, so total cycles stay within diameter + drain slack.
	if rep.Cycles > 20+64 {
		t.Fatalf("permutation took %d cycles on a diameter-20 graph", rep.Cycles)
	}
}
