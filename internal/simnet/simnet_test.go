package simnet

import (
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// runFixed runs pkts as a plain RunOpts call, failing tb on an error.
func runFixed(tb testing.TB, nw *Network, pkts []Packet) Result {
	tb.Helper()
	rep, err := nw.RunOpts(Fixed(pkts))
	if err != nil {
		tb.Fatal(err)
	}
	return rep.Result
}

func TestConfigValidation(t *testing.T) {
	g := digraph.Circuit(3)
	if _, err := NewNetwork(g, WithRouter(NewTableRouter(g)), WithHopLatency(0)); err == nil {
		t.Error("zero hop latency accepted")
	}
	if _, err := NewNetwork(digraph.New(0)); err == nil {
		t.Error("empty digraph accepted")
	}
}

func TestSinglePacketOnCircuit(t *testing.T) {
	g := digraph.Circuit(4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	res := runFixed(t, nw, []Packet{{ID: 0, Src: 0, Dst: 3}})
	if res.Delivered != 1 || res.Dropped != 0 {
		t.Fatalf("result %v", res)
	}
	p := res.Packets[0]
	if p.Hops != 3 {
		t.Errorf("hops = %d, want 3", p.Hops)
	}
	if p.Delivered-p.Release != 3 {
		t.Errorf("latency = %d, want 3 (uncongested unit-latency hops)", p.Delivered-p.Release)
	}
}

func TestHopLatencyScales(t *testing.T) {
	g := digraph.Circuit(4)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)), WithHopLatency(5))
	res := runFixed(t, nw, []Packet{{ID: 0, Src: 0, Dst: 2}})
	p := res.Packets[0]
	if p.Delivered != 10 {
		t.Errorf("latency = %d, want 10 (2 hops × 5 cycles)", p.Delivered)
	}
	if res.TotalWait != 0 {
		t.Errorf("wait = %d, want 0", res.TotalWait)
	}
}

func TestSelfPacket(t *testing.T) {
	g := digraph.Circuit(3)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, []Packet{{ID: 0, Src: 1, Dst: 1, Release: 7}})
	if res.Delivered != 1 || res.Packets[0].Delivered != 7 || res.Packets[0].Hops != 0 {
		t.Errorf("self packet mishandled: %+v", res.Packets[0])
	}
}

func TestUnreachableDropped(t *testing.T) {
	g := digraph.New(2)
	g.AddArc(0, 1)
	g.AddArc(1, 1) // give node 1 an out-arc so the router has a column
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, []Packet{{ID: 0, Src: 1, Dst: 0}})
	if res.Dropped != 1 || res.Delivered != 0 {
		t.Errorf("result %v", res)
	}
}

func TestContentionSerializes(t *testing.T) {
	// Two packets fighting for the same single link: the second waits one
	// cycle.
	g := digraph.New(3)
	g.AddArc(0, 2)
	g.AddArc(1, 2)
	g.AddArc(2, 2)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	// Both packets from 0 to 2 share link (0,2).
	res := runFixed(t, nw, []Packet{
		{ID: 0, Src: 0, Dst: 2},
		{ID: 1, Src: 0, Dst: 2},
	})
	if res.Delivered != 2 {
		t.Fatalf("result %v", res)
	}
	lat0 := res.Packets[0].Delivered
	lat1 := res.Packets[1].Delivered
	if lat0 == lat1 {
		t.Errorf("two packets crossed one unit link in the same cycle (%d, %d)", lat0, lat1)
	}
	if res.TotalWait != 1 {
		t.Errorf("total wait = %d, want 1", res.TotalWait)
	}
}

func TestDeBruijnRouterMatchesTable(t *testing.T) {
	d, D := 2, 5
	g := debruijn.DeBruijn(d, D)
	table := NewTableRouter(g)
	native := NewDeBruijnRouter(d, D)
	n := g.N()
	for u := 0; u < n; u++ {
		dist := g.BFSFrom(u)
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			arc := native.NextArc(u, v)
			if arc < 0 {
				t.Fatalf("native router unreachable (%d,%d)", u, v)
			}
			hop := g.Out(u)[arc]
			// The native hop must decrease the true distance by one
			// (there can be several shortest first hops, so compare
			// distances, not arc ids).
			hopDist := g.BFSFrom(hop)[v]
			if hopDist != dist[v]-1 {
				t.Fatalf("native hop (%d→%d for dst %d) not on a shortest path", u, hop, v)
			}
			_ = table
		}
	}
}

func TestDeBruijnNetworkHopBound(t *testing.T) {
	// On B(2,6) every packet is delivered within 6 hops — the diameter —
	// regardless of congestion.
	d, D := 2, 6
	g := debruijn.DeBruijn(d, D)
	nw, _ := NewNetwork(g, WithRouter(NewDeBruijnRouter(d, D)))
	res := runFixed(t, nw, UniformRandom(g.N(), 500, 42))
	if res.Delivered != 500 {
		t.Fatalf("delivered %d/500 (%v)", res.Delivered, res)
	}
	if res.MaxHops > D {
		t.Errorf("max hops %d exceeds diameter %d", res.MaxHops, D)
	}
	if res.MeanHops <= 0 || res.MeanHops > float64(D) {
		t.Errorf("mean hops %f out of range", res.MeanHops)
	}
}

func TestMeanHopsMatchesMeanDistanceUnderPermutation(t *testing.T) {
	// With one packet per source the mean hop count must equal the mean
	// of the pairwise distances of the chosen permutation (shortest-path
	// routing never lengthens paths).
	d, D := 2, 5
	g := debruijn.DeBruijn(d, D)
	pkts := Permutation(g.N(), 7)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, pkts)
	if res.Delivered != len(pkts) {
		t.Fatalf("delivered %d/%d", res.Delivered, len(pkts))
	}
	wantTotal := 0
	for _, p := range pkts {
		wantTotal += g.BFSFrom(p.Src)[p.Dst]
	}
	if res.TotalHops != wantTotal {
		t.Errorf("total hops %d, want %d", res.TotalHops, wantTotal)
	}
}

func TestBroadcastWorkload(t *testing.T) {
	d, D := 2, 4
	g := debruijn.DeBruijn(d, D)
	pkts := Broadcast(g.N(), 0)
	if len(pkts) != g.N()-1 {
		t.Fatalf("broadcast size %d", len(pkts))
	}
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, pkts)
	if res.Delivered != len(pkts) {
		t.Fatalf("delivered %d/%d", res.Delivered, len(pkts))
	}
	if res.MaxHops > D {
		t.Errorf("broadcast exceeded diameter: %d", res.MaxHops)
	}
	// The root's two links serialize ~n/2 packets each, so the makespan
	// must be at least n/d - 1 cycles.
	if res.Cycles < g.N()/d-1 {
		t.Errorf("cycles %d suspiciously low", res.Cycles)
	}
}

func TestAllToAllCompletes(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	pkts := AllToAll(g.N())
	if len(pkts) != 8*7 {
		t.Fatalf("all-to-all size %d", len(pkts))
	}
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, pkts)
	if res.Delivered != len(pkts) || res.Dropped != 0 {
		t.Fatalf("result %v", res)
	}
}

func TestPoissonArrivalsOrdered(t *testing.T) {
	pkts := PoissonArrivals(16, 200, 0.5, 3)
	last := 0
	for _, p := range pkts {
		if p.Release < last {
			t.Fatal("releases not monotone")
		}
		last = p.Release
		if p.Src == p.Dst {
			t.Fatal("self packet generated")
		}
	}
}

func TestPermutationIsDerangement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pkts := Permutation(32, seed)
		seen := make([]bool, 32)
		for _, p := range pkts {
			if p.Src == p.Dst {
				t.Fatalf("seed %d: fixed point at %d", seed, p.Src)
			}
			if seen[p.Dst] {
				t.Fatalf("seed %d: duplicate destination %d", seed, p.Dst)
			}
			seen[p.Dst] = true
		}
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a := UniformRandom(64, 50, 9)
	b := UniformRandom(64, 50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different workload")
		}
	}
	c := UniformRandom(64, 50, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestQueueOccupancyStats(t *testing.T) {
	// A broadcast from one root funnels everything through the root's
	// two queues: MaxQueue must be large (≈ n/d at the root) and the hot
	// node must be the root.
	g := debruijn.DeBruijn(2, 5)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, Broadcast(g.N(), 7))
	if res.MaxQueue < g.N()/4 {
		t.Errorf("MaxQueue = %d, expected a deep root queue", res.MaxQueue)
	}
	if res.HotNode != 7 {
		t.Errorf("hot node %d, want the broadcast root 7", res.HotNode)
	}
	// A single packet never queues more than one deep.
	res = runFixed(t, nw, []Packet{{ID: 0, Src: 0, Dst: 9}})
	if res.MaxQueue > 1 {
		t.Errorf("single packet MaxQueue = %d", res.MaxQueue)
	}
}

func TestBitReversalWorkload(t *testing.T) {
	pkts := BitReversal(16)
	for _, p := range pkts {
		if p.Src == p.Dst {
			t.Fatal("self packet in bit reversal")
		}
	}
	// Palindromic addresses over 4 bits: 0000, 0110, 1001, 1111 → 12 packets.
	if len(pkts) != 12 {
		t.Fatalf("%d packets, want 12", len(pkts))
	}
	// On B(2,4), bit-reversal traffic is adversarial but bounded by the
	// diameter; everything still delivers.
	g := debruijn.DeBruijn(2, 4)
	nw, _ := NewNetwork(g, WithRouter(NewDeBruijnRouter(2, 4)))
	res := runFixed(t, nw, pkts)
	if res.Delivered != len(pkts) || res.MaxHops > 4 {
		t.Fatalf("bit reversal on B(2,4): %v", res)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two accepted")
		}
	}()
	BitReversal(12)
}

func TestComplementaryWorkload(t *testing.T) {
	pkts := Complementary(16)
	if len(pkts) != 16 {
		t.Fatalf("%d packets", len(pkts))
	}
	// Constant words have zero overlap with their complements (distance
	// exactly D); alternating words overlap heavily (distance 1). Both
	// extremes must appear, and everything delivers within the diameter.
	g := debruijn.DeBruijn(2, 4)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	res := runFixed(t, nw, pkts)
	if res.Delivered != 16 {
		t.Fatalf("complementary: %v", res)
	}
	if res.MaxHops != 4 {
		t.Errorf("max hops %d, want 4 (0000→1111 has no overlap)", res.MaxHops)
	}
	hops := map[int]int{}
	for _, p := range res.Packets {
		hops[p.Hops]++
	}
	if hops[1] == 0 {
		t.Error("no distance-1 pair (0101→1010 overlaps in 3 letters)")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	g := digraph.Circuit(8)
	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)), WithMaxCycles(2))
	res := runFixed(t, nw, []Packet{{ID: 0, Src: 0, Dst: 7}})
	if res.Delivered != 0 {
		t.Error("packet delivered despite 2-cycle budget for a 7-hop path")
	}
}

func TestOffLoadLatencyEqualsDistanceTimesLatency(t *testing.T) {
	// One packet at a time: latency = distance × HopLatency exactly.
	d, D := 2, 4
	g := debruijn.DeBruijn(d, D)
	nw, _ := NewNetwork(g, WithRouter(NewDeBruijnRouter(d, D)), WithHopLatency(3))
	for src := 0; src < g.N(); src += 3 {
		dist := g.BFSFrom(src)
		for dst := 0; dst < g.N(); dst += 5 {
			if src == dst {
				continue
			}
			res := runFixed(t, nw, []Packet{{ID: 0, Src: src, Dst: dst}})
			if res.Delivered != 1 {
				t.Fatalf("(%d,%d) undelivered", src, dst)
			}
			want := dist[dst] * 3
			if got := res.Packets[0].Delivered; got != want {
				t.Fatalf("(%d,%d): latency %d, want %d", src, dst, got, want)
			}
		}
	}
}
