package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// deflectionOn builds the deflection simulator on NewNetwork(g, opts...).
func deflectionOn(t *testing.T, g *digraph.Digraph, opts ...NetworkOption) *DeflectionNetwork {
	t.Helper()
	nw, err := NewNetwork(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := NewDeflection(nw)
	if err != nil {
		t.Fatal(err)
	}
	return dn
}

// runDeflection runs pkts on dn and fails the test on an error.
func runDeflection(t *testing.T, dn *DeflectionNetwork, pkts []Packet) DeflectionResult {
	t.Helper()
	res, err := dn.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNewDeflectionValidation: NewDeflection refuses an irregular
// digraph, one that is not strongly connected and a hop latency other
// than 1, and bounds its runs by the Network's WithMaxCycles budget.
func TestNewDeflectionValidation(t *testing.T) {
	g := digraph.New(3)
	g.AddArc(0, 1)
	p := digraph.New(2)
	p.AddArc(0, 1)
	p.AddArc(0, 1)
	p.AddArc(1, 1)
	p.AddArc(1, 1)
	for _, c := range []struct {
		name string
		g    *digraph.Digraph
		opts []NetworkOption
	}{
		{"irregular digraph", g, nil},
		{"non-strongly-connected digraph", p, nil},
		{"hop latency 2", debruijn.DeBruijn(2, 3), []NetworkOption{WithHopLatency(2)}},
	} {
		nw, err := NewNetwork(c.g, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDeflection(nw); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	dn := deflectionOn(t, debruijn.DeBruijn(2, 3), WithMaxCycles(20))
	if dn.limit != 20 {
		t.Fatalf("cycle limit %d, want the WithMaxCycles budget 20", dn.limit)
	}
	res := runDeflection(t, dn, []Packet{{ID: 0, Src: 0, Dst: 3}, {ID: 1, Src: 1, Dst: 5, Release: 21}})
	if res.Delivered != 1 || res.DroppedHorizon != 1 {
		t.Fatalf("a release past the WithMaxCycles budget must drop at the horizon: %+v", res)
	}
	if got := deflectionOn(t, debruijn.DeBruijn(2, 3)).limit; got != 64*8 {
		t.Fatalf("default cycle limit %d, want 64·n = %d", got, 64*8)
	}
}

func TestDeflectionSinglePacketTakesShortestPath(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	dn := deflectionOn(t, g)
	dist := g.BFSFrom(3)
	res := runDeflection(t, dn, []Packet{{ID: 0, Src: 3, Dst: 17}})
	if res.Delivered != 1 {
		t.Fatalf("undelivered: %v", res)
	}
	if res.Packets[0].Hops != dist[17] {
		t.Errorf("uncontended deflection hops %d, shortest %d", res.Packets[0].Hops, dist[17])
	}
	if res.Deflections != 0 {
		t.Errorf("uncontended run deflected %d times", res.Deflections)
	}
}

func TestDeflectionDeliversUnderLoad(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	dn := deflectionOn(t, g)
	res := runDeflection(t, dn, UniformRandom(g.N(), 800, 91))
	if res.Delivered != 800 {
		t.Fatalf("delivered %d/800: %v", res.Delivered, res)
	}
	// Under load some packets must have been deflected (otherwise the
	// test exercised nothing).
	if res.Deflections == 0 {
		t.Error("no deflections under heavy load — contention model broken?")
	}
	// Hot-potato paths exceed shortest paths but stay bounded.
	if res.MeanHops < 1 || res.MeanHops > 4*6 {
		t.Errorf("mean hops %f implausible", res.MeanHops)
	}
}

func TestDeflectionVsStoreAndForward(t *testing.T) {
	// Same topology, same workload: deflection trades extra hops for
	// zero buffering. Both must deliver everything; deflection's hop
	// count is at least store-and-forward's.
	g := debruijn.DeBruijn(2, 5)
	pkts := UniformRandom(g.N(), 400, 92)

	dn := deflectionOn(t, g)
	defRes := runDeflection(t, dn, pkts)

	nw, _ := NewNetwork(g, WithRouter(NewTableRouter(g)))
	sfRes := runFixed(t, nw, pkts)

	if defRes.Delivered != 400 || sfRes.Delivered != 400 {
		t.Fatalf("deliveries: deflection %d, SF %d", defRes.Delivered, sfRes.Delivered)
	}
	if defRes.TotalHops < sfRes.TotalHops {
		t.Errorf("deflection used fewer hops (%d) than shortest-path SF (%d)",
			defRes.TotalHops, sfRes.TotalHops)
	}
}

func TestDeflectionSelfPacket(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	dn := deflectionOn(t, g)
	res := runDeflection(t, dn, []Packet{{ID: 0, Src: 2, Dst: 2, Release: 5}})
	if res.Delivered != 1 || res.Packets[0].Delivered != 5 {
		t.Errorf("self packet mishandled: %+v", res.Packets[0])
	}
}

func TestDeflectionConservation(t *testing.T) {
	// No packet is ever lost: delivered + in-flight = total at all times;
	// at the end everything is delivered (the digraph is strongly
	// connected and assignment always moves packets).
	g := debruijn.DeBruijn(3, 3)
	dn := deflectionOn(t, g)
	res := runDeflection(t, dn, UniformRandom(g.N(), 300, 93))
	if res.Delivered != 300 {
		t.Fatalf("lost packets: %v", res)
	}
	for _, p := range res.Packets {
		if p.Delivered < 0 {
			t.Fatalf("packet %d stuck", p.ID)
		}
		if p.Src != p.Dst && p.Hops == 0 {
			t.Fatalf("packet %d delivered without moving", p.ID)
		}
	}
}

// TestDeflectionRefusesOutOfRangeEndpoints: Run refuses a packet whose
// source or destination is not a node, under table and shift routing,
// with an *OptionError naming Workload and before simulating anything.
// Unchecked, a table-routed 0→8 never returned, 8→1 and −1→2 panicked
// with an index out of range, and a shift-routed 0→8 deflected until the
// cycle limit; each Run here has a deadline and a recover.
func TestDeflectionRefusesOutOfRangeEndpoints(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	for _, mode := range []RoutingMode{TableRouting, ShiftRouting} {
		dn := deflectionOn(t, g, WithRouting(mode))
		for _, bad := range []Packet{{Src: 0, Dst: 8}, {Src: 8, Dst: 1}, {Src: -1, Dst: 2}, {Src: 3, Dst: -5}} {
			name := fmt.Sprintf("%v %d→%d", mode, bad.Src, bad.Dst)
			pkts := []Packet{{ID: 0, Src: 1, Dst: 6}, {ID: 1, Src: bad.Src, Dst: bad.Dst}}
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
					}
				}()
				res, err := dn.Run(pkts)
				if err == nil {
					err = fmt.Errorf("ran: %v", res)
				}
				done <- err
			}()
			select {
			case err := <-done:
				var oe *OptionError
				if !errors.As(err, &oe) || oe.Option != "Workload" {
					t.Errorf("%s: %v, want an *OptionError naming Workload", name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: Run still running after 5 s", name)
			}
		}
	}
}
