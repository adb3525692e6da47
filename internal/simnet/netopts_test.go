package simnet

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/otis"
)

// TestNewNetworkRoutingModes pins mode resolution: explicit table and
// shift selection, the CustomRouting report for WithRouter, and the
// AutoRouting crossover (small graphs keep the table, large
// congruence-form de Bruijn graphs go table-free, non-de-Bruijn graphs
// always table).
func TestNewNetworkRoutingModes(t *testing.T) {
	small := debruijn.DeBruijn(3, 3)
	if nw, err := NewNetwork(small); err != nil || nw.Routing() != TableRouting {
		t.Fatalf("auto on B(3,3): mode %v err %v, want table", nw.Routing(), err)
	}
	if nw, err := NewNetwork(small, WithRouting(ShiftRouting)); err != nil || nw.Routing() != ShiftRouting {
		t.Fatalf("explicit shift on B(3,3): mode %v err %v", nw.Routing(), err)
	}
	// B(2,13) = 8192 nodes > autoShiftNodes: auto resolves table-free.
	big := debruijn.DeBruijn(2, 13)
	if nw, err := NewNetwork(big); err != nil || nw.Routing() != ShiftRouting {
		t.Fatalf("auto on B(2,13): mode %v err %v, want shift", nw.Routing(), err)
	}
	// OTIS physical graphs are de Bruijn only up to isomorphism, not in
	// congruence labels: auto must keep the table even when large.
	h := otis.MustH(4, 4, 2)
	if nw, err := NewNetwork(h); err != nil || nw.Routing() != TableRouting {
		t.Fatalf("auto on H(2,2,4): mode %v err %v, want table", nw.Routing(), err)
	}
	if nw, err := NewNetwork(small, WithRouter(opaqueRouter{NewTableRouter(small)})); err != nil || nw.Routing() != CustomRouting {
		t.Fatalf("WithRouter: mode %v err %v, want custom", nw.Routing(), err)
	}
}

// TestShiftRoutingMatchesTableOnNetwork is the network-level
// differential: the same workload under WithRouting(TableRouting) and
// WithRouting(ShiftRouting) must produce identical results on every
// engine — the lane kernel (one lane and three), the general path
// (traced, bounded), the fault loop (no plan, a transient fault on
// every fourth arc that forces deflections, a permanent link-fault pair
// that forces residual reroutes) and a self-healing session. The
// shortest-path next arc in congruence form is unique, so the two
// routers never disagree, and a carried state made stale by a departure
// off the shortest path is recomputed before it is read.
func TestShiftRoutingMatchesTableOnNetwork(t *testing.T) {
	for _, tc := range []struct{ d, D int }{{2, 6}, {3, 4}, {4, 3}} {
		g := debruijn.DeBruijn(tc.d, tc.D)
		n := g.N()
		tab, err := NewNetwork(g, WithRouting(TableRouting))
		if err != nil {
			t.Fatal(err)
		}
		shf, err := NewNetwork(g, WithRouting(ShiftRouting))
		if err != nil {
			t.Fatal(err)
		}
		var group []Arc // every fourth arc
		for u := range n {
			for k := range g.OutDegree(u) {
				if (u*tc.d+k)%4 == 0 {
					group = append(group, Arc{Tail: u, Index: k})
				}
			}
		}
		arcGroup := NewFaultPlan().LensDown(2, 16, 0, group)
		linkPair := NewFaultPlan().LinkDown(0, 0, 1, 0).LinkDown(0, 0, n-2, 1)
		for _, seed := range []int64{1, 9} {
			for _, rc := range []struct {
				name    string
				opts    []RunOption
				reroute bool // the plan must force reroutes
			}{
				{"plain", nil, false},
				{"traced", []RunOption{WithTrace()}, false},
				{"bounded", []RunOption{WithQueueCapacity(2)}, false},
				{"shards", []RunOption{WithShards(3)}, false},
				{"faults_nil", []RunOption{WithFaults(nil)}, false},
				{"arc_group", []RunOption{WithFaults(arcGroup)}, true},
				{"link_pair", []RunOption{WithFaults(linkPair)}, true},
			} {
				opts := append([]RunOption{WithSeed(seed)}, rc.opts...)
				a, err := tab.RunOpts(UniformLoad(4*n), opts...)
				if err != nil {
					t.Fatal(err)
				}
				b, err := shf.RunOpts(UniformLoad(4*n), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("B(%d,%d) seed %d %s: shift routing diverged from table routing", tc.d, tc.D, seed, rc.name)
				}
				if rc.reroute && b.Reroutes == 0 {
					t.Fatalf("B(%d,%d) seed %d %s: no reroutes; the fault plan did not force a stale carried state", tc.d, tc.D, seed, rc.name)
				}
			}

			pkts := UniformRandom(n, 4*n, seed)
			var heal [2]HealResult
			for k, nw := range []*Network{tab, shf} {
				session, err := nw.SelfHeal(arcGroup, HealConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if heal[k], err = session.Run(pkts); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(heal[0], heal[1]) {
				t.Fatalf("B(%d,%d) seed %d: shift-routed heal session diverged from table routing", tc.d, tc.D, seed)
			}
		}
	}
}

// TestNewNetworkOptionErrors is the eager-validation table for the
// construction options.
func TestNewNetworkOptionErrors(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	h := otis.MustH(2, 2, 2)
	cases := []struct {
		name   string
		opts   []NetworkOption
		graph  *digraph.Digraph
		option string
	}{
		{"shift on non-de-Bruijn", []NetworkOption{WithRouting(ShiftRouting)}, h, "WithRouting(ShiftRouting)"},
		{"duplicate routing", []NetworkOption{WithRouting(TableRouting), WithRouting(ShiftRouting)}, g, "WithRouting"},
		{"custom via WithRouting", []NetworkOption{WithRouting(CustomRouting)}, g, "WithRouting"},
		{"unknown mode", []NetworkOption{WithRouting(RoutingMode(99))}, g, "WithRouting"},
		{"nil router", []NetworkOption{WithRouter(nil)}, g, "WithRouter"},
		{"router+routing", []NetworkOption{WithRouter(NewTableRouter(g)), WithRouting(TableRouting)}, g, "WithRouter"},
		{"duplicate router", []NetworkOption{WithRouter(NewTableRouter(g)), WithRouter(NewTableRouter(g))}, g, "WithRouter"},
		{"hop latency 0", []NetworkOption{WithHopLatency(0)}, g, "WithHopLatency"},
		{"duplicate hop latency", []NetworkOption{WithHopLatency(2), WithHopLatency(3)}, g, "WithHopLatency"},
		{"negative max cycles", []NetworkOption{WithMaxCycles(-1)}, g, "WithMaxCycles"},
	}
	for _, tc := range cases {
		_, err := NewNetwork(tc.graph, tc.opts...)
		var oe *OptionError
		if err == nil || !errors.As(err, &oe) {
			t.Fatalf("%s: want *OptionError, got %v", tc.name, err)
		}
		if oe.Option != tc.option {
			t.Fatalf("%s: error names %q, want %q", tc.name, oe.Option, tc.option)
		}
	}
}

// TestNetworkConfigReachesEveryEngine is the agreement property behind a
// Network's hop latency: with unbounded queues, a plain RunOpts, a fault
// run with no plan (WithFaults(nil)) and a fresh self-healing session
// with an empty plan must deliver every packet at the same cycle after
// the same hops, at every WithHopLatency the Network is built with — the
// fault and heal tunings leave HopLatency zero, so they take the
// Network's.
// MaxQueue and HotNode are left out: the fault loop reports node-FIFO
// depth (Result.MaxQueue).
func TestNetworkConfigReachesEveryEngine(t *testing.T) {
	kautz, _ := debruijn.Kautz(2, 4)
	w, _ := otisWitness(t, 2, 6)
	topos := []struct {
		name string
		g    *digraph.Digraph
		opts []NetworkOption
	}{
		{"B(2,6)", debruijn.DeBruijn(2, 6), nil},
		{"B(3,4)", debruijn.DeBruijn(3, 4), nil},
		{"K(2,4)", kautz, nil},
		{"OTIS_B(2,6)_witness", w.g, []NetworkOption{WithRouter(w.r)}},
	}
	for _, tp := range topos {
		n := tp.g.N()
		for hop := 1; hop <= 3; hop++ {
			nw, err := NewNetwork(tp.g, append(tp.opts, WithHopLatency(hop))...)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				label := tp.name + "/hop=" + itoa(hop) + "/seed=" + itoa(int(seed))
				plain, err := nw.RunOpts(UniformLoad(4*n), WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				fault, err := nw.RunOpts(UniformLoad(4*n), WithSeed(seed), WithFaults(nil))
				if err != nil {
					t.Fatal(err)
				}
				session, err := nw.SelfHeal(nil, HealConfig{})
				if err != nil {
					t.Fatal(err)
				}
				heal, err := session.Run(UniformRandom(n, 4*n, seed))
				if err != nil {
					t.Fatal(err)
				}
				sameDeliveries(t, label+"/fault", plain.Result, fault.Result)
				sameDeliveries(t, label+"/heal", plain.Result, heal.Result)
			}
		}
	}
}

// sameDeliveries fails unless got delivers every packet of want at the
// same cycle after the same hops, with the same aggregates.
func sameDeliveries(t *testing.T, label string, want, got Result) {
	t.Helper()
	type agg struct {
		Delivered, Cycles, TotalHops, TotalWait int
		MeanLatency                             float64
	}
	wa := agg{want.Delivered, want.Cycles, want.TotalHops, want.TotalWait, want.MeanLatency}
	ga := agg{got.Delivered, got.Cycles, got.TotalHops, got.TotalWait, got.MeanLatency}
	if wa != ga {
		t.Fatalf("%s: aggregates %+v, plain run %+v", label, ga, wa)
	}
	if len(got.Packets) != len(want.Packets) {
		t.Fatalf("%s: %d packets, plain run %d", label, len(got.Packets), len(want.Packets))
	}
	for i, p := range want.Packets {
		if q := got.Packets[i]; q.Delivered != p.Delivered || q.Hops != p.Hops {
			t.Fatalf("%s: packet %d delivered at %d after %d hops, plain run at %d after %d",
				label, i, q.Delivered, q.Hops, p.Delivered, p.Hops)
		}
	}
}

// TestQueueBoundPrecedence pins the hold budget a bounded fault run
// takes when it sets none: 4·qcap+16, resolved from its
// WithQueueCapacity. Each run is DeepEqual to the one that spells the
// budget out, and differs from one held 4·1+16 cycles, so the case
// turns on the budget.
func TestQueueBoundPrecedence(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64, opts ...RunOption) RunReport {
		rep, err := nw.RunOpts(UniformLoad(1024), append(opts, WithSeed(seed), WithFaults(nil), WithQueueCapacity(4))...)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for seed := int64(1); seed <= 3; seed++ {
		got, want := run(seed), run(seed, WithHoldBudget(4*4+16))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: run %v, spelled out %v", seed, got.FaultResult, want.FaultResult)
		}
		if short := run(seed, WithHoldBudget(4*1+16)); reflect.DeepEqual(got, short) {
			t.Fatalf("seed %d: a hold budget of %d runs the same as %d", seed, 4*1+16, 4*4+16)
		}
	}
}

// TestMaxCyclesReachesFaultEngine: a Network's cycle budget stops a fault
// run at the same cycle as the plain run, and the packets it strands are
// counted as Stuck.
func TestMaxCyclesReachesFaultEngine(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	const budget = 5
	nw, err := NewNetwork(g, WithMaxCycles(budget))
	if err != nil {
		t.Fatal(err)
	}
	pkts := UniformRandom(g.N(), 8*g.N(), 3)
	plain, err := nw.RunOpts(Fixed(pkts))
	if err != nil {
		t.Fatal(err)
	}
	fault, err := nw.RunOpts(Fixed(pkts), WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	session, err := nw.SelfHeal(nil, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	heal, err := session.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if got := session.Cycle(); got != budget+1 {
		t.Fatalf("heal session clock at %d after the run, want %d (cycles 0..%d)", got, budget+1, budget)
	}
	for _, r := range []struct {
		name string
		res  FaultResult
	}{{"fault", fault.FaultResult}, {"heal", heal.FaultResult}} {
		sameDeliveries(t, r.name, plain.Result, r.res.Result)
		if r.res.Cycles > budget {
			t.Fatalf("%s: last delivery at cycle %d, budget %d", r.name, r.res.Cycles, budget)
		}
		if r.res.Stuck == 0 || r.res.Delivered+r.res.Dropped != len(pkts) {
			t.Fatalf("%s: truncated run: delivered %d + dropped %d (stuck %d) of %d", r.name,
				r.res.Delivered, r.res.Dropped, r.res.Stuck, len(pkts))
		}
	}
	undelivered := len(pkts) - plain.Delivered - plain.Dropped
	if fault.Stuck != undelivered-fault.DroppedHorizon {
		t.Fatalf("fault run: %d stuck + %d beyond the horizon, plain run left %d undelivered",
			fault.Stuck, fault.DroppedHorizon, undelivered)
	}
}
