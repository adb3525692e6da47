package simnet

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/otis"
)

// TestNewNetworkEquivalentToNew pins the deprecated positional
// constructor to the options API: New(g, router, cfg) and
// NewNetwork(g, WithRouter(router), WithConfig(cfg)) must produce
// DeepEqual results on the same workloads, across configs and routers.
func TestNewNetworkEquivalentToNew(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	cases := []struct {
		name   string
		router Router
		cfg    Config
	}{
		{"table/default", NewTableRouter(g), DefaultConfig()},
		{"shift/default", NewDeBruijnRouter(3, 3), DefaultConfig()},
		{"table/hop2", NewTableRouter(g), Config{HopLatency: 2}},
		{"table/bounded", NewTableRouter(g), Config{HopLatency: 1, QueueCapacity: 2, HoldBudget: 8}},
		{"table/capped", NewTableRouter(g), Config{HopLatency: 1, MaxCycles: 40}},
	}
	for _, tc := range cases {
		old, err := New(g, tc.router, tc.cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		nu, err := NewNetwork(g, WithRouter(tc.router), WithConfig(tc.cfg))
		if err != nil {
			t.Fatalf("%s: NewNetwork: %v", tc.name, err)
		}
		pkts := UniformRandom(g.N(), 3*g.N(), 17)
		if want, got := old.Run(pkts), nu.Run(pkts); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: Run diverged between New and NewNetwork", tc.name)
		}
		a, err := old.RunOpts(PermutationLoad(), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		b, err := nu.RunOpts(PermutationLoad(), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: RunOpts diverged between New and NewNetwork", tc.name)
		}
	}
}

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
		{"bad config", []NetworkOption{WithConfig(Config{})}, g, "WithConfig"},
		{"config+hop", []NetworkOption{WithHopLatency(2), WithConfig(DefaultConfig())}, g, "WithConfig"},
		{"bad run default", []NetworkOption{WithQueueCapacity(0)}, g, "WithQueueCapacity"},
		{"shards beyond nodes", []NetworkOption{WithShards(g.N() + 1)}, g, "WithShards"},
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

// TestNetworkRunDefaults pins the merge rule: RunOptions given to
// NewNetwork act as defaults for every run, overridden field by field
// by per-run options.
func TestNetworkRunDefaults(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	plain, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	// Seed default at construction: RunOpts with no options uses it.
	seeded, err := NewNetwork(g, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunOpts(UniformLoad(64), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := seeded.RunOpts(UniformLoad(64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("network-default WithSeed(7) not applied")
	}
	// Per-run override wins.
	want, err = plain.RunOpts(UniformLoad(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err = seeded.RunOpts(UniformLoad(64), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("per-run WithSeed(3) did not override the network default")
	}
	// A qcap default changes engine behaviour for plain Run too.
	bounded, err := NewNetwork(g, WithQueueCapacity(1), WithHoldBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	pkts := UniformRandom(g.N(), 6*g.N(), 5)
	wantB, err := plain.RunOpts(Fixed(pkts), WithQueueCapacity(1), WithHoldBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotB := bounded.Run(pkts); !reflect.DeepEqual(wantB.Result, gotB) {
		t.Fatalf("network-default queue bound not applied by Run")
	}
	if wantB.Holds == 0 && wantB.DroppedQueueFull == 0 {
		t.Fatalf("bounded default produced no backpressure; test not exercising the bound")
	}
}

// TestNetworkConfigReachesEveryEngine is the agreement property behind a
// Network's Config: with unbounded queues, a plain RunOpts, a fault run
// with no plan (WithFaults(nil)) and a fresh self-healing session with
// an empty plan must deliver every packet at the same cycle after the
// same hops, at every HopLatency the Network is built with — the fault
// and heal tunings leave HopLatency zero, so they take the Network's.
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

// TestQueueBoundReachesFaultEngine: a Network's queue bound and hold
// budget — from its Config or from network-default WithQueueCapacity and
// WithHoldBudget — reach fault runs and self-healing sessions that leave
// FaultConfig.QueueCapacity and HoldBudget at 0. Each is DeepEqual to the
// same engine bounded explicitly on an unbounded network, and the bound
// bites: packets hold or drop.
func TestQueueBoundReachesFaultEngine(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	open, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		opts     []NetworkOption
		explicit FaultConfig
	}{
		{"Config", []NetworkOption{WithConfig(Config{HopLatency: 1, QueueCapacity: 1})}, FaultConfig{QueueCapacity: 1}},
		{"Config+hold", []NetworkOption{WithConfig(Config{HopLatency: 1, QueueCapacity: 2, HoldBudget: 3})},
			FaultConfig{QueueCapacity: 2, HoldBudget: 3}},
		{"options", []NetworkOption{WithQueueCapacity(1), WithHoldBudget(2)}, FaultConfig{QueueCapacity: 1, HoldBudget: 2}},
	} {
		bounded, err := NewNetwork(g, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			label := tc.name + "/seed=" + itoa(int(seed))
			pkts := UniformRandom(g.N(), 256, seed)
			got, err := bounded.RunOpts(Fixed(pkts), WithFaults(nil))
			if err != nil {
				t.Fatal(err)
			}
			want, err := open.RunOpts(Fixed(pkts), WithFaultConfig(tc.explicit))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: fault run %v, explicitly bounded %v", label, got.FaultResult, want.FaultResult)
			}
			if got.Holds == 0 && got.DroppedQueueFull == 0 {
				t.Fatalf("%s: fault run never held or dropped against the bound: %v", label, got.FaultResult)
			}

			session, err := bounded.SelfHeal(nil, HealConfig{})
			if err != nil {
				t.Fatal(err)
			}
			heal, err := session.Run(pkts)
			if err != nil {
				t.Fatal(err)
			}
			session, err = open.SelfHeal(nil, HealConfig{FaultConfig: tc.explicit})
			if err != nil {
				t.Fatal(err)
			}
			wantHeal, err := session.Run(pkts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(heal, wantHeal) {
				t.Fatalf("%s: heal session %v, explicitly bounded %v", label, heal, wantHeal)
			}
			if heal.Holds == 0 && heal.DroppedQueueFull == 0 {
				t.Fatalf("%s: heal session never held or dropped against the bound: %v", label, heal)
			}
		}
	}
}

// TestQueueBoundPrecedence pins which queue bound and hold budget a run
// takes: a per-run WithQueueCapacity or WithHoldBudget first, then an
// explicit FaultConfig field, then the network default and the Config,
// with the default hold budget resolved from the bound the run finally
// takes. Each run is DeepEqual to the same per-run options on an
// unbounded network.
func TestQueueBoundPrecedence(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	open, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		net     []NetworkOption
		run     RunOption
		packets int
	}{
		// An explicit FaultConfig bound beats a network-default
		// WithQueueCapacity.
		{"fault_config_over_default", []NetworkOption{WithQueueCapacity(1)},
			WithFaultConfig(FaultConfig{QueueCapacity: 4}), 256},
		// A per-run bound on a Config-bounded network holds for 4·4+16
		// cycles, not the 4·1+16 of the Config's bound.
		{"per_run_bound_hold_budget", []NetworkOption{WithConfig(Config{HopLatency: 1, QueueCapacity: 1})},
			WithQueueCapacity(4), 1024},
	} {
		bounded, err := NewNetwork(g, tc.net...)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			want, err := open.RunOpts(UniformLoad(tc.packets), WithSeed(seed), tc.run)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bounded.RunOpts(UniformLoad(tc.packets), WithSeed(seed), tc.run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: run %v, on an unbounded network %v", tc.name, seed, got.FaultResult, want.FaultResult)
			}
		}
	}
}

// TestMaxCyclesReachesFaultEngine: a Network's cycle budget stops a fault
// run left at FaultConfig.MaxCycles 0 at the same cycle as the plain
// run, and the packets it strands are counted as Stuck.
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
