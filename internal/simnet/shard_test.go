package simnet

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// stripPackets returns r with the packet table detached, for asserting
// aggregate equality separately from the (large) per-packet state.
func resultsEqual(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		wp, gp := want, got
		wp.Packets, gp.Packets = nil, nil
		if !reflect.DeepEqual(wp, gp) {
			t.Fatalf("%s: aggregate mismatch\nsequential: %+v\nsharded:    %+v", label, wp, gp)
		}
		for i := range want.Packets {
			if want.Packets[i] != got.Packets[i] {
				t.Fatalf("%s: packet %d mismatch: sequential %+v, sharded %+v",
					label, i, want.Packets[i], got.Packets[i])
			}
		}
		t.Fatalf("%s: results differ", label)
	}
}

// shardRun runs pkts on nw's lane kernel with the given lane and worker
// counts.
func shardRun(nw *Network, pkts []Packet, tun runTuning, shards, workers int) Result {
	tun.shards, tun.workers = shards, workers
	res, _ := nw.run(pkts, tun, nil)
	return res
}

// TestShardRunMatchesSequential is the lane kernel's equivalence gate:
// for a matrix of topologies, routing modes, workloads and lane counts
// (one lane included), the kernel must reproduce the frozen
// packet-at-a-time engine's Result exactly — every aggregate counter,
// MaxQueue/HotNode tie-breaks, PeakResident, and the full per-packet
// delivery table.
func TestShardRunMatchesSequential(t *testing.T) {
	topos := []struct {
		name    string
		d, D    int
		routing RoutingMode
		witness bool  // the OTIS wiring of B(d, D), routed through its layout witness
		shards  []int // nil: 1, 2, 3, 4, 7, 8
		// large skips the workloads that drain over thousands of cycles:
		// the reference scans every arc each cycle, and at 16,384 nodes
		// poisson (33,011 cycles) and broadcast (8,204) take it seconds.
		large bool
	}{
		{"B(2,5)/table", 2, 5, TableRouting, false, nil, false},
		{"B(2,5)/shift", 2, 5, ShiftRouting, false, nil, false},
		{"B(3,4)/table", 3, 4, TableRouting, false, nil, false},
		{"B(3,4)/shift", 3, 4, ShiftRouting, false, nil, false},
		{"B(3,4)/custom", 3, 4, CustomRouting, false, nil, false},
		{"B(2,8)/shift", 2, 8, ShiftRouting, false, nil, false},
		{"B(4,3)/shift", 4, 3, ShiftRouting, false, nil, false},
		{"OTIS_B(2,6)/witness", 2, 6, ShiftRouting, true, nil, false},
		{"B(2,14)/shift", 2, 14, ShiftRouting, false, []int{1, 3, 8}, true},
	}
	workloads := []struct {
		name string
		w    func(n int) []Packet
		long bool // drains over thousands of cycles at B(2,14)
	}{
		{"permutation", func(n int) []Packet { return Permutation(n, 11) }, false},
		{"uniform", func(n int) []Packet { return UniformRandom(n, 4*n, 7) }, false},
		{"poisson", func(n int) []Packet { return PoissonArrivals(n, 2*n, 0.5, 3) }, true},
		{"broadcast", func(n int) []Packet { return Broadcast(n, 1) }, true},
	}
	for _, tp := range topos {
		g := debruijn.DeBruijn(tp.d, tp.D)
		opt := WithRouting(tp.routing)
		switch {
		case tp.witness:
			w, _ := otisWitness(t, tp.d, tp.D)
			g, opt = w.g, WithRouter(w.r)
		case tp.routing == CustomRouting:
			opt = WithRouter(opaqueRouter{NewTableRouter(g)})
		}
		nw, err := NewNetwork(g, opt)
		if err != nil {
			t.Fatalf("%s: NewNetwork: %v", tp.name, err)
		}
		if nw.Routing() != tp.routing {
			t.Fatalf("%s: routes %v, want %v", tp.name, nw.Routing(), tp.routing)
		}
		for _, wl := range workloads {
			if tp.large && wl.long {
				continue
			}
			pkts := wl.w(g.N())
			want := refRun(nw, pkts, runTuning{}, nil)
			counts := tp.shards
			if counts == nil {
				counts = []int{1, 2, 3, 4, 7, 8}
			}
			for _, shards := range counts {
				if shards > g.N() {
					continue
				}
				got := shardRun(nw, pkts, runTuning{}, shards, shardWorkers(shards))
				resultsEqual(t, tp.name+"/"+wl.name+"/shards="+itoa(shards), want, got)
			}
		}
	}
}

// TestShardRunMatchesSequentialHopLatency covers multi-bucket departure
// rings (HopLatency > 1), table-routed and witness-routed, and a custom
// interface router, the paths the main matrix leaves thin.
func TestShardRunMatchesSequentialHopLatency(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	w, _ := otisWitness(t, 2, 6)
	for _, tc := range []struct {
		name string
		g    *digraph.Digraph
		hop  int
		opts []NetworkOption
	}{
		{"B(3,3)/hop=2", g, 2, nil},
		{"B(3,3)/hop=3", g, 3, nil},
		{"OTIS_B(2,6)/witness/hop=2", w.g, 2, []NetworkOption{WithRouter(w.r)}},
	} {
		nw, err := NewNetwork(tc.g, append(tc.opts, WithHopLatency(tc.hop))...)
		if err != nil {
			t.Fatal(err)
		}
		pkts := UniformRandom(tc.g.N(), 5*tc.g.N(), 13)
		want := refRun(nw, pkts, runTuning{}, nil)
		for _, shards := range []int{1, 2, 5} {
			got := shardRun(nw, pkts, runTuning{}, shards, shardWorkers(shards))
			resultsEqual(t, tc.name+"/shards="+itoa(shards), want, got)
		}
	}

	// Custom router: interface dispatch in the routing pass.
	custom, err := NewNetwork(g, WithRouter(opaqueRouter{NewTableRouter(g)}))
	if err != nil {
		t.Fatal(err)
	}
	pkts := Permutation(g.N(), 5)
	want := refRun(custom, pkts, runTuning{}, nil)
	got := shardRun(custom, pkts, runTuning{}, 4, shardWorkers(4))
	resultsEqual(t, "customRouter/shards=4", want, got)
}

// opaqueRouter wraps a Router so the engines cannot devirtualize it.
type opaqueRouter struct{ r Router }

func (r opaqueRouter) NextArc(at, dst int) int { return r.r.NextArc(at, dst) }

// TestShardRunTruncation pins budget-truncated equivalence: a cycle
// budget too small to finish must leave the same partial delivery state
// under both engines, table-routed and witness-routed.
func TestShardRunTruncation(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	w, _ := otisWitness(t, 2, 6)
	for _, tc := range []struct {
		name string
		g    *digraph.Digraph
		opts []NetworkOption
	}{
		{"B(2,6)", g, nil},
		{"OTIS_B(2,6)/witness", w.g, []NetworkOption{WithRouter(w.r)}},
	} {
		nw, err := NewNetwork(tc.g, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		pkts := UniformRandom(tc.g.N(), 8*tc.g.N(), 9)
		tun := runTuning{budget: 5} // 5 cycles: most packets still in flight
		want := refRun(nw, pkts, tun, nil)
		for _, shards := range []int{2, 4} {
			// Twice: the pooled engine must not carry a truncated run's
			// queued or in-flight packets into the next run.
			for rerun := 0; rerun < 2; rerun++ {
				got := shardRun(nw, pkts, tun, shards, shardWorkers(shards))
				resultsEqual(t, tc.name+"/truncated/shards="+itoa(shards)+"/rerun="+itoa(rerun), want, got)
			}
		}
		if want.Delivered+want.Dropped == len(pkts) {
			t.Fatalf("%s: truncation test did not truncate: all %d packets settled", tc.name, len(pkts))
		}
	}
}

// TestShardWorkerCountDeterminism is the worker-count matrix: the same
// seeded workload under 1, 2, 4 and 8 workers (forced past GOMAXPROCS —
// the barriers interleave on however many P's exist) must produce
// DeepEqual results, twice over (the double-run catches state leaking
// between runs through the pooled engine).
func TestShardWorkerCountDeterminism(t *testing.T) {
	g := debruijn.DeBruijn(3, 4)
	nw, err := NewNetwork(g, WithRouting(ShiftRouting))
	if err != nil {
		t.Fatal(err)
	}
	pkts := UniformRandom(g.N(), 6*g.N(), 21)
	want := refRun(nw, pkts, runTuning{}, nil)
	for _, workers := range []int{1, 2, 4, 8} {
		for rerun := 0; rerun < 2; rerun++ {
			got := shardRun(nw, pkts, runTuning{}, 8, workers)
			resultsEqual(t, "workers="+itoa(workers)+"/rerun="+itoa(rerun), want, got)
		}
	}
}

// TestShardFaultRunsStayDeterministic is the faults-on half of the
// worker-count matrix: WithShards combined with WithFaults falls back
// to the sequential fault engine (documented on WithShards), so any
// shard count must reproduce the no-shards fault run exactly.
func TestShardFaultRunsStayDeterministic(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlanFor(g).LinkDown(2, 10, 1, 0).NodeDown(5, 8, 4)
	base, err := nw.RunOpts(UniformLoad(2*g.N()), WithSeed(3), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		rep, err := nw.RunOpts(UniformLoad(2*g.N()), WithSeed(3), WithFaults(plan), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if want := shards > 1; rep.ShardFallback != want {
			t.Fatalf("fault run with %d shards: ShardFallback = %v, want %v", shards, rep.ShardFallback, want)
		}
		rep.ShardFallback = false // the flag is the only allowed divergence
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("fault run with %d shards diverged from the sequential fault run", shards)
		}
	}
}

// TestWithShardsDispatch pins the RunOpts dispatch rule for plain runs:
// WithShards(4) and WithShards(1) both give the sequential result.
func TestWithShardsDispatch(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	plain, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := plain.RunOpts(PermutationLoad(), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 1} {
		rep, err := plain.RunOpts(PermutationLoad(), WithSeed(2), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, rep) {
			t.Fatalf("per-run WithShards(%d) diverged from the sequential result", shards)
		}
	}
}

// TestWithShardsValidation is the eager-validation table for the shard
// options.
func TestWithShardsValidation(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero shards", func() error {
			_, err := nw.RunOpts(PermutationLoad(), WithShards(0))
			return err
		}},
		{"negative shards", func() error {
			_, err := nw.RunOpts(PermutationLoad(), WithShards(-3))
			return err
		}},
		{"shards beyond nodes", func() error {
			_, err := nw.RunOpts(PermutationLoad(), WithShards(g.N()+1))
			return err
		}},
		{"duplicate shards", func() error {
			_, err := nw.RunOpts(PermutationLoad(), WithShards(2), WithShards(4))
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.run()
		var oe *OptionError
		if err == nil || !errors.As(err, &oe) {
			t.Fatalf("%s: want *OptionError, got %v", tc.name, err)
		}
		if oe.Option != "WithShards" {
			t.Fatalf("%s: error names %q, want WithShards", tc.name, oe.Option)
		}
	}
}

// itoa is strconv.Itoa for the tiny label ints here, avoiding the
// import in every table test.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
