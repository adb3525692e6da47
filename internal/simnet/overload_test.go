package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/debruijn"
)

// Tests for the overload-hardened data plane: bounded queues with
// credit-based backpressure, admission control, unified retry budgets,
// and the saturation instrumentation tying them together. The headline
// is claim X-OVERLOAD: at 4x saturation on B(3,5), bounded-queue runs
// keep their buffer footprint at the topology bound (independent of
// offered load), degrade monotonically, terminate with exact
// Delivered + Dropped + Shed == Offered accounting, and reproduce
// byte-identically under the same seed.

// TestClaimXOverload drives B(3,5) at 1x, 2x and 4x its saturation rate
// under bounded queues and checks every leg of the claim.
func TestClaimXOverload(t *testing.T) {
	g := debruijn.DeBruijn(3, 5)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	const (
		qcap    = 2
		packets = 20000
		seed    = 11
	)
	multiples := []float64{1, 2, 4}
	points, err := nw.SaturationSweep(multiples, packets, seed, WithQueueCapacity(qcap))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(multiples) {
		t.Fatalf("sweep returned %d points, want %d", len(points), len(multiples))
	}

	// Topology bound on resident packets: per arc, at most qcap queued
	// plus a full link window of qcap + HopLatency in flight or held.
	bound := g.M() * (2*qcap + 1)
	for _, pt := range points {
		// No deadlock: the plain engine does not drain survivors at the
		// cycle budget, so exact accounting proves natural termination.
		if pt.Delivered+pt.Dropped+pt.Shed != pt.Offered {
			t.Fatalf("%gx: accounting broken (run truncated?): %v", pt.Multiple, pt)
		}
		if pt.PeakResident > bound {
			t.Errorf("%gx: PeakResident %d exceeds topology bound %d", pt.Multiple, pt.PeakResident, bound)
		}
		if pt.MaxQueue > qcap {
			t.Errorf("%gx: MaxQueue %d exceeds capacity %d", pt.Multiple, pt.MaxQueue, qcap)
		}
		if pt.Delivered == 0 {
			t.Errorf("%gx: nothing delivered: %v", pt.Multiple, pt)
		}
	}

	// Delivered fraction is monotone non-increasing in offered load.
	for i := 1; i < len(points); i++ {
		if points[i].DeliveredFraction > points[i-1].DeliveredFraction {
			t.Errorf("delivered fraction rose with load: %gx %.4f -> %gx %.4f",
				points[i-1].Multiple, points[i-1].DeliveredFraction,
				points[i].Multiple, points[i].DeliveredFraction)
		}
	}

	// Memory-flat means the bound is load-independent; the same 4x load
	// without queue bounds buffers far beyond it.
	sat, ok := SaturationRate(g)
	if !ok {
		t.Fatal("B(3,5) not strongly connected?")
	}
	rep, err := nw.RunOpts(RatedLoad(packets, 4*sat), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakResident <= bound {
		t.Errorf("unbounded 4x run resident %d within bound %d — contrast lost", rep.PeakResident, bound)
	}
	if points[2].PeakResident >= rep.PeakResident {
		t.Errorf("bounded 4x resident %d not below unbounded %d", points[2].PeakResident, rep.PeakResident)
	}

	// Same seed, same sweep, byte-identical points.
	again, err := nw.SaturationSweep(multiples, packets, seed, WithQueueCapacity(qcap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Errorf("same-seed sweep diverged:\n%v\n%v", points, again)
	}
}

// TestSaturationCatalogAccounting: on every catalog topology, a 2x
// overload with bounded queues and admission control keeps the exact
// Delivered + Dropped + Shed == Offered invariant, produces a trace
// VerifyTrace accepts, and is byte-identical across same-seed runs —
// including the event log.
func TestSaturationCatalogAccounting(t *testing.T) {
	for name, g := range catalogGraphs(t) {
		sat, ok := SaturationRate(g)
		if !ok {
			t.Fatalf("%s: no saturation rate", name)
		}
		nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		const offered = 600
		run := func() RunReport {
			rep, err := nw.RunOpts(RatedLoad(offered, 2*sat),
				WithSeed(23),
				WithQueueCapacity(2),
				WithAdmission(AdmissionConfig{Rate: sat}),
				WithTrace())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep
		}
		rep := run()
		if rep.Delivered+rep.Dropped+rep.Shed != offered {
			t.Errorf("%s: accounting broken: %v", name, rep.FaultResult)
		}
		if rep.Shed == 0 && rep.Holds == 0 && rep.Dropped == 0 {
			t.Logf("%s: overload produced no pressure (delivered all %d)", name, rep.Delivered)
		}
		if err := VerifyTrace(g, rep.Packets, rep.Events); err != nil {
			t.Errorf("%s: trace invalid under backpressure: %v", name, err)
		}
		again := run()
		if !reflect.DeepEqual(rep.FaultResult, again.FaultResult) {
			t.Errorf("%s: same-seed results diverged:\n%v\n%v", name, rep.FaultResult, again.FaultResult)
		}
		if !reflect.DeepEqual(rep.Events, again.Events) {
			t.Errorf("%s: same-seed traces diverged (%d vs %d events)", name, len(rep.Events), len(again.Events))
		}
	}
}

// TestChaosOverload: random fault plans at 4x saturation through the
// fault engine with bounded queues and admission — the accounting
// invariant must hold unconditionally, whatever the plan does.
func TestChaosOverload(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	sat, ok := SaturationRate(g)
	if !ok {
		t.Fatal("B(2,4) not strongly connected?")
	}
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := randomChaosPlan(rng, g)
		offered := 200 + rng.Intn(200)
		rep, err := nw.RunOpts(RatedLoad(offered, 4*sat),
			WithSeed(seed),
			WithFaults(plan),
			WithQueueCapacity(1+rng.Intn(3)),
			WithAdmission(AdmissionConfig{Rate: 2 * sat}),
			WithTrace())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Delivered+rep.Dropped+rep.Shed != offered {
			t.Fatalf("seed %d: accounting broken: %v", seed, rep.FaultResult)
		}
		drops := rep.DroppedTTL + rep.DroppedNoRoute + rep.DroppedFault +
			rep.DroppedHorizon + rep.DroppedQueueFull + rep.Stuck
		if drops != rep.Dropped {
			t.Fatalf("seed %d: drop buckets %d don't sum to Dropped %d: %v",
				seed, drops, rep.Dropped, rep.FaultResult)
		}
		if err := VerifyTrace(g, rep.Packets, rep.Events); err != nil {
			t.Fatalf("seed %d: trace invalid: %v", seed, err)
		}
	}
}

// TestHealOverload: the self-healing engine under the same bounded
// queues — accounting exact, queue bound respected, deterministic.
func TestHealOverload(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	mkPlan := func() *FaultPlan {
		plan := NewFaultPlan()
		plan.LinkDown(5, 40, 0, 0)
		plan.NodeDown(10, 30, 3)
		return plan
	}
	cfg := HealConfig{QueueCapacity: 2}
	run := func() HealResult {
		session, err := nw.SelfHeal(mkPlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := session.Run(UniformRandom(g.N(), 800, 17))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Delivered+res.Dropped != 800 {
		t.Fatalf("accounting broken: %+v", res.FaultResult)
	}
	// The heal engine bounds each node's hold queue at qcap per out-arc,
	// checked when upstreams depart — in-flight packets from different
	// upstreams may all land in one cycle, overshooting by at most the
	// in-degree.
	if bound := 2*2 + 2; res.MaxQueue > bound {
		t.Errorf("MaxQueue %d exceeds node bound %d", res.MaxQueue, bound)
	}
	again := run()
	if !reflect.DeepEqual(res.FaultResult, again.FaultResult) {
		t.Errorf("same-seed healing runs diverged:\n%v\n%v", res.FaultResult, again.FaultResult)
	}
}

// TestRunOptsValidation: invalid options, workloads and self-healing
// configs fail eagerly with *OptionError, before any simulation work.
func TestRunOptsValidation(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	ok := UniformLoad(10)
	cases := []struct {
		name   string
		w      Workload
		opts   []RunOption
		option string // expected OptionError.Option
		// heal, when set, opens a self-healing session with it instead
		// of running w.
		heal *HealConfig
	}{
		{"queue capacity zero", ok, []RunOption{WithQueueCapacity(0)}, "WithQueueCapacity", nil},
		{"queue capacity negative", ok, []RunOption{WithQueueCapacity(-3)}, "WithQueueCapacity", nil},
		{"hold budget zero", ok, []RunOption{WithHoldBudget(0)}, "WithHoldBudget", nil},
		{"admission rate zero", ok, []RunOption{WithAdmission(AdmissionConfig{})}, "WithAdmission", nil},
		{"admission burst negative", ok, []RunOption{WithAdmission(AdmissionConfig{Rate: 1, Burst: -1})}, "WithAdmission", nil},
		{"admission delay negative", ok, []RunOption{WithAdmission(AdmissionConfig{Rate: 1, MaxDelay: -1})}, "WithAdmission", nil},
		{"duplicate admission", ok, []RunOption{
			WithAdmission(AdmissionConfig{Rate: 1}), WithAdmission(AdmissionConfig{Rate: 2})}, "WithAdmission", nil},
		{"duplicate fault plans", ok, []RunOption{WithFaults(nil), WithFaults(nil)}, "WithFaults", nil},
		{"duplicate recorders", ok, []RunOption{WithRecorder(nil), WithRecorder(nil)}, "WithRecorder", nil},
		{"poisson rate zero", PoissonLoad(10, 0), nil, "PoissonLoad", nil},
		{"poisson rate above one", PoissonLoad(10, 1.5), nil, "PoissonLoad", nil},
		{"poisson negative count", PoissonLoad(-1, 0.5), nil, "PoissonLoad", nil},
		{"rated rate zero", RatedLoad(10, 0), nil, "RatedLoad", nil},
		{"rated negative count", RatedLoad(-1, 2), nil, "RatedLoad", nil},
		{"duplicate seeds", ok, []RunOption{WithSeed(1), WithSeed(2)}, "WithSeed", nil},
		{"duplicate queue capacities", ok, []RunOption{WithQueueCapacity(1), WithQueueCapacity(4)}, "WithQueueCapacity", nil},
		{"duplicate hold budgets", ok, []RunOption{
			WithQueueCapacity(2), WithHoldBudget(3), WithHoldBudget(8)}, "WithHoldBudget", nil},
		{name: "heal negative queue capacity", option: "SelfHeal", heal: &HealConfig{QueueCapacity: -1}},
		{name: "heal negative hold budget", option: "SelfHeal", heal: &HealConfig{HoldBudget: -1}},
	}
	for _, tc := range cases {
		var err error
		if tc.heal != nil {
			_, err = nw.SelfHeal(nil, *tc.heal)
		} else {
			_, err = nw.RunOpts(tc.w, tc.opts...)
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v, want *OptionError", tc.name, err)
			continue
		}
		if oe.Option != tc.option {
			t.Errorf("%s: blamed option %q, want %q (%v)", tc.name, oe.Option, tc.option, oe)
		}
	}

	// And valid overload options run.
	if _, err := nw.RunOpts(ok, WithQueueCapacity(2), WithHoldBudget(8),
		WithAdmission(AdmissionConfig{Rate: 0.5})); err != nil {
		t.Errorf("valid overload options rejected: %v", err)
	}
	// A nil workload is an error, not a panic.
	if _, err := nw.RunOpts(nil); err == nil {
		t.Error("RunOpts(nil) accepted")
	}
	// A workload runs the packets its generator makes for the run's seed.
	want, err := nw.RunOpts(Fixed(UniformRandom(g.N(), 10, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := nw.RunOpts(ok, WithSeed(9)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("UniformLoad(10) at WithSeed(9) diverged from UniformRandom(n, 10, 9): %v", err)
	}
}

// TestOutOfRangeEndpointsRefused: a packet whose source or destination
// is not a node of B(2,3) is refused with an *OptionError naming the
// workload, before any simulation work, by every engine: plain and
// fault runs, table- and shift-routed, and heal sessions, whose clock
// stays at 0. None is silently lost, misrouted into a TTL drop or
// indexed out of range.
func TestOutOfRangeEndpointsRefused(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	for _, mode := range []RoutingMode{TableRouting, ShiftRouting} {
		nw, err := NewNetwork(g, WithRouting(mode))
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Packet{{Src: 0, Dst: 8}, {Src: 8, Dst: 1}, {Src: -1, Dst: 2}, {Src: 3, Dst: -5}} {
			pkts := []Packet{{ID: 0, Src: 1, Dst: 6}, {ID: 1, Src: bad.Src, Dst: bad.Dst}}
			name := fmt.Sprintf("%v %d→%d", mode, bad.Src, bad.Dst)
			refused := func(engine string, err error) {
				t.Helper()
				var oe *OptionError
				if !errors.As(err, &oe) || oe.Option != "Workload" {
					t.Errorf("%s %s: error %v, want an *OptionError naming Workload", name, engine, err)
				}
			}
			_, err := nw.RunOpts(Fixed(pkts))
			refused("plain run", err)
			_, err = nw.RunOpts(Fixed(pkts), WithFaults(NewFaultPlan()))
			refused("fault run", err)
			session, err := nw.SelfHeal(nil, HealConfig{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = session.Run(pkts)
			refused("heal session", err)
			if session.Cycle() != 0 {
				t.Errorf("%s: the refused heal Run advanced the session clock to %d", name, session.Cycle())
			}
		}
	}
}

// TestRetryPolicy: the backoff ladder doubles from 1 to its cap of 64
// cycles, a packet with no live out-arc spends all 8 retries on it
// before it drops, at cycle 1+2+4+8+16+32+64+64 = 191, and a fault run's
// default cycle budget has room for the whole ladder.
func TestRetryPolicy(t *testing.T) {
	want := []int{1, 2, 4, 8, 16, 32, 64, 64}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
	g := debruijn.DeBruijn(2, 3)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlanFor(g).LinkDown(0, 0, 1, 0).LinkDown(0, 0, 1, 1)
	res, err := nw.RunOpts(Fixed([]Packet{{ID: 0, Src: 1, Dst: 6}}), WithFaults(plan), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Events[len(res.Events)-1]
	if res.Retries != 8 || res.DroppedNoRoute != 1 || last.Kind != EventDrop || last.Cycle != 191 {
		t.Fatalf("isolated packet: %v, last event %v; want 8 retries and a no-route drop at cycle 191", res, last)
	}
	// The fault loop's default cycle budget leaves room for the whole
	// ladder: 8·64 cycles past a plain run's 64·8+16·1+1024 = 1552 on
	// B(2,3), so a lone packet released at 1553 still runs.
	late, err := nw.RunOpts(Fixed([]Packet{{ID: 0, Src: 1, Dst: 6, Release: 1553}}), WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if late.Delivered != 1 {
		t.Fatalf("packet released at cycle 1553: %v; want it delivered inside the retry room", late)
	}
}

// TestAdmitState: token-bucket arithmetic — defaults, fractional rates,
// burst clamping, and the congestion pause.
func TestAdmitState(t *testing.T) {
	// Defaults: burst max(1, Rate), MaxDelay 4*diameter+16.
	a := newAdmitState(AdmissionConfig{Rate: 0.5}, 5)
	if a.burst != 1 || a.maxDelay != 36 {
		t.Fatalf("defaults: burst %v maxDelay %d, want 1 and 36", a.burst, a.maxDelay)
	}
	// Bucket starts full: one admission, then the fractional rate needs
	// two refills per token.
	if !a.take() || a.take() {
		t.Fatal("full bucket should admit exactly one packet")
	}
	a.refill(false)
	if a.take() {
		t.Error("half a token admitted a packet")
	}
	a.refill(false)
	if !a.take() {
		t.Error("two refills at rate 0.5 should yield one token")
	}
	// Congestion pauses refill entirely.
	a.refill(true)
	if a.take() {
		t.Error("congested refill added tokens")
	}
	// Refill clamps at the burst depth.
	b := newAdmitState(AdmissionConfig{Rate: 3, Burst: 4, MaxDelay: 10}, -1)
	for i := 0; i < 10; i++ {
		b.refill(false)
	}
	admitted := 0
	for b.take() {
		admitted++
	}
	if admitted != 4 {
		t.Errorf("burst 4 admitted %d packets after long idle", admitted)
	}
}

// TestSaturationRate: M / meanDistance on a known graph, and failure on
// a disconnected one.
func TestSaturationRate(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	sat, ok := SaturationRate(g)
	if !ok || sat <= 0 {
		t.Fatalf("SaturationRate(B(2,4)) = %v, %v", sat, ok)
	}
	mean, _ := g.MeanDistance()
	if want := float64(g.M()) / mean; sat != want {
		t.Errorf("sat %v, want M/meanDistance = %v", sat, want)
	}
}

// TestRatedUniform: the fixed-rate workload releases packets at the
// requested aggregate rate, including rates above one per cycle.
func TestRatedUniform(t *testing.T) {
	pkts := RatedUniform(16, 100, 4, 9)
	if len(pkts) != 100 {
		t.Fatalf("generated %d packets, want 100", len(pkts))
	}
	for i, p := range pkts {
		if want := int(float64(i) / 4); p.Release != want {
			t.Fatalf("packet %d released at %d, want %d", i, p.Release, want)
		}
		if p.Src < 0 || p.Src >= 16 || p.Dst < 0 || p.Dst >= 16 {
			t.Fatalf("packet %d endpoints out of range: %+v", i, p)
		}
	}
	if !reflect.DeepEqual(pkts, RatedUniform(16, 100, 4, 9)) {
		t.Error("same-seed RatedUniform diverged")
	}
}
