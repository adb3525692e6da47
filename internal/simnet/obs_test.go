package simnet

import (
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

// TestInstrumentedRunMatchesUninstrumented pins the central promise of
// the observability layer: attaching a Recorder changes what is
// *recorded*, never what is *simulated*.
func TestInstrumentedRunMatchesUninstrumented(t *testing.T) {
	g := debruijn.DeBruijn(2, 6)
	pkts := UniformRandom(g.N(), 800, 17)

	plain, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	bare := runFixed(t, plain, pkts)

	instr, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	instr.Observe(rec)
	observed := runFixed(t, instr, pkts)

	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("instrumented run diverged:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestArcTraversalsSumToHops: each recorded arc traversal is one packet
// hop, so the slab total, the counter, the hops histogram sum and the
// per-packet hop counts must all agree.
func TestArcTraversalsSumToHops(t *testing.T) {
	g := debruijn.DeBruijn(3, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	nw.Observe(rec)
	res := runFixed(t, nw, Permutation(g.N(), 3))

	var hops int64
	for _, p := range res.Packets {
		hops += int64(p.Hops)
	}
	var slab int64
	for _, v := range rec.ArcTraversals() {
		slab += v
	}
	snap := rec.Snapshot()
	if slab != hops {
		t.Errorf("arc slab total %d, packet hops %d", slab, hops)
	}
	if c := snap.Counters[obs.MetricArcTraversed]; c != hops {
		t.Errorf("%s = %d, packet hops %d", obs.MetricArcTraversed, c, hops)
	}
	if s := snap.Histograms[obs.MetricHistHops].Sum; s != hops {
		t.Errorf("hops histogram sum %d, packet hops %d", s, hops)
	}
	if d := snap.Counters[obs.MetricDelivered]; d != int64(res.Delivered) {
		t.Errorf("delivered counter %d, result %d", d, res.Delivered)
	}
	if len(rec.ArcTraversals()) != g.M() {
		t.Errorf("slab sized %d, digraph has %d arcs", len(rec.ArcTraversals()), g.M())
	}
}

// TestFaultRunRecorderMatchesResult cross-checks the fault engine's own
// drain accounting against the recorder's cause buckets.
func TestFaultRunRecorderMatchesResult(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	nw.Observe(rec)

	plan := NewFaultPlan()
	// Down a block of arcs permanently to force drops and reroutes.
	for k := 0; k < 2; k++ {
		plan.LinkDown(0, 0, 0, k)
		plan.LinkDown(0, 0, 1, k)
	}
	res, err := nw.RunOpts(Fixed(UniformRandom(g.N(), 600, 3)), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped != 600 {
		t.Fatalf("drain invariant broken: %+v", res)
	}
	snap := rec.Snapshot()
	checks := map[string]int{
		obs.MetricDelivered:                               res.Delivered,
		obs.MetricDropped:                                 res.Dropped,
		obs.MetricDropPrefix + obs.DropTTL.String():       res.DroppedTTL,
		obs.MetricDropPrefix + obs.DropNoRoute.String():   res.DroppedNoRoute,
		obs.MetricDropPrefix + obs.DropFault.String():     res.DroppedFault,
		obs.MetricDropPrefix + obs.DropHorizon.String():   res.DroppedHorizon,
		obs.MetricDropPrefix + obs.DropStuck.String():     res.Stuck,
		obs.MetricDropPrefix + obs.DropQueueFull.String(): res.DroppedQueueFull,
		obs.MetricShed:     res.Shed,
		obs.MetricHolds:    res.Holds,
		obs.MetricReroutes: res.Reroutes,
		obs.MetricRetries:  res.Retries,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("counter %s = %d, result says %d", name, got, want)
		}
	}
}

// TestRunOptsWithRecorderOverride: WithRecorder records the run without
// touching the network's attached recorder.
func TestRunOptsWithRecorderOverride(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	attached := obs.NewRecorder(nil)
	nw.Observe(attached)
	override := obs.NewRecorder(nil)
	if _, err := nw.RunOpts(PermutationLoad(), WithSeed(2), WithRecorder(override)); err != nil {
		t.Fatal(err)
	}
	if got := attached.Snapshot().Counters[obs.MetricDelivered]; got != 0 {
		t.Errorf("attached recorder saw %d deliveries during an overridden run", got)
	}
	if got := override.Snapshot().Counters[obs.MetricDelivered]; got != int64(g.N()) {
		t.Errorf("override recorder saw %d deliveries, want %d", got, g.N())
	}
	// WithRecorder(nil) forces an uninstrumented run.
	if _, err := nw.RunOpts(PermutationLoad(), WithSeed(2), WithRecorder(nil)); err != nil {
		t.Fatal(err)
	}
	if got := attached.Snapshot().Counters[obs.MetricDelivered]; got != 0 {
		t.Errorf("attached recorder saw %d deliveries during a nil-recorder run", got)
	}
}

// TestSweepSharedRecorder runs a DegradationSweep with several workers
// sharing one recorder — under `go test -race` this is the concurrency
// certification of the obs hot path.
func TestSweepSharedRecorder(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	nw.Observe(rec)
	rates := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}
	points, err := nw.DegradationSweep(rates, 150, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantDelivered, wantDropped := 0, 0
	for _, p := range points {
		wantDelivered += p.Delivered
		wantDropped += p.Dropped
	}
	snap := rec.Snapshot()
	if got := snap.Counters[obs.MetricDelivered]; got != int64(wantDelivered) {
		t.Errorf("delivered counter %d, sweep points sum %d", got, wantDelivered)
	}
	if got := snap.Counters[obs.MetricDropped]; got != int64(wantDropped) {
		t.Errorf("dropped counter %d, sweep points sum %d", got, wantDropped)
	}
	if err := validateSnapshot(snap); err != nil {
		t.Errorf("sweep snapshot invalid: %v", err)
	}
}

func validateSnapshot(m obs.RunMetrics) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return obs.ValidateRunMetrics(data)
}

// TestObservedRouterBuild records construction cost without changing the
// router.
func TestObservedRouterBuild(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	rec := obs.NewRecorder(nil)
	tr := NewTableRouterObserved(g, rec)
	snap := rec.Snapshot()
	if snap.Gauges[obs.MetricRouterBytes] != int64(tr.Footprint()) {
		t.Errorf("router_slab_bytes %d, footprint %d", snap.Gauges[obs.MetricRouterBytes], tr.Footprint())
	}
	if snap.Gauges[obs.MetricRouterNS] <= 0 {
		t.Errorf("router_build_ns = %d", snap.Gauges[obs.MetricRouterNS])
	}
	plain := NewTableRouter(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && tr.NextArc(u, v) != plain.NextArc(u, v) {
				t.Fatalf("observed router diverges at (%d,%d)", u, v)
			}
		}
	}
}
