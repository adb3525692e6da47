package simnet

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// Runtime fault engine tests: FaultPlan scheduling, the fault-aware run
// loop, tracing under faults, and the degradation sweep.

func faultNet(t *testing.T, d, D int) (*Network, *Network) {
	t.Helper()
	g := debruijn.DeBruijn(d, D)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	return nw, nw
}

func TestFaultPlanCompileErrors(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	cases := []*FaultPlan{
		NewFaultPlan().LinkDown(0, 0, -1, 0),
		NewFaultPlan().LinkDown(0, 0, 0, 2),
		NewFaultPlan().LinkDown(0, 0, g.N(), 0),
		NewFaultPlan().NodeDown(0, 0, -1),
		NewFaultPlan().NodeDown(0, 0, g.N()),
		NewFaultPlan().LinkDown(-1, 0, 0, 0),
		NewFaultPlan().LensDown(0, 0, 7, []Arc{{Tail: 0, Index: 9}}),
	}
	for i, plan := range cases {
		if _, err := plan.Compile(g); err == nil {
			t.Errorf("case %d: bad plan compiled", i)
		}
	}
	if _, err := (*FaultPlan)(nil).Compile(g); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestFaultStateSpans(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	// Node 1's out-arcs head to 2 and 3, untouched by a fault on node 6
	// (whose in-arcs come from 3 and 7).
	plan := NewFaultPlan().
		LinkDown(5, 10, 1, 0). // transient: down cycles [5, 15)
		LinkDown(20, 0, 1, 1). // permanent from 20
		NodeDown(2, 3, 6)
	st, err := plan.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	check := func(cycle int, wantA0, wantA1, wantNode bool, wantVersion int) {
		t.Helper()
		st.Advance(cycle)
		if got := st.ArcDown(1, 0); got != wantA0 {
			t.Errorf("cycle %d: ArcDown(1,0) = %v", cycle, got)
		}
		if got := st.ArcDown(1, 1); got != wantA1 {
			t.Errorf("cycle %d: ArcDown(1,1) = %v", cycle, got)
		}
		if got := st.NodeDown(6); got != wantNode {
			t.Errorf("cycle %d: NodeDown(6) = %v", cycle, got)
		}
		if got := st.PermanentVersion(); got != wantVersion {
			t.Errorf("cycle %d: PermanentVersion = %d, want %d", cycle, got, wantVersion)
		}
	}
	check(0, false, false, false, 0)
	check(4, false, false, true, 0)  // node fault spans [2, 5)
	check(5, true, false, false, 0)  // transient link starts
	check(14, true, false, false, 0) // last down cycle
	check(15, false, false, false, 0)
	check(20, false, true, false, 1) // permanent fault active
	check(1000, false, true, false, 1)
	// Only the permanent fault on (1#1) counts, not the transient (1#0).
	if got := st.permanentlyDown(); !reflect.DeepEqual(got, []Arc{{Tail: 1, Index: 1}}) {
		t.Errorf("permanently down %v, want [(1#1)]", got)
	}
	if (*FaultState)(nil).ArcDown(0, 0) || (*FaultState)(nil).NodeDown(0) {
		t.Error("nil state reports faults")
	}
	if !(*FaultState)(nil).Empty() {
		t.Error("nil state not empty")
	}
}

func TestRunWithFaultsMatchesFaultFree(t *testing.T) {
	// With a nil plan the fault engine is just a (departure-time-routed)
	// simulator: everything delivers with the same hop counts as a plain
	// run.
	nw, _ := faultNet(t, 2, 4)
	pkts := UniformRandom(16, 300, 7)
	base := runFixed(t, nw, pkts)
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != base.Delivered || res.Dropped != 0 || res.Stuck != 0 {
		t.Fatalf("fault-free engine run diverged: %v vs %v", res, base)
	}
	if res.Reroutes != 0 || res.Retries != 0 {
		t.Fatalf("fault-free run rerouted: %v", res)
	}
	if res.TotalHops != base.TotalHops {
		t.Errorf("hops diverged: %d vs %d", res.TotalHops, base.TotalHops)
	}
}

func TestPermanentLinkFaultRerouted(t *testing.T) {
	// B(3,3): λ = 2, so one dead link costs nothing but a detour.
	nw, _ := faultNet(t, 3, 3)
	plan := NewFaultPlan().LinkDown(0, 0, 5, 1)
	res, err := nw.RunOpts(Fixed(UniformRandom(27, 500, 80)), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || res.Delivered != 500 || res.Stuck != 0 {
		t.Fatalf("single link fault lost traffic: %v", res)
	}
	if res.MaxHops > 3+2 {
		t.Errorf("max hops %d after single link fault", res.MaxHops)
	}
	if res.Reroutes == 0 {
		t.Error("no reroutes recorded around a dead link on the primary table")
	}
}

func TestTransientFaultHealsAndRetries(t *testing.T) {
	// Down *all* out-arcs of node 5 for a while: packets waiting there
	// must back off, then proceed when the lens clears. λ-redundancy can't
	// help (every out-arc is dead), so this exercises the retry path.
	nw, _ := faultNet(t, 3, 3)
	g := debruijn.DeBruijn(3, 3)
	plan := NewFaultPlan()
	for k := 0; k < g.OutDegree(5); k++ {
		plan.LinkDown(0, 40, 5, k)
	}
	var pkts []Packet
	for i := 0; i < 20; i++ {
		pkts = append(pkts, Packet{ID: i, Src: 5, Dst: (i*7)%27 + (i % 2), Release: 0})
	}
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(pkts) || res.Dropped != 0 {
		t.Fatalf("transient blackout dropped traffic: %v", res)
	}
	if res.Retries == 0 {
		t.Error("no retries during a 40-cycle blackout of the source")
	}
	// Delivery must wait for the heal.
	if res.Cycles < 40 {
		t.Errorf("delivered by cycle %d during a blackout until 40", res.Cycles)
	}
}

func TestNodeFaultDropsInFlight(t *testing.T) {
	// A node that dies mid-run eats packets in flight to it; they are
	// dropped with accounting, not lost.
	nw, _ := faultNet(t, 3, 3)
	plan := NewFaultPlan().NodeDown(0, 0, 5)
	pkts := UniformRandom(27, 400, 9)
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped != len(pkts) || res.Stuck != 0 {
		t.Fatalf("packets unaccounted: %v", res)
	}
	if res.Dropped != res.DroppedFault+res.DroppedTTL+res.DroppedNoRoute {
		t.Fatalf("drop buckets don't sum: %v", res)
	}
	// Every packet not sourced at or destined to 5 must still deliver:
	// B(3,3) minus a vertex stays strongly connected (κ = 2).
	for _, p := range res.Packets {
		if p.Src != 5 && p.Dst != 5 && p.Delivered < 0 {
			t.Errorf("packet %d (%d→%d) avoided node 5 but was lost", p.ID, p.Src, p.Dst)
		}
	}
}

// cycleRouter forwards every packet to next[at], whatever its
// destination: along a cycle of next, a router that really loops.
type cycleRouter struct {
	g    *digraph.Digraph
	next map[int]int
}

func (r cycleRouter) NextArc(at, _ int) int {
	for k, v := range r.g.Out(at) {
		if v == r.next[at] {
			return k
		}
	}
	return -1
}

// TestTTLDropsLoopingPackets: a packet its router sends round the cycle
// 1→2→4→1 of B(2,3), never reaching its destination 7, is dropped by
// its TTL after exactly 4·diameter+8 = 20 hops.
func TestTTLDropsLoopingPackets(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	nw, err := NewNetwork(g, WithRouter(cycleRouter{g: g, next: map[int]int{1: 2, 2: 4, 4: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	pkts := []Packet{{ID: 0, Src: 1, Dst: 7}}
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(NewFaultPlan()), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedTTL != 1 || res.Delivered != 0 {
		t.Fatalf("looping run: %v", res)
	}
	hops := 0
	for _, e := range res.Events {
		if e.Kind == EventArrive {
			hops++
		}
	}
	if want := 4*g.Diameter() + 8; hops != want {
		t.Fatalf("looping packet made %d hops before its TTL drop, want %d", hops, want)
	}
}

func TestTotalBlackoutTerminatesCleanly(t *testing.T) {
	// 100% fault rate: every arc permanently dead from cycle 0. Every
	// packet must drop via the retry ladder — no deadlock, nothing stuck.
	g := debruijn.DeBruijn(2, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan()
	for u := 0; u < g.N(); u++ {
		for k := 0; k < g.OutDegree(u); k++ {
			plan.LinkDown(0, 0, u, k)
		}
	}
	pkts := UniformRandom(g.N(), 200, 11)
	moving := 0
	for _, p := range pkts {
		if p.Src != p.Dst {
			moving++
		}
	}
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stuck != 0 {
		t.Fatalf("blackout run left %d packets stuck", res.Stuck)
	}
	if res.DroppedNoRoute != moving {
		t.Fatalf("blackout dropped %d no-route, want %d: %v", res.DroppedNoRoute, moving, res)
	}
	if res.DeliveredFraction() > float64(len(pkts)-moving)/float64(len(pkts)) {
		t.Errorf("blackout delivered fraction %v", res.DeliveredFraction())
	}
	// The zero-delivered statistics must be rendered cleanly (no NaN).
	if s := res.String(); strings.Contains(s, "NaN") {
		t.Errorf("NaN in zero-delivery stats: %s", s)
	}
	if res.MeanLatency != 0 && moving == len(pkts) {
		t.Errorf("mean latency %v with nothing delivered", res.MeanLatency)
	}
}

func TestFaultRouterNeverForwardsOntoDownedArc(t *testing.T) {
	// Property: whatever the fault schedule and cycle, NextArc never
	// returns a downed arc (and only valid positions).
	g := debruijn.DeBruijn(3, 3)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		plan := NewFaultPlan()
		faults := 1 + rng.Intn(40)
		for f := 0; f < faults; f++ {
			u := rng.Intn(g.N())
			k := rng.Intn(g.OutDegree(u))
			start := rng.Intn(30)
			dur := rng.Intn(25) // 0: permanent
			switch rng.Intn(3) {
			case 0:
				plan.LinkDown(start, dur, u, k)
			case 1:
				plan.NodeDown(start, dur, u)
			case 2:
				plan.LensDown(start, dur, f, []Arc{{Tail: u, Index: k}})
			}
		}
		state, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		router := NewFaultAwareRouter(g, NewTableRouter(g), state)
		for cycle := 0; cycle < 60; cycle += 7 {
			state.Advance(cycle)
			for at := 0; at < g.N(); at++ {
				for dst := 0; dst < g.N(); dst++ {
					arc := router.NextArc(at, dst)
					if at == dst {
						if arc != -1 {
							t.Fatalf("NextArc(%d,%d) = %d at destination", at, dst, arc)
						}
						continue
					}
					if arc == -1 {
						continue
					}
					if arc < 0 || arc >= g.OutDegree(at) {
						t.Fatalf("NextArc(%d,%d) = %d out of range", at, dst, arc)
					}
					if state.ArcDown(at, arc) {
						t.Fatalf("trial %d cycle %d: NextArc(%d,%d) = %d is DOWN",
							trial, cycle, at, dst, arc)
					}
				}
			}
		}
	}
}

func TestTracedRunWithFaultsVerifies(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan().
		LinkDown(0, 0, 5, 1).  // permanent link
		NodeDown(3, 15, 20).   // transient node
		LinkDown(2, 6, 11, 0). // transient link
		NodeDown(0, 0, 7)      // permanent node
	pkts := UniformRandom(27, 300, 13)
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTrace(g, pkts, res.Events); err != nil {
		t.Fatalf("trace under faults rejected: %v", err)
	}
	if res.Delivered+res.Dropped+res.Stuck != len(pkts) {
		t.Fatalf("unaccounted packets: %v", res)
	}
	kinds := map[EventKind]int{}
	for _, e := range res.Events {
		kinds[e.Kind]++
	}
	if res.Reroutes > 0 && kinds[EventReroute] != res.Reroutes {
		t.Errorf("trace has %d reroute events, result says %d", kinds[EventReroute], res.Reroutes)
	}
	if res.Dropped > 0 && kinds[EventDrop] != res.Dropped {
		t.Errorf("trace has %d drop events, result says %d", kinds[EventDrop], res.Dropped)
	}
}

func TestVerifyTraceRejectsEventsAfterDrop(t *testing.T) {
	g := debruijn.DeBruijn(2, 2)
	pkts := []Packet{{ID: 0, Src: 0, Dst: 3}}
	events := []Event{
		{Cycle: 0, Kind: EventInject, Packet: 0, Node: 0, Peer: -1},
		{Cycle: 1, Kind: EventDrop, Packet: 0, Node: 0, Peer: -1},
		{Cycle: 2, Kind: EventDepart, Packet: 0, Node: 0, Peer: 1},
	}
	if err := VerifyTrace(g, pkts, events); err == nil {
		t.Error("movement after drop accepted")
	}
	// Drop at the wrong location.
	events = []Event{
		{Cycle: 0, Kind: EventInject, Packet: 0, Node: 0, Peer: -1},
		{Cycle: 1, Kind: EventDrop, Packet: 0, Node: 2, Peer: -1},
	}
	if err := VerifyTrace(g, pkts, events); err == nil {
		t.Error("drop away from the packet's position accepted")
	}
}

func TestDegradationSweep(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	rates := []float64{0, 0.05, 0.3, 1}
	points, err := DegradationSweep(g, NewTableRouter(g), rates, 300, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rates) {
		t.Fatalf("got %d points for %d rates", len(points), len(rates))
	}
	if points[0].DeliveredFraction != 1 {
		t.Errorf("fault-free point delivered %v, want 1", points[0].DeliveredFraction)
	}
	if points[0].Reroutes != 0 {
		t.Errorf("fault-free point rerouted %d times", points[0].Reroutes)
	}
	last := points[len(points)-1]
	if last.ArcsDown != g.M() {
		t.Errorf("rate-1 point downed %d arcs, want all %d", last.ArcsDown, g.M())
	}
	// Self-addressed packets still "deliver" at rate 1; everything that
	// must move is dropped.
	if last.Delivered+last.Dropped != last.Offered {
		t.Errorf("rate-1 point unaccounted: %+v", last)
	}
	if last.DeliveredFraction > 0.1 {
		t.Errorf("rate-1 point delivered fraction %v", last.DeliveredFraction)
	}
	for i, p := range points {
		if p.DeliveredFraction < 0 || p.DeliveredFraction > 1 {
			t.Errorf("point %d fraction %v out of [0,1]", i, p.DeliveredFraction)
		}
		if s := p.String(); strings.Contains(s, "NaN") {
			t.Errorf("point %d renders NaN: %s", i, s)
		}
	}
	// Determinism across worker counts.
	again, err := DegradationSweep(g, NewTableRouter(g), rates, 300, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i] != again[i] {
			t.Errorf("point %d differs across worker counts: %+v vs %+v", i, points[i], again[i])
		}
	}
}

func TestDegradationSweepErrors(t *testing.T) {
	g := debruijn.DeBruijn(2, 2)
	if _, err := DegradationSweep(g, NewTableRouter(g), []float64{0.5}, 0, 1, 1); err == nil {
		t.Error("zero packets accepted")
	}
	if _, err := DegradationSweep(g, NewTableRouter(g), []float64{-0.1}, 10, 1, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := DegradationSweep(g, NewTableRouter(g), []float64{1.5}, 10, 1, 1); err == nil {
		t.Error("rate > 1 accepted")
	}
}

func TestLensFaultPartialService(t *testing.T) {
	// A permanent lens-style fault killing all out-arcs of a node block.
	// The silenced nodes become sinks, so the correlated fault partitions
	// the pair space: pairs still connected in the residual digraph (the
	// serviceable pairs) must keep 100% delivery, the rest must drop with
	// accounting — never hang.
	g := debruijn.DeBruijn(3, 3)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	shadow := map[int]bool{3: true, 4: true, 5: true}
	var arcs []Arc
	residual := digraph.New(g.N())
	for u := 0; u < g.N(); u++ {
		if shadow[u] {
			for k := 0; k < g.OutDegree(u); k++ {
				arcs = append(arcs, Arc{Tail: u, Index: k})
			}
			continue
		}
		for _, v := range g.Out(u) {
			residual.AddArc(u, v)
		}
	}
	reach := make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		reach[u] = residual.BFSFrom(u)
	}

	plan := NewFaultPlan().LensDown(0, 0, 1, arcs)
	pkts := UniformRandom(27, 600, 21)
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stuck != 0 {
		t.Fatalf("lens fault left packets stuck: %v", res)
	}
	for _, p := range res.Packets {
		serviceable := reach[p.Src][p.Dst] != digraph.Unreachable
		if serviceable && p.Delivered < 0 {
			t.Errorf("serviceable packet %d (%d→%d) lost", p.ID, p.Src, p.Dst)
		}
		if !serviceable && p.Delivered >= 0 {
			t.Errorf("packet %d (%d→%d) delivered across a partition", p.ID, p.Src, p.Dst)
		}
	}
}
