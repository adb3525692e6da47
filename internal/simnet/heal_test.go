package simnet

import (
	"fmt"
	"testing"

	"repro/internal/debruijn"
)

// The self-healing claim (CLAIM SELF-HEAL): for every single permanent
// arc fault of B(3, 3), a network with no FaultPlan visibility — nodes
// learn of the fault only by failed transmissions, spread what they
// learned by gossip, and route around what they have heard — converges,
// within bounded cycles, to the same residual delivery set as the
// omniscient FaultAwareRouter. B(3, 3) has λ = d − 1 = 2 arc-disjoint
// paths per pair, so every single-arc residual is strongly connected
// and the omniscient delivery set is all pairs; the self-healed network
// must reach the same.

func allPairsWorkload(n int) []Packet {
	var pkts []Packet
	id := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			pkts = append(pkts, Packet{ID: id, Src: s, Dst: d})
			id++
		}
	}
	return pkts
}

func TestSelfHealingMatchesOmniscientEverySingleArcFaultB33(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	n := g.N()
	base := NewTableRouter(g)
	pkts := allPairsWorkload(n)
	// Bound on convergence: detection needs traffic to reach the tail
	// and fail SuspectThreshold times, dissemination needs one flood
	// (≤ diameter rounds on the residual); 256 cycles is generous for a
	// 27-node diameter-3 digraph and fails loudly if healing stalls.
	const convergenceBound = 256

	for _, routing := range []RoutingMode{TableRouting, ShiftRouting} {
		for tail := 0; tail < n; tail++ {
			for k := 0; k < g.OutDegree(tail); k++ {
				name := fmt.Sprintf("%v: arc (%d#%d)", routing, tail, k)
				plan := NewFaultPlanFor(g).LinkDown(0, 0, tail, k)
				if err := plan.Err(); err != nil {
					t.Fatal(err)
				}
				nw, err := NewNetwork(g, WithRouting(routing))
				if err != nil {
					t.Fatal(err)
				}
				session, err := nw.SelfHeal(plan, HealConfig{})
				if err != nil {
					t.Fatal(err)
				}

				// Wave 1: all-pairs traffic discovers the fault the hard way.
				res1, err := session.Run(pkts)
				if err != nil {
					t.Fatalf("%s wave 1: %v", name, err)
				}
				if res1.Delivered+res1.Dropped != len(pkts) {
					t.Fatalf("%s wave 1: delivered %d + dropped %d != offered %d",
						name, res1.Delivered, res1.Dropped, len(pkts))
				}
				if !res1.Converged {
					t.Fatalf("%s: not converged after wave 1: %v", name, res1)
				}
				if res1.ConvergedCycle > convergenceBound {
					t.Fatalf("%s: converged at cycle %d > bound %d", name, res1.ConvergedCycle, convergenceBound)
				}
				loop := g.Out(tail)[k] == tail
				used := false
				for dst := 0; dst < n; dst++ {
					if base.NextArc(tail, dst) == k {
						used = true
						break
					}
				}
				if loop && res1.FinalEpoch != 0 {
					t.Fatalf("loop %s: committed %d events, want 0 (loops carry no traffic)", name, res1.FinalEpoch)
				}
				if used && !loop && (res1.FinalEpoch < 1 || res1.Detections < 1) {
					t.Fatalf("%s is on the base routing tree but was never detected: %v", name, res1)
				}

				// Wave 2: the converged network must deliver the
				// omniscient residual delivery set — all pairs, since
				// λ = 2 keeps every single-arc residual strongly
				// connected.
				res2, err := session.Run(pkts)
				if err != nil {
					t.Fatalf("%s wave 2: %v", name, err)
				}
				if res2.Dropped != 0 {
					t.Fatalf("%s wave 2: %d drops after convergence, want 0: %v", name, res2.Dropped, res2)
				}
				if res2.Nacks != 0 {
					t.Fatalf("%s wave 2: %d NACKs after convergence, want 0 (no node should attempt the dead arc)", name, res2.Nacks)
				}

				// The converged routing must be the omniscient one: at
				// every pair the final epoch decides as a from-scratch
				// table on the residual digraph.
				routesEqualScratch(t, g, session.BelievedDown(), func(u, dst int) int {
					return session.route(res2.FinalEpoch, u, dst, nil)
				})
			}
		}
	}
}

// TestSelfHealingOmniscientBaseline pins the comparison target: the
// omniscient fault-aware run on the same single-fault plans also
// delivers every pair, so the claim test above really is an equivalence
// and not two different failure modes.
func TestSelfHealingOmniscientBaseline(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	pkts := allPairsWorkload(g.N())
	for _, arc := range []Arc{{Tail: 1, Index: 0}, {Tail: 14, Index: 2}} {
		plan := NewFaultPlanFor(g).LinkDown(0, 0, arc.Tail, arc.Index)
		nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan))
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped != 0 {
			t.Fatalf("omniscient run dropped %d under single fault %v", res.Dropped, arc)
		}
	}
}

// TestSelfHealingTransientRecovery: a transient fault is detected,
// quarantined in belief, and then probed back to life — the session
// ends with an empty believed-down set and both a down and an up event
// committed.
func TestSelfHealingTransientRecovery(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	base := NewTableRouter(g)
	// Pick an arc the base routing actually uses so it gets detected.
	var fault Arc
found:
	for u := 0; u < g.N(); u++ {
		for k := 0; k < g.OutDegree(u); k++ {
			if g.Out(u)[k] == u {
				continue
			}
			for dst := 0; dst < g.N(); dst++ {
				if base.NextArc(u, dst) == k {
					fault = Arc{Tail: u, Index: k}
					break found
				}
			}
		}
	}
	plan := NewFaultPlanFor(g).LinkDown(0, 60, fault.Tail, fault.Index)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	session, err := nw.SelfHeal(plan, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Spread releases past the fault window so the session keeps running
	// after the arc heals and the recovery probe fires.
	var pkts []Packet
	id := 0
	for wave := 0; wave < 30; wave++ {
		for s := 0; s < g.N(); s += 5 {
			pkts = append(pkts, Packet{ID: id, Src: s, Dst: (s + 13) % g.N(), Release: wave * 4})
			id++
		}
	}
	res, err := session.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped != len(pkts) {
		t.Fatalf("delivered %d + dropped %d != offered %d", res.Delivered, res.Dropped, len(pkts))
	}
	if res.Detections < 1 {
		t.Fatalf("transient fault never detected: %v", res)
	}
	if res.EventsCommitted < 2 {
		t.Fatalf("expected a down and an up event, got %d: %v", res.EventsCommitted, res)
	}
	if res.Probes < 1 {
		t.Fatalf("no recovery probes sent: %v", res)
	}
	if got := session.BelievedDown(); len(got) != 0 {
		t.Fatalf("believed-down set %v after recovery, want empty", got)
	}
}

// TestSelfHealingTruncatedRunAccounting: the Delivered + Dropped ==
// Offered invariant survives a run cut short by MaxCycles.
func TestSelfHealingTruncatedRunAccounting(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	plan := NewFaultPlanFor(g).LinkDown(0, 0, 1, 0)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)), WithMaxCycles(3))
	if err != nil {
		t.Fatal(err)
	}
	session, err := nw.SelfHeal(plan, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pkts := allPairsWorkload(g.N())
	// Some releases beyond the horizon exercise the DroppedHorizon path.
	for i := range pkts {
		if i%3 == 0 {
			pkts[i].Release = 50
		}
	}
	res, err := session.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped != len(pkts) {
		t.Fatalf("delivered %d + dropped %d != offered %d (%v)", res.Delivered, res.Dropped, len(pkts), res)
	}
	if res.Stuck == 0 && res.DroppedHorizon == 0 {
		t.Fatalf("truncated run produced no stuck/horizon drops: %v", res)
	}
}

// quarMonitor is a scripted HealMonitor: it quarantines one arc at a
// given cycle and records every ArcOK for it afterwards.
type quarMonitor struct {
	arc     Arc
	at      int
	applied bool
	okAfter int
}

func (m *quarMonitor) ArcFailed(cycle int, arc Arc) {}
func (m *quarMonitor) ArcOK(cycle int, arc Arc) {
	if m.applied && arc == m.arc {
		m.okAfter++
	}
}
func (m *quarMonitor) Tick(cycle int) (quarantine, release, probe []Arc) {
	if !m.applied && cycle >= m.at {
		m.applied = true
		return []Arc{m.arc}, nil, nil
	}
	return nil, nil, nil
}
func (m *quarMonitor) ProbeResult(cycle int, arc Arc, ok bool) {}

// TestSelfHealingQuarantineStopsTraffic: once the monitor quarantines
// an arc, the engine never transmits on it again (no ArcOK callbacks),
// yet traffic still delivers by deflection.
func TestSelfHealingQuarantineStopsTraffic(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	base := NewTableRouter(g)
	var target Arc
	for dst := 0; dst < g.N(); dst++ {
		if k := base.NextArc(2, dst); k >= 0 && g.Out(2)[k] != 2 {
			target = Arc{Tail: 2, Index: k}
			break
		}
	}
	mon := &quarMonitor{arc: target, at: 0}
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	session, err := nw.SelfHeal(nil, HealConfig{Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(allPairsWorkload(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if mon.okAfter != 0 {
		t.Fatalf("%d transmissions on a quarantined arc", mon.okAfter)
	}
	if res.Dropped != 0 {
		t.Fatalf("quarantine of one arc dropped %d packets (deflection should cover)", res.Dropped)
	}
	if got := session.Quarantined(); len(got) != 1 || got[0] != target {
		t.Fatalf("Quarantined() = %v, want [%v]", got, target)
	}
}
