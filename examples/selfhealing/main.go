// Selfhealing: the machine repairs itself without ever reading the
// fault plan. The faulttolerance example routes around failures with an
// omniscient router — it is told which arcs are down. Here the oracle
// is removed: nodes learn of a dead out-arc only because transmissions
// onto it time out, spread the news by flooding a link-state event over
// whatever arcs still work, and route around what they have heard,
// epoch by epoch. The example sweeps every single-arc fault of B(3,3) and
// measures convergence, then demonstrates the optical failure mode on
// the assembled B(3,4) machine: a transiently dirty lens trips a
// per-lens circuit breaker, which quarantines the lens's whole arc
// group, probes it half-open on an exponential-backoff schedule, and
// closes again once the optics recover.
package main

import (
	"fmt"
	"log"

	"repro"
)

// allPairs offers one packet per ordered (src, dst) pair per wave.
func allPairs(n, waves, gap int) []repro.Packet {
	var pkts []repro.Packet
	id := 0
	for w := 0; w < waves; w++ {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				pkts = append(pkts, repro.Packet{ID: id, Src: s, Dst: d, Release: w * gap})
				id++
			}
		}
	}
	return pkts
}

// sparseWaves offers a strided subset of pairs in many spaced waves —
// a long-lived background load that keeps a session's clock advancing
// so probes and breaker holds come due.
func sparseWaves(n, waves, stride, gap int) []repro.Packet {
	var pkts []repro.Packet
	id := 0
	for w := 0; w < waves; w++ {
		for s := 0; s < n; s += stride {
			for d := 0; d < n; d += stride {
				if s == d {
					continue
				}
				pkts = append(pkts, repro.Packet{ID: id, Src: s, Dst: d, Release: w * gap})
				id++
			}
		}
	}
	return pkts
}

func main() {
	// Part 1 — every single-arc fault of B(3,3) self-heals. λ(B(3,3)) =
	// 2, so each residual digraph is still strongly connected: the
	// omniscient router delivers every pair, and the self-healing
	// network must end up doing the same with knowledge it earned.
	g := repro.DeBruijn(3, 3)
	n := g.N()
	fmt.Printf("B(3,3): %d nodes, %d arcs — sweeping every single-arc fault\n", n, g.M())
	worstConverge, healedArcs := 0, 0
	for u := 0; u < n; u++ {
		for k := range g.Out(u) {
			nw, err := repro.NewNetwork(g, repro.WithRouter(repro.NewTableRouter(g)))
			if err != nil {
				log.Fatal(err)
			}
			plan := repro.NewFaultPlanFor(g)
			plan.LinkDown(0, 0, u, k)
			if err := plan.Err(); err != nil {
				log.Fatal(err)
			}
			session, err := nw.SelfHeal(plan, repro.HealConfig{})
			if err != nil {
				log.Fatal(err)
			}
			// Wave 1 takes the NACKs and spreads the news; wave 2 runs
			// on the repaired routes and must be loss- and NACK-free.
			if _, err := session.Run(allPairs(n, 2, 16)); err != nil {
				log.Fatal(err)
			}
			res, err := session.Run(allPairs(n, 1, 1))
			if err != nil {
				log.Fatal(err)
			}
			if res.Dropped != 0 || res.Nacks != 0 {
				log.Fatalf("arc (%d#%d): wave 2 dropped %d, nacks %d", u, k, res.Dropped, res.Nacks)
			}
			if res.FinalEpoch > 0 {
				healedArcs++
				if !res.Converged {
					log.Fatalf("arc (%d#%d): not converged", u, k)
				}
				if res.ConvergedCycle > worstConverge {
					worstConverge = res.ConvergedCycle
				}
			}
		}
	}
	fmt.Printf("  all faults healed: wave-2 delivery 100%%, zero NACKs\n")
	fmt.Printf("  %d faults needed an event (the rest hit loops or unused arcs); worst convergence: cycle %d\n\n",
		healedArcs, worstConverge)

	// Part 2 — the optical failure mode, detected and quarantined. On
	// the assembled B(3,4) machine one lens carries a whole arc group;
	// a dirty lens produces a burst of correlated NACKs. The circuit
	// breaker charges each failure to the lens that carried the beam,
	// trips past a threshold, quarantines the group, and probes it
	// half-open with exponentially backed-off holds until the optics
	// come back.
	m, err := repro.BuildMachine(3, 4, repro.DefaultPitch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %v\n", m.Layout)
	const lens = 1
	const healsAt = 120
	plan, err := m.LensFaultPlan(0, healsAt, lens) // dirty from cycle 0, clears at 120
	if err != nil {
		log.Fatal(err)
	}
	breaker, err := repro.NewLensBreaker(m, repro.LensBreakerConfig{
		Threshold: 3, Window: 32, HoldBase: 48, HoldCap: 512,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	session, err := m.SelfHeal(plan, repro.HealConfig{Monitor: breaker})
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.Run(sparseWaves(m.Nodes(), 40, 5, 8))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault: lens %d dirty for %d cycles; breaker threshold 3 in window 32, hold 48·2^k\n",
		lens, healsAt)
	fmt.Printf("run: %v\n", res)
	fmt.Println("breaker transitions:")
	for _, tr := range breaker.Transitions() {
		fmt.Printf("  cycle %4d  lens %d  %-9v -> %v\n", tr.Cycle, tr.Lens, tr.From, tr.To)
	}
	st := breaker.States()[lens]
	fmt.Printf("end state: lens %d %v (trips reset to %d); quarantined arcs: %d\n",
		lens, st.State, st.Trips, len(session.Quarantined()))
}
