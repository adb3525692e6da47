package core

import (
	"fmt"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/machine"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// Runtime robustness claims: the (d-1)-arc-connectivity the paper's
// digraphs promise, exercised as live behaviour — faults injected into a
// running machine, not surgery on a rebuilt graph.

func init() {
	register(Claim{
		ID: "X-FAULT",
		Statement: "runtime faults: single-arc full service, lens faults serve " +
			"every residual-reachable pair, degradation is graceful, blackout is deadlock-free",
		Check: func() error {
			if err := checkSingleArcFaults(); err != nil {
				return err
			}
			if err := checkLensFaults(); err != nil {
				return err
			}
			return checkDegradation()
		},
	})
}

// checkSingleArcFaults: B(3,3) has λ = d-1 = 2, so any single arc fault
// leaves every pair connected; the fault-aware router must deliver 100%
// with bounded stretch for every possible victim arc.
func checkSingleArcFaults() error {
	g := debruijn.DeBruijn(3, 3)
	nw, err := simnet.NewNetwork(g, simnet.WithRouter(simnet.NewTableRouter(g)))
	if err != nil {
		return err
	}
	pkts := simnet.UniformRandom(g.N(), 300, 7001)
	for u := 0; u < g.N(); u += 3 {
		for k := 0; k < g.OutDegree(u); k++ {
			plan := simnet.NewFaultPlan().LinkDown(0, 0, u, k)
			res, err := nw.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan))
			if err != nil {
				return err
			}
			if res.Delivered != len(pkts) || res.Dropped != 0 || res.Stuck != 0 {
				return fmt.Errorf("arc (%d#%d) fault lost traffic: %v", u, k, res)
			}
			if res.MaxHops > 3+2 {
				return fmt.Errorf("arc (%d#%d) fault stretched paths to %d hops", u, k, res.MaxHops)
			}
		}
	}
	return nil
}

// checkLensFaults: on the B(3,4) machine (OTIS(9,27), 36 lenses), each
// single lens fault silences a block of nodes — full delivery of an
// arbitrary workload is physically impossible, so the sharp statement is
// conditional: every pair still connected in the residual interconnect
// is served 100%, every other packet is dropped with accounting, and the
// run never deadlocks. Checked exhaustively over all 36 lenses.
func checkLensFaults() error {
	m, err := machine.Build(3, 4, optics.DefaultPitch)
	if err != nil {
		return err
	}
	g := m.Physical
	pkts := simnet.UniformRandom(m.Nodes(), 400, 7002)
	for lens := 0; lens < m.Lenses(); lens++ {
		arcs, err := m.Layout.LensArcs(lens)
		if err != nil {
			return err
		}
		dead := make(map[[2]int]bool, len(arcs))
		for _, a := range arcs {
			dead[a] = true
		}
		residual := digraph.New(g.N())
		for u := 0; u < g.N(); u++ {
			for k, v := range g.Out(u) {
				if !dead[[2]int{u, k}] {
					residual.AddArc(u, v)
				}
			}
		}
		plan, err := m.LensFaultPlan(0, 0, lens)
		if err != nil {
			return err
		}
		res, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan))
		if err != nil {
			return err
		}
		if res.Stuck != 0 {
			return fmt.Errorf("lens %d fault left %d packets stuck", lens, res.Stuck)
		}
		reach := make(map[int][]int)
		for _, p := range res.Packets {
			dist, ok := reach[p.Src]
			if !ok {
				dist = residual.BFSFrom(p.Src)
				reach[p.Src] = dist
			}
			serviceable := dist[p.Dst] != digraph.Unreachable
			if serviceable && p.Delivered < 0 {
				return fmt.Errorf("lens %d fault lost serviceable packet %d→%d", lens, p.Src, p.Dst)
			}
			if !serviceable && p.Delivered >= 0 {
				return fmt.Errorf("lens %d fault delivered %d→%d across a partition", lens, p.Src, p.Dst)
			}
		}
	}
	return nil
}

// checkDegradation: delivered fraction starts at 1, ends at ~0, and
// decreases (within sampling slack) as the fault rate rises; the 100%
// point terminates with nothing stuck.
func checkDegradation() error {
	g := debruijn.DeBruijn(3, 3)
	rates := []float64{0, 0.02, 0.1, 0.3, 0.6, 1}
	points, err := simnet.DegradationSweep(g, simnet.NewTableRouter(g), rates, 400, 7003, 0)
	if err != nil {
		return err
	}
	if points[0].DeliveredFraction != 1 {
		return fmt.Errorf("fault-free sweep point delivered %v", points[0].DeliveredFraction)
	}
	last := points[len(points)-1]
	if last.DeliveredFraction > 0.05 {
		return fmt.Errorf("total-blackout point delivered %v", last.DeliveredFraction)
	}
	const slack = 0.1 // sampling noise between adjacent rates
	for i := 1; i < len(points); i++ {
		if points[i].DeliveredFraction > points[i-1].DeliveredFraction+slack {
			return fmt.Errorf("degradation not monotone: %v then %v",
				points[i-1], points[i])
		}
	}
	for _, p := range points {
		if p.Delivered+p.Dropped != p.Offered {
			return fmt.Errorf("sweep point leaks packets: %v", p)
		}
	}
	return nil
}
