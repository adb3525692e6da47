package machine

import (
	"testing"

	"repro/internal/digraph"
	"repro/internal/optics"
	"repro/internal/simnet"
)

func buildB34(t *testing.T) *Machine {
	t.Helper()
	m, err := Build(3, 4, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLensFaultPlanExpansion(t *testing.T) {
	m := buildB34(t)
	plan, err := m.LensFaultPlan(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	faults := plan.Faults()
	if len(faults) != 1 || faults[0].Kind != simnet.FaultLens {
		t.Fatalf("plan = %v", faults)
	}
	if len(faults[0].Arcs) != m.Layout.Q() {
		t.Errorf("transmitter lens group has %d arcs, want %d", len(faults[0].Arcs), m.Layout.Q())
	}
	plan, err = m.LensFaultPlan(0, 0, m.Layout.P())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Faults()[0].Arcs); got != m.Layout.P() {
		t.Errorf("receiver lens group has %d arcs, want %d", got, m.Layout.P())
	}
	if _, err := m.LensFaultPlan(0, 0, m.Lenses()); err == nil {
		t.Error("out-of-range lens accepted")
	}
	if _, err := m.LensFaultPlan(0, 0, -1); err == nil {
		t.Error("negative lens accepted")
	}
}

func TestLensShadowMachine(t *testing.T) {
	m := buildB34(t)
	out, in, err := m.LensShadow(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != m.Layout.Q()/m.Degree || len(in) != 0 {
		t.Errorf("transmitter lens shadow: out=%v in=%v", out, in)
	}
	out, in, err = m.LensShadow(m.Layout.P())
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != m.Layout.P()/m.Degree || len(out) != 0 {
		t.Errorf("receiver lens shadow: out=%v in=%v", out, in)
	}
}

// lensResidualReach returns reach[u][v] distances of the physical digraph
// minus the lens's arc group.
func lensResidualReach(t *testing.T, m *Machine, lens int) [][]int {
	t.Helper()
	arcs, err := m.Layout.LensArcs(lens)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[[2]int]bool{}
	for _, a := range arcs {
		dead[a] = true
	}
	g := m.Physical
	residual := digraph.New(g.N())
	for u := 0; u < g.N(); u++ {
		for k, v := range g.Out(u) {
			if !dead[[2]int{u, k}] {
				residual.AddArc(u, v)
			}
		}
	}
	reach := make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		reach[u] = residual.BFSFrom(u)
	}
	return reach
}

func TestSingleLensFaultServiceability(t *testing.T) {
	// One lens dies permanently at cycle 0. Every pair still connected in
	// the residual interconnect (the serviceable pairs) keeps 100%
	// delivery; the rest drop with explicit accounting. Exercised on one
	// transmitter-side and one receiver-side lens; claim X-FAULT sweeps
	// all 36.
	m := buildB34(t)
	for _, lens := range []int{2, m.Layout.P() + 5} {
		reach := lensResidualReach(t, m, lens)
		plan, err := m.LensFaultPlan(0, 0, lens)
		if err != nil {
			t.Fatal(err)
		}
		pkts := simnet.UniformRandom(m.Nodes(), 2000, 37)
		res, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stuck != 0 {
			t.Fatalf("lens %d: %d packets stuck", lens, res.Stuck)
		}
		for _, p := range res.Packets {
			serviceable := reach[p.Src][p.Dst] != digraph.Unreachable
			if serviceable && p.Delivered < 0 {
				t.Errorf("lens %d: serviceable packet %d (%d→%d) lost", lens, p.ID, p.Src, p.Dst)
			}
			if !serviceable && p.Delivered >= 0 {
				t.Errorf("lens %d: packet %d (%d→%d) delivered across a partition", lens, p.ID, p.Src, p.Dst)
			}
		}
	}
}

func TestTransientLensFaultHeals(t *testing.T) {
	// A lens knocked out for 50 cycles (dirt, vibration) loses nothing:
	// blocked packets back off and go when the optics clear.
	m := buildB34(t)
	plan, err := m.LensFaultPlan(0, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkts := simnet.UniformRandom(m.Nodes(), 1000, 5)
	res, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(pkts) || res.Dropped != 0 || res.Stuck != 0 {
		t.Fatalf("transient lens fault lost traffic: %v", res)
	}
}

func TestMachineDegradationSweep(t *testing.T) {
	m := buildB34(t)
	points, err := m.DegradationSweep([]float64{0, 1}, 200, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].DeliveredFraction != 1 {
		t.Errorf("fault-free point: %v", points[0])
	}
	if points[1].DeliveredFraction > 0.1 {
		t.Errorf("blackout point: %v", points[1])
	}
}
