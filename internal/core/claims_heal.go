package core

import (
	"fmt"

	"repro/internal/debruijn"
	"repro/internal/machine"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// Self-healing claims: the fault tolerance of X-FAULT re-earned without
// the oracle — the routing layer never reads the fault plan, it detects
// failures by NACK timeout, floods link-state events and patches its
// slabs incrementally.

func init() {
	register(Claim{
		ID: "X-HEAL",
		Statement: "self-healing: single-arc faults converge to loss-free routing with " +
			"no fault oracle, and the lens circuit breaker closes after recovery",
		Check: func() error {
			if err := checkSelfHealSingleArc(); err != nil {
				return err
			}
			return checkLensBreakerHysteresis()
		},
	})
}

// checkSelfHealSingleArc: for sampled single-arc faults of B(3,3) the
// self-healing session must converge during a first all-pairs wave and
// then serve a second wave with zero loss and zero NACKs — the
// steady-state the omniscient router reaches instantly, reached here by
// detection, gossip and route repair alone.
func checkSelfHealSingleArc() error {
	g := debruijn.DeBruijn(3, 3)
	n := g.N()
	wave := func(release int) []simnet.Packet {
		var pkts []simnet.Packet
		id := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				pkts = append(pkts, simnet.Packet{ID: id, Src: s, Dst: d, Release: release})
				id++
			}
		}
		return pkts
	}
	for u := 0; u < n; u += 3 {
		for k := 0; k < g.OutDegree(u); k++ {
			nw, err := simnet.NewNetwork(g, simnet.WithRouter(simnet.NewTableRouter(g)))
			if err != nil {
				return err
			}
			plan := simnet.NewFaultPlanFor(g).LinkDown(0, 0, u, k)
			if err := plan.Err(); err != nil {
				return err
			}
			session, err := nw.SelfHeal(plan, simnet.HealConfig{})
			if err != nil {
				return err
			}
			first, err := session.Run(wave(0))
			if err != nil {
				return err
			}
			if !first.Converged {
				return fmt.Errorf("arc (%d#%d): not converged after wave 1: %v", u, k, first)
			}
			second, err := session.Run(wave(0))
			if err != nil {
				return err
			}
			if second.Dropped != 0 || second.Nacks != 0 {
				return fmt.Errorf("arc (%d#%d): steady state dropped %d, nacks %d",
					u, k, second.Dropped, second.Nacks)
			}
		}
	}
	return nil
}

// checkLensBreakerHysteresis: a transiently dirty lens on the B(3,4)
// machine must trip its breaker, survive quarantine with zero drops,
// and close again via a half-open probe once the optics recover.
func checkLensBreakerHysteresis() error {
	m, err := machine.Build(3, 4, optics.DefaultPitch)
	if err != nil {
		return err
	}
	const lens = 1
	plan, err := m.LensFaultPlan(0, 120, lens)
	if err != nil {
		return err
	}
	breaker, err := machine.NewLensBreaker(m,
		machine.BreakerConfig{Threshold: 3, Window: 32, HoldBase: 48, HoldCap: 512}, nil)
	if err != nil {
		return err
	}
	session, err := m.SelfHeal(plan, simnet.HealConfig{Monitor: breaker})
	if err != nil {
		return err
	}
	var pkts []simnet.Packet
	id := 0
	for w := 0; w < 40; w++ {
		for s := 0; s < m.Nodes(); s += 5 {
			for d := 0; d < m.Nodes(); d += 5 {
				if s == d {
					continue
				}
				pkts = append(pkts, simnet.Packet{ID: id, Src: s, Dst: d, Release: w * 8})
				id++
			}
		}
	}
	res, err := session.Run(pkts)
	if err != nil {
		return err
	}
	if res.Dropped != 0 {
		return fmt.Errorf("lens quarantine dropped %d packets: %v", res.Dropped, res)
	}
	tripped, closed := false, false
	for _, tr := range breaker.Transitions() {
		if tr.Lens != lens {
			return fmt.Errorf("innocent lens %d transitioned: %+v", tr.Lens, tr)
		}
		if tr.To == machine.BreakerOpen {
			tripped = true
		}
		if tr.From == machine.BreakerHalfOpen && tr.To == machine.BreakerClosed {
			closed = true
		}
	}
	if !tripped || !closed {
		return fmt.Errorf("hysteresis incomplete (tripped=%v closed=%v): %+v",
			tripped, closed, breaker.Transitions())
	}
	if got := breaker.States()[lens].State; got != machine.BreakerClosed {
		return fmt.Errorf("lens %d breaker ends %v, want closed", lens, got)
	}
	return nil
}
