package machine

import (
	"fmt"

	"repro/internal/simnet"
)

// Runtime faults on the assembled machine. The machine knows what simnet
// cannot: which arcs share a lens. A lens fault — the physically likely
// correlated failure of a free-space optical interconnect — is expanded
// here from a lens number into its arc group via the OTIS layout, and
// handed to the simnet fault engine as one scheduled event.

// LensFaultPlan returns a fault plan downing the given lenses at cycle
// start for duration cycles (duration <= 0: permanent). Lenses are
// numbered 0..P-1 on the transmitter side, P..P+Q-1 on the receiver side
// (Lenses() in total).
func (m *Machine) LensFaultPlan(start, duration int, lenses ...int) (*simnet.FaultPlan, error) {
	plan := simnet.NewFaultPlan()
	for _, lens := range lenses {
		arcs, err := m.Layout.LensArcs(lens)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		group := make([]simnet.Arc, len(arcs))
		for i, a := range arcs {
			group[i] = simnet.Arc{Tail: a[0], Index: a[1]}
		}
		plan.LensDown(start, duration, lens, group)
	}
	return plan, nil
}

// LensShadow returns the physical nodes fully silenced by a fault of the
// given lens: senders (every out-arc dead) for a transmitter-side lens,
// receivers (every in-arc dead) for a receiver-side lens.
func (m *Machine) LensShadow(lens int) (silencedOut, silencedIn []int, err error) {
	return m.Layout.LensShadow(lens)
}

// DegradationSweep measures delivered fraction, latency and reroutes on
// the physical interconnect as the per-arc fault rate rises; see
// simnet.DegradationSweep.
func (m *Machine) DegradationSweep(rates []float64, packets int, seed int64, workers int) ([]simnet.DegradationPoint, error) {
	return m.net.DegradationSweep(rates, packets, seed, workers)
}
