package simnet

import (
	"fmt"

	"repro/internal/digraph"
)

// Overload protection: admission control at injection and the
// saturation instrumentation around it. Bounded queues
// (WithQueueCapacity, HealConfig.QueueCapacity) and credit-based
// backpressure live in the run loops; this file holds the source
// regulator that decides which offered packets enter the network at
// all, and the sweep that measures how a topology degrades as offered
// load crosses its saturation throughput.
//
// Accounting contract: a packet refused by admission is *shed*, never
// dropped — Shed is its own bucket so Delivered + Dropped + Shed ==
// Offered stays exact and drop causes keep their in-network meaning.

// AdmissionConfig tunes WithAdmission's token-bucket source regulator.
type AdmissionConfig struct {
	// Rate is the sustained admission rate in packets per cycle for the
	// whole network (> 0). Fractional rates are honoured exactly by
	// accumulating fractional tokens.
	Rate float64
	// Burst is the token-bucket depth — how many admissions may happen
	// in one cycle after an idle period (0: max(1, ⌈Rate⌉)).
	Burst int
	// MaxDelay is how many cycles past its release a packet may wait at
	// admission before it is shed (0: 4·diameter+16). Packets younger
	// than MaxDelay wait in head-of-line release order for tokens.
	MaxDelay int
}

// admitState is the run-time token bucket of one run. Refill pauses
// while the network signals congestion (a hold-in-place happened last
// cycle), so admission tightens exactly when bounded queues are full —
// the backpressure signal propagated all the way to the sources.
type admitState struct {
	rate     float64
	burst    float64
	maxDelay int
	tokens   float64
}

// newAdmitState builds the bucket, full, with defaults resolved against
// the digraph's diameter (negative when not strongly connected).
func newAdmitState(cfg AdmissionConfig, diameter int) *admitState {
	burst := float64(cfg.Burst)
	if cfg.Burst == 0 {
		burst = cfg.Rate
		if burst < 1 {
			burst = 1
		}
	}
	maxDelay := cfg.MaxDelay
	if maxDelay == 0 {
		if diameter >= 0 {
			maxDelay = 4*diameter + 16
		} else {
			maxDelay = 64
		}
	}
	return &admitState{rate: cfg.Rate, burst: burst, maxDelay: maxDelay, tokens: burst}
}

// refill adds one cycle's tokens unless the network is congested.
func (a *admitState) refill(congested bool) {
	if congested {
		return
	}
	a.tokens += a.rate
	if a.tokens > a.burst {
		a.tokens = a.burst
	}
}

// take consumes one admission token if a whole one is available.
func (a *admitState) take() bool {
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}

// SaturationRate returns the uniform-traffic saturation throughput of g
// in packets per cycle: M / meanDistance. Each delivered packet consumes
// meanDistance arc-cycles on average and the network supplies M
// arc-cycles per cycle (unit-bandwidth links), so offered loads beyond
// this rate cannot all be delivered no matter how packets are buffered.
// ok is false when g is not strongly connected.
func SaturationRate(g *digraph.Digraph) (float64, bool) {
	mean, ok := g.MeanDistance()
	if !ok || mean <= 0 {
		return 0, false
	}
	return float64(g.M()) / mean, true
}

// SaturationPoint is one load multiple of a saturation sweep.
type SaturationPoint struct {
	// Multiple is the offered load as a multiple of the saturation rate.
	Multiple float64
	// Rate is the offered load in packets per cycle.
	Rate float64
	// Offered, Delivered, Dropped and Shed account every packet:
	// Offered == Delivered + Dropped + Shed on a completed run.
	Offered, Delivered, Dropped, Shed int
	// DeliveredFraction is Delivered over Offered.
	DeliveredFraction float64
	// MeanLatency is the mean delivery latency in cycles.
	MeanLatency float64
	// MaxQueue is the deepest any queue got (≤ QueueCapacity when the
	// run was bounded).
	MaxQueue int
	// PeakResident is the most packets simultaneously buffered in the
	// network — flat across multiples when queues are bounded.
	PeakResident int
	// Holds counts hold-in-place backpressure events.
	Holds int
	// Cycles is the last delivery cycle.
	Cycles int
}

// String renders one sweep row.
func (p SaturationPoint) String() string {
	return fmt.Sprintf("%gx (%.1f pkt/cyc): delivered %.3f latency %.1f shed %d dropped %d maxQueue %d resident %d holds %d",
		p.Multiple, p.Rate, p.DeliveredFraction, p.MeanLatency, p.Shed, p.Dropped, p.MaxQueue, p.PeakResident, p.Holds)
}

// SaturationSweep offers fixed-rate uniform traffic (RatedLoad) at each
// multiple of the network's saturation rate and reports how delivery
// degrades. The options are applied to every point — typically
// WithQueueCapacity to bound memory and WithAdmission to shed at the
// sources; the same seed is used at every multiple so points differ
// only in release schedule density. The sweep passes WithSeed(seed)
// itself, so opts carrying a WithSeed fail as a duplicate.
func (nw *Network) SaturationSweep(multiples []float64, packets int, seed int64, opts ...RunOption) ([]SaturationPoint, error) {
	sat, ok := SaturationRate(nw.g)
	if !ok {
		return nil, fmt.Errorf("simnet: saturation sweep needs a strongly connected digraph")
	}
	points := make([]SaturationPoint, 0, len(multiples))
	for _, m := range multiples {
		if m <= 0 {
			return nil, fmt.Errorf("simnet: load multiple %v must be positive", m)
		}
		rate := m * sat
		runOpts := make([]RunOption, 0, len(opts)+1)
		runOpts = append(runOpts, opts...)
		runOpts = append(runOpts, WithSeed(seed))
		rep, err := nw.RunOpts(RatedLoad(packets, rate), runOpts...)
		if err != nil {
			return nil, err
		}
		r := rep.Result
		pt := SaturationPoint{
			Multiple:     m,
			Rate:         rate,
			Offered:      packets,
			Delivered:    r.Delivered,
			Dropped:      r.Dropped,
			Shed:         r.Shed,
			MeanLatency:  r.MeanLatency,
			MaxQueue:     r.MaxQueue,
			PeakResident: r.PeakResident,
			Holds:        r.Holds,
			Cycles:       r.Cycles,
		}
		if packets > 0 {
			pt.DeliveredFraction = float64(r.Delivered) / float64(packets)
		}
		points = append(points, pt)
	}
	return points, nil
}
