package simnet

import (
	"fmt"

	"repro/internal/digraph"
)

// Load–latency characterization: the classical throughput experiment run
// on the networks the paper lays out. Uniform Poisson traffic is offered
// at increasing rates; mean latency rises from the zero-load value (mean
// distance × hop latency) and diverges at the saturation throughput.

// SweepPoint is one offered-load measurement.
type SweepPoint struct {
	// Rate is the offered load in packets per cycle per network.
	Rate float64
	// MeanLatency is the mean delivery latency in cycles.
	MeanLatency float64
	// MeanWait is the mean queueing delay (latency minus wire time).
	MeanWait float64
	// Delivered and Dropped count packet outcomes.
	Delivered, Dropped int
	// Saturated reports that the run hit its cycle budget before
	// delivering everything — the offered load exceeds capacity.
	Saturated bool
}

// String renders one sweep row.
func (p SweepPoint) String() string {
	sat := ""
	if p.Saturated {
		sat = "  SATURATED"
	}
	return fmt.Sprintf("rate %.3f: latency %.2f (wait %.2f), delivered %d%s",
		p.Rate, p.MeanLatency, p.MeanWait, p.Delivered, sat)
}

// LoadSweep offers `packets` Poisson-arrival packets at each rate and
// measures latency. The cycle budget is generous but finite so saturated
// runs terminate and are flagged. All points run on one Network, so the
// compiled router and the scratch arena are built once and reused.
func LoadSweep(g *digraph.Digraph, router Router, rates []float64, packets int, seed int64) ([]SweepPoint, error) {
	nw, err := NewNetwork(g, WithRouter(router))
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, 0, len(rates))
	for _, rate := range rates {
		if rate <= 0 || rate > 1 {
			return nil, fmt.Errorf("simnet: rate %v out of (0, 1]", rate)
		}
		// Budget: the ideal drain time plus ample slack; saturated loads
		// blow through it and get flagged rather than running forever.
		budget := int(float64(packets)/rate)*4 + 64*g.N()
		res, _ := nw.run(PoissonArrivals(g.N(), packets, rate, seed), runTuning{budget: budget}, nil)
		pt := SweepPoint{
			Rate:      rate,
			Delivered: res.Delivered,
			Dropped:   res.Dropped,
			Saturated: res.Delivered+res.Dropped+res.Shed < packets,
		}
		if res.Delivered > 0 {
			pt.MeanLatency = res.MeanLatency
			pt.MeanWait = float64(res.TotalWait) / float64(res.Delivered)
		}
		points = append(points, pt)
	}
	return points, nil
}

// ZeroLoadLatency returns the analytic zero-load latency: mean distance ×
// hop latency. ok is false when the digraph is not strongly connected.
func ZeroLoadLatency(g *digraph.Digraph, hopLatency int) (float64, bool) {
	mean, ok := g.MeanDistance()
	if !ok {
		return 0, false
	}
	return mean * float64(hopLatency), true
}
