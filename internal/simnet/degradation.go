package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/digraph"
)

// Degradation characterization: the fault-rate twin of LoadSweep. Each
// point downs every arc independently with probability FaultRate
// (permanently, from cycle 0), runs a uniform workload through the
// fault-aware engine, and records what survives. On a (d-1)-connected
// de Bruijn machine the delivered fraction decays gracefully — there is
// no fault-rate cliff — and even the 100% point terminates cleanly with
// every packet dropped and accounted, never deadlocked.

// DegradationPoint is one fault-rate measurement.
type DegradationPoint struct {
	// FaultRate is the per-arc permanent failure probability.
	FaultRate float64
	// ArcsDown is the realized number of failed arcs.
	ArcsDown int
	// Offered, Delivered and Dropped count packet outcomes.
	Offered, Delivered, Dropped int
	// DeliveredFraction is Delivered/Offered (0 when nothing offered).
	DeliveredFraction float64
	// MeanLatency and MaxHops describe the delivered packets.
	MeanLatency float64
	MaxHops     int
	// Reroutes and Retries count the fault-path events of the run.
	Reroutes, Retries int
}

// String renders one sweep row; safe when nothing was delivered.
func (p DegradationPoint) String() string {
	return fmt.Sprintf("fault %.3f (%d arcs): delivered %d/%d (%.1f%%), latency %.2f, maxHops %d, reroutes %d, retries %d",
		p.FaultRate, p.ArcsDown, p.Delivered, p.Offered, 100*p.DeliveredFraction,
		p.MeanLatency, p.MaxHops, p.Reroutes, p.Retries)
}

// DegradationSweep measures the delivered fraction, latency and reroute
// counts of a uniform workload as the per-arc fault rate rises; see the
// Network method of the same name for the semantics. This free function
// builds the Network (NewNetwork with WithRouter) and delegates.
func DegradationSweep(g *digraph.Digraph, router Router, rates []float64, packets int, seed int64, workers int) ([]DegradationPoint, error) {
	nw, err := NewNetwork(g, WithRouter(router))
	if err != nil {
		return nil, err
	}
	return nw.DegradationSweep(rates, packets, seed, workers)
}

// DegradationSweep runs the fault-rate sweep on this network. Rates must
// lie in [0, 1]; packets per point and the rng seed are fixed so the
// sweep is deterministic. Points are independent, so they are run by a
// pool of up to workers goroutines (workers <= 0 selects GOMAXPROCS)
// sharing this network's compiled router and arena pool (each point's
// fault-aware router owns its distance source, so workers share nothing
// mutable); results are ordered like rates regardless of scheduling.
//
// Every point offers the SAME workload — UniformRandom(n, packets, seed),
// unmixed with the point index — while the fault sample is drawn from
// (seed, pointIndex). This is intentional: holding the workload fixed
// makes the sweep a paired comparison, so the delivered fraction varies
// only with the fault draw, not with workload resampling noise. Mix the
// point index into the seed yourself if independent workloads are wanted.
func (nw *Network) DegradationSweep(rates []float64, packets int, seed int64, workers int) ([]DegradationPoint, error) {
	if packets < 1 {
		return nil, fmt.Errorf("simnet: DegradationSweep needs >= 1 packet, got %d", packets)
	}
	for _, rate := range rates {
		if rate < 0 || rate > 1 {
			return nil, fmt.Errorf("simnet: fault rate %v out of [0, 1]", rate)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rates) {
		workers = len(rates)
	}
	points := make([]DegradationPoint, len(rates))
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(rates) {
					return
				}
				pt, err := nw.degradationPoint(rates[idx], packets, seed, int64(idx))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				points[idx] = pt
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return nil, err
	}
	return points, nil
}

// degradationPoint runs one fault rate. The fault sample is drawn from
// (seed, pointIndex) so each point is reproducible independently of the
// worker that ran it; the workload is shared across points (paired
// comparison, see DegradationSweep).
func (nw *Network) degradationPoint(rate float64, packets int, seed, point int64) (DegradationPoint, error) {
	g := nw.g
	rng := rand.New(rand.NewSource(seed*1000003 + point))
	plan := NewFaultPlan()
	down := 0
	for u := 0; u < g.N(); u++ {
		for k := 0; k < g.OutDegree(u); k++ {
			if rng.Float64() < rate {
				plan.LinkDown(0, 0, u, k)
				down++
			}
		}
	}
	res, err := nw.RunOpts(UniformLoad(packets), WithSeed(seed), WithFaults(plan))
	if err != nil {
		return DegradationPoint{}, err
	}
	pt := DegradationPoint{
		FaultRate:         rate,
		ArcsDown:          down,
		Offered:           packets,
		Delivered:         res.Delivered,
		Dropped:           res.Dropped,
		DeliveredFraction: float64(res.Delivered) / float64(packets),
		MaxHops:           res.MaxHops,
		Reroutes:          res.Reroutes,
		Retries:           res.Retries,
	}
	if res.Delivered > 0 {
		pt.MeanLatency = res.MeanLatency
	}
	return pt, nil
}
