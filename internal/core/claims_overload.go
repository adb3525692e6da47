package core

import (
	"fmt"
	"reflect"

	"repro/internal/debruijn"
	"repro/internal/simnet"
)

// Overload claims: saturation is an explicit, measured regime. With
// bounded queues and credit-based backpressure the buffer footprint is
// a property of the topology, not of the offered load, and the
// accounting never loses a packet however hard the sources push.

func init() {
	register(Claim{
		ID: "X-OVERLOAD",
		Statement: "overload: at 1x/2x/4x saturation on B(3,5) with bounded queues, peak " +
			"residency stays under the topology bound, delivery degrades monotonically, " +
			"every run terminates with Delivered+Dropped+Shed == Offered, and same-seed " +
			"runs are byte-identical",
		Check: checkOverloadSaturation,
	})
}

// checkOverloadSaturation drives B(3,5) at multiples of its saturation
// rate under WithQueueCapacity and verifies every leg of the claim. The
// plain engine does not drain survivors when the cycle budget runs out,
// so exact accounting doubles as the no-deadlock proof: a stuck run
// could not reach Delivered + Dropped + Shed == Offered.
func checkOverloadSaturation() error {
	g := debruijn.DeBruijn(3, 5)
	nw, err := simnet.NewNetwork(g, simnet.WithRouter(simnet.NewTableRouter(g)))
	if err != nil {
		return err
	}
	const (
		qcap    = 2
		packets = 10000
		seed    = 11
	)
	multiples := []float64{1, 2, 4}
	points, err := nw.SaturationSweep(multiples, packets, seed, simnet.WithQueueCapacity(qcap))
	if err != nil {
		return err
	}
	bound := g.M() * (2*qcap + 1) // qcap queued + (qcap + hopLatency) in the link window, per arc
	for _, pt := range points {
		if pt.Delivered+pt.Dropped+pt.Shed != pt.Offered {
			return fmt.Errorf("%gx: accounting broken: %v", pt.Multiple, pt)
		}
		if pt.PeakResident > bound {
			return fmt.Errorf("%gx: peak residency %d exceeds topology bound %d",
				pt.Multiple, pt.PeakResident, bound)
		}
		if pt.MaxQueue > qcap {
			return fmt.Errorf("%gx: max queue %d exceeds capacity %d", pt.Multiple, pt.MaxQueue, qcap)
		}
	}
	for i := 1; i < len(points); i++ {
		if points[i].DeliveredFraction > points[i-1].DeliveredFraction {
			return fmt.Errorf("delivered fraction rose with load: %v then %v", points[i-1], points[i])
		}
	}
	again, err := nw.SaturationSweep(multiples, packets, seed, simnet.WithQueueCapacity(qcap))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(points, again) {
		return fmt.Errorf("same-seed sweeps diverged:\n%v\n%v", points, again)
	}
	return nil
}
