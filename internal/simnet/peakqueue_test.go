package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

// TestPeakQueueSurfacesAgree closes the peak-queue audit (the suspected
// push/pop double count in runState.enqueue): depth recording happens
// exactly once per accepted push — the depth *after* the push, never on
// the pop side — so the three surfaces that claim to report the same
// peak must agree exactly:
//
//   - Result.MaxQueue (engine accounting),
//   - the max_queue gauge (every QueueDepth sample's running max),
//   - the per-arc peak_queue slab's maximum (per-arc running maxes).
//
// A frozen copy of the historical packet-at-a-time engine (refRun)
// recomputes the peak independently as the brute-force witness, and
// under bounded queues every per-arc peak must respect the capacity.
func TestPeakQueueSurfacesAgree(t *testing.T) {
	g := debruijn.DeBruijn(3, 4)
	n := g.N()
	tunings := []struct {
		name string
		tun  func() runTuning
	}{
		{name: "unbounded", tun: func() runTuning { return runTuning{} }},
		{name: "qcap2_hold3", tun: func() runTuning { return runTuning{qcap: 2, hold: 3} }},
	}
	for _, tc := range tunings {
		for seed := int64(1); seed <= 3; seed++ {
			nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 104729))
			pkts := make([]Packet, 4*n)
			for i := range pkts {
				pkts[i] = Packet{
					ID:      i,
					Src:     rng.Intn(n),
					Dst:     rng.Intn(n),
					Release: rng.Intn(n / 2),
				}
			}

			rec := obs.NewRecorder(obs.NewRegistry())
			rec.SizeArcs(int(nw.arcBase[n]))
			res, _ := nw.run(pkts, tc.tun(), rec)

			snap := rec.Snapshot()
			gauge := snap.Gauges[obs.MetricMaxQueue]
			if snap.Arcs == nil {
				t.Fatalf("%s seed %d: snapshot has no arc section", tc.name, seed)
			}
			var slabMax int64
			for a, d := range snap.Arcs.PeakQueue {
				if d > slabMax {
					slabMax = d
				}
				if q := tc.tun().qcap; q > 0 && d > int64(q) {
					t.Fatalf("%s seed %d: arc %d peak %d exceeds capacity %d", tc.name, seed, a, d, q)
				}
			}
			if int64(res.MaxQueue) != gauge || gauge != slabMax {
				t.Fatalf("%s seed %d: peak surfaces disagree: Result.MaxQueue=%d max_queue gauge=%d slab max=%d",
					tc.name, seed, res.MaxQueue, gauge, slabMax)
			}

			// Brute-force witness: the frozen historical engine replays
			// the same workload and must see the same peak.
			nwRef, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
			if err != nil {
				t.Fatal(err)
			}
			recRef := obs.NewRecorder(obs.NewRegistry())
			recRef.SizeArcs(int(nwRef.arcBase[n]))
			want := refRun(nwRef, pkts, tc.tun(), recRef)
			if want.MaxQueue != res.MaxQueue {
				t.Fatalf("%s seed %d: reference engine peak %d, arc-major peak %d",
					tc.name, seed, want.MaxQueue, res.MaxQueue)
			}
		}
	}
}
