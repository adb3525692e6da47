package obs_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// TestFaultRunsAllocateNoPeakSlab records only lens-faulted runs of the
// B(2,8) machine, every lens down in turn, into one recorder. Fault runs
// queue at nodes, not arcs, so no run raises an arc's peak: the
// recorder must never allocate its peak-queue slab, yet answer as if it
// held one of zeros — a full-length all-zero ArcPeakQueue and
// peak_queue section, and zero congestion on every lens.
func TestFaultRunsAllocateNoPeakSlab(t *testing.T) {
	m, err := machine.Build(2, 8, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	arcs := m.Nodes() * m.Degree
	pkts := simnet.Permutation(m.Nodes(), 7)
	rec := obs.NewRecorder(nil)
	for lens := 0; lens < m.Lenses(); lens++ {
		plan, err := m.LensFaultPlan(2, 16, lens)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan), simnet.WithRecorder(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if obs.PeakSlabAllocated(rec) {
		t.Fatal("fault runs allocated a peak-queue slab")
	}
	snap := rec.Snapshot()
	if snap.Counters[obs.MetricArcTraversed] == 0 || snap.Histograms[obs.MetricHistQueue].Count == 0 {
		t.Fatal("degenerate case: the runs recorded no hops or node depths")
	}
	for name, peaks := range map[string][]int64{"ArcPeakQueue": rec.ArcPeakQueue(), "peak_queue": snap.Arcs.PeakQueue} {
		if len(peaks) != arcs {
			t.Errorf("%s has %d entries, want %d", name, len(peaks), arcs)
		}
		for a, d := range peaks {
			if d != 0 {
				t.Errorf("%s[%d] = %d, want 0", name, a, d)
				break
			}
		}
	}
	congestion, err := m.LensCongestion(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(congestion) != m.Lenses() {
		t.Fatalf("%d lenses in the congestion roll-up, want %d", len(congestion), m.Lenses())
	}
	for _, c := range congestion {
		if c.PeakQueue != 0 {
			t.Errorf("lens %d reports peak queue %d, want 0", c.Lens, c.PeakQueue)
		}
	}
	if obs.PeakSlabAllocated(rec) {
		t.Fatal("reading the peaks allocated a peak-queue slab")
	}
}
