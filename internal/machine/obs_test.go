package machine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// refLensUtilization is the historical LensUtilization: every call
// expands each lens's arc group through Layout.LensArcs and sums a copy
// of the traversal slab over it.
func refLensUtilization(m *Machine, rec *obs.Recorder) []obs.LensUtilization {
	trav := rec.ArcTraversals()
	var total int64
	for _, t := range trav {
		total += t
	}
	var out []obs.LensUtilization
	for lens := 0; lens < m.Lenses(); lens++ {
		arcs, _ := m.Layout.LensArcs(lens)
		var sum int64
		for _, a := range arcs {
			sum += trav[m.PhysicalArcIndex(a[0], a[1])]
		}
		u := obs.LensUtilization{Lens: lens, Side: "tx", Arcs: len(arcs), Traversals: sum}
		if lens >= m.Layout.P() {
			u.Side = "rx"
		}
		if total > 0 {
			u.Share = float64(sum) / float64(total)
		}
		out = append(out, u)
	}
	return out
}

// refLensCongestion is the historical LensCongestion.
func refLensCongestion(m *Machine, rec *obs.Recorder) []obs.LensCongestion {
	peaks := rec.ArcPeakQueue()
	var out []obs.LensCongestion
	for lens := 0; lens < m.Lenses(); lens++ {
		arcs, _ := m.Layout.LensArcs(lens)
		var peak int64
		for _, a := range arcs {
			if d := peaks[m.PhysicalArcIndex(a[0], a[1])]; d > peak {
				peak = d
			}
		}
		c := obs.LensCongestion{Lens: lens, Side: "tx", Arcs: len(arcs), PeakQueue: peak}
		if lens >= m.Layout.P() {
			c.Side = "rx"
		}
		out = append(out, c)
	}
	return out
}

// TestCachedLensRollUpsMatchReference requires the cached, one-pass
// lens roll-ups to equal the historical per-call expansion lens by
// lens, on the B(3,4) and B(2,12) machines, for an idle recorder, a
// healthy permutation, a lens-faulted run and a bounded-queue run, with
// concurrent first calls sharing one index build.
func TestCachedLensRollUpsMatchReference(t *testing.T) {
	for _, size := range []struct{ d, D int }{{3, 4}, {2, 12}} {
		m, err := Build(size.d, size.D, optics.DefaultPitch)
		if err != nil {
			t.Fatal(err)
		}
		pkts := simnet.Permutation(m.Nodes(), 3)
		plan, err := m.LensFaultPlan(2, 16, m.Lenses()-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			name string
			opts []simnet.RunOption
		}{
			{name: "idle"},
			{name: "healthy", opts: []simnet.RunOption{simnet.WithSeed(3)}},
			{name: "lens_faulted", opts: []simnet.RunOption{simnet.WithFaults(plan)}},
			{name: "bounded", opts: []simnet.RunOption{simnet.WithQueueCapacity(2)}},
		}
		for i, r := range runs {
			rec := obs.NewRecorder(nil)
			if r.opts == nil {
				rec.SizeArcs(m.Nodes() * m.Degree)
			} else if _, err := m.RunOpts(simnet.Fixed(pkts), append(r.opts, simnet.WithRecorder(rec))...); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			utils := make([][]obs.LensUtilization, 4)
			congs := make([][]obs.LensCongestion, 4)
			errs := make([]error, 8)
			for w := range utils {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					utils[w], errs[2*w] = m.LensUtilization(rec)
					congs[w], errs[2*w+1] = m.LensCongestion(rec)
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("B(%d,%d) %s: %v", size.d, size.D, r.name, err)
				}
			}
			wantU, wantC := refLensUtilization(m, rec), refLensCongestion(m, rec)
			for w := range utils {
				if !reflect.DeepEqual(utils[w], wantU) {
					t.Fatalf("B(%d,%d) %s: lens utilization diverges from the reference", size.d, size.D, r.name)
				}
				if !reflect.DeepEqual(congs[w], wantC) {
					t.Fatalf("B(%d,%d) %s: lens congestion diverges from the reference", size.d, size.D, r.name)
				}
			}
			if i > 0 && wantU[0].Traversals+wantU[len(wantU)-1].Traversals == 0 {
				t.Fatalf("B(%d,%d) %s: no traffic reached the rolled-up lenses", size.d, size.D, r.name)
			}
		}
	}
}
