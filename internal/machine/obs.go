package machine

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Observability. A Recorder attached here flows into every simulator run
// on the machine, and the OTIS layout lets the flat per-arc traversal
// slab be rolled up into per-lens utilization — the metric an optics
// bench actually cares about, since a lens is the shared aperture (and
// shared failure domain) of a whole arc group.

// Observe attaches a metrics recorder to the machine's packet simulator.
// Subsequent RunOpts calls, self-healing sessions and degradation sweeps
// record into it. Passing nil detaches.
func (m *Machine) Observe(rec *obs.Recorder) {
	m.net.Observe(rec)
}

// RunOpts executes a workload on the machine's simulator under
// functional options — the machine-level mirror of simnet's one run
// entry point: simnet.Fixed(pkts) for a packet list, WithFaults(plan)
// for a fault run, BroadcastLoad(root) for a one-to-all broadcast.
// Workload node ids are physical.
func (m *Machine) RunOpts(w simnet.Workload, opts ...simnet.RunOption) (simnet.RunReport, error) {
	return m.net.RunOpts(w, opts...)
}

// PhysicalArcIndex returns the flat slab index of out-arc k of physical
// node tail — the CSR layout shared by the simulator's queues and the
// recorder's per-arc slabs.
func (m *Machine) PhysicalArcIndex(tail, k int) int {
	return m.net.ArcIndex(tail, k)
}

// lensIndex is the layout's lens groups flattened onto the simulator's
// (and the recorder's) per-arc slabs: lensOf[0][a] and lensOf[1][a]
// are the transmitter-side and receiver-side lens that flat arc a's
// beam crosses, and arcs[l] is the size of lens l's group. Every beam
// crosses exactly one lens on each side, so each map covers every arc
// and one forward pass over a per-arc slab rolls it up into every
// lens. Lens numbers are int16, half the bytes a roll-up streams.
type lensIndex struct {
	lensOf [2][]int16
	arcs   []int
	err    error
}

// lenses returns the machine's lens index, building it from
// Layout.LensArcs on first use; concurrent callers share one build.
func (m *Machine) lenses() (*lensIndex, error) {
	m.lensOnce.Do(func() { m.lensIdx = m.buildLensIndex() })
	return m.lensIdx, m.lensIdx.err
}

// buildLensIndex expands every lens's arc group once. It fails unless
// the groups of each side partition the arcs, which is what makes the
// one-pass roll-up equal to summing every group separately.
func (m *Machine) buildLensIndex() *lensIndex {
	arcs := m.Nodes() * m.Degree
	li := &lensIndex{arcs: make([]int, m.Lenses())}
	if m.Lenses() > math.MaxInt16 {
		li.err = fmt.Errorf("machine: %d lenses exceed the int16 lens index", m.Lenses())
		return li
	}
	for side := range li.lensOf {
		li.lensOf[side] = make([]int16, arcs)
		for a := range li.lensOf[side] {
			li.lensOf[side][a] = -1
		}
	}
	p := m.Layout.P()
	for lens := range li.arcs {
		group, err := m.Layout.LensArcs(lens)
		if err != nil {
			li.err = fmt.Errorf("machine: lens %d: %w", lens, err)
			return li
		}
		of := li.lensOf[0]
		if lens >= p {
			of = li.lensOf[1]
		}
		for _, a := range group {
			f := m.net.ArcIndex(a[0], a[1])
			if of[f] >= 0 {
				li.err = fmt.Errorf("machine: arc (%d#%d) lies under lenses %d and %d", a[0], a[1], of[f], lens)
				return li
			}
			of[f] = int16(lens) // lens < Lenses() ≤ MaxInt16, checked above
		}
		li.arcs[lens] = len(group)
	}
	for side, of := range li.lensOf {
		for f, lens := range of {
			if lens < 0 {
				li.err = fmt.Errorf("machine: flat arc %d lies under no lens on side %d", f, side)
				return li
			}
		}
	}
	return li
}

// LensUtilization rolls the recorder's per-arc traversal counts up into
// per-lens totals using the layout's arc groups, cached on the machine
// and read from the recorder's slab in place. Every hop crosses exactly
// one transmitter-side and one receiver-side lens, so within each side
// the Share values sum to 1 (when any traffic flowed at all). The
// recorder must have been sized by an Observe on this machine (or a
// network of identical arc count) before the runs being rolled up.
func (m *Machine) LensUtilization(rec *obs.Recorder) ([]obs.LensUtilization, error) {
	if rec == nil {
		return nil, fmt.Errorf("machine: LensUtilization needs a recorder")
	}
	wantArcs := m.Nodes() * m.Degree
	if got := rec.Arcs(); got != wantArcs {
		return nil, fmt.Errorf("machine: recorder sized for %d arcs, machine has %d", got, wantArcs)
	}
	li, err := m.lenses()
	if err != nil {
		return nil, err
	}
	sums := make([]int64, len(li.arcs))
	rec.SumArcTraversalsBy(li.lensOf[0], li.lensOf[1], sums)
	p := m.Layout.P()
	var total int64
	for _, sum := range sums[:p] {
		total += sum // the transmitter-side groups partition the arcs
	}
	out := make([]obs.LensUtilization, len(sums))
	for lens, sum := range sums {
		u := obs.LensUtilization{Lens: lens, Side: "tx", Arcs: li.arcs[lens], Traversals: sum}
		if lens >= p {
			u.Side = "rx"
		}
		if total > 0 {
			u.Share = float64(sum) / float64(total)
		}
		out[lens] = u
	}
	return out, nil
}

// LensCongestion rolls the recorder's per-arc peak queue depths up into
// per-lens congestion: for each lens, the deepest any queue in its arc
// group got. Under bounded queues (WithQueueCapacity) no entry exceeds
// the capacity, and a lens pinned at it is the aperture backpressure
// propagates from — the congestion analogue of LensUtilization. The
// recorder must have been sized by an Observe on this machine before
// the runs being rolled up.
func (m *Machine) LensCongestion(rec *obs.Recorder) ([]obs.LensCongestion, error) {
	if rec == nil {
		return nil, fmt.Errorf("machine: LensCongestion needs a recorder")
	}
	wantArcs := m.Nodes() * m.Degree
	if got := rec.Arcs(); got != wantArcs {
		return nil, fmt.Errorf("machine: recorder sized for %d arcs, machine has %d", got, wantArcs)
	}
	li, err := m.lenses()
	if err != nil {
		return nil, err
	}
	peaks := make([]int64, len(li.arcs))
	rec.MaxArcPeakQueueBy(li.lensOf[0], li.lensOf[1], peaks)
	p := m.Layout.P()
	out := make([]obs.LensCongestion, len(peaks))
	for lens, peak := range peaks {
		c := obs.LensCongestion{Lens: lens, Side: "tx", Arcs: li.arcs[lens], PeakQueue: peak}
		if lens >= p {
			c.Side = "rx"
		}
		out[lens] = c
	}
	return out, nil
}

// RunMetrics snapshots the recorder and attaches the machine's per-lens
// utilization and congestion roll-ups, yielding a complete OBS_run/v1
// document.
func (m *Machine) RunMetrics(rec *obs.Recorder) (obs.RunMetrics, error) {
	lenses, err := m.LensUtilization(rec)
	if err != nil {
		return obs.RunMetrics{}, err
	}
	congestion, err := m.LensCongestion(rec)
	if err != nil {
		return obs.RunMetrics{}, err
	}
	snap := rec.Snapshot()
	snap.Lenses = lenses
	snap.Congestion = congestion
	return snap, nil
}
