// Package machine assembles the repository's layers into a single
// artifact: an optical de Bruijn machine. Given a degree and diameter it
// selects the lens-minimizing OTIS layout (Corollary 4.6), builds the
// physical bench, constructs and verifies the layout isomorphism
// (Propositions 4.1 + 3.9), and exposes routing, broadcast and workload
// execution in physical (H-space) coordinates. This is the API a systems
// group adopting the paper's design would program against.
package machine

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/simnet"
	"repro/internal/word"
)

// Machine is a fully assembled optical de Bruijn machine.
type Machine struct {
	Degree int
	Diam   int

	// Layout is the chosen OTIS split.
	Layout otis.Layout
	// Bench is the physical optical model of the interconnect.
	Bench *optics.Bench
	// Physical is the digraph OTIS actually wires: H(p, q, d) on
	// physical node ids.
	Physical *digraph.Digraph
	// ToLogical maps physical node ids to B(d, D) Horner labels; the
	// verified layout witness.
	ToLogical []int
	// ToPhysical is its inverse.
	ToPhysical []int

	// net is the packet simulator over Physical, built once at Build. It
	// routes table-free through the certified witness (shift routing on
	// the logical labels, each letter mapped to a physical out-arc), so
	// it holds no n² routing or distance slab: fault-free distances are
	// closed-form. Its scratch arenas are shared by every RunOpts and
	// DegradationSweep on this machine; self-healing sessions and
	// deflection runs build no table either.
	net *simnet.Network

	// lensOnce guards lensIdx, the lens of every arc on each side,
	// built on the first lens roll-up (see lensIndex).
	lensOnce sync.Once
	lensIdx  *lensIndex
}

// Build assembles the machine for B(d, D), verifying every layer:
// the layout criterion, the witness isomorphism, and the optical
// transpose. The witness is certified in one O(M) pass over the
// physical arcs (simnet.NewWitnessRouter), which is both the
// isomorphism check and the router: the machine self-routes on its
// logical labels, with no routing table. Pitch is the transceiver pitch
// in metres (use optics.DefaultPitch for the standard 250 µm).
func Build(d, D int, pitch float64) (*Machine, error) {
	// The simulator's node ids are int32: refuse a larger machine before
	// the O(D²) layout search and the O(d^D) bench, digraph and witness.
	if n, ok := word.PowChecked(d, D); !ok || n > math.MaxInt32 {
		return nil, fmt.Errorf("machine: B(%d,%d) is outside the simulator's node range [1, %d]", d, D, math.MaxInt32)
	}
	layout, ok := otis.OptimalLayout(d, D)
	if !ok {
		return nil, fmt.Errorf("machine: no OTIS layout realizes B(%d,%d)", d, D)
	}
	bench, err := optics.NewBench(layout.P(), layout.Q(), pitch)
	if err != nil {
		return nil, fmt.Errorf("machine: bench: %w", err)
	}
	if err := bench.VerifyTranspose(); err != nil {
		return nil, fmt.Errorf("machine: optical verification: %w", err)
	}
	physical, err := otis.H(layout.P(), layout.Q(), d)
	if err != nil {
		return nil, fmt.Errorf("machine: H digraph: %w", err)
	}
	toLogical, err := otis.LayoutWitness(d, layout.PPrime, layout.QPrime)
	if err != nil {
		return nil, fmt.Errorf("machine: witness: %w", err)
	}
	router, err := simnet.NewWitnessRouter(physical, toLogical)
	if err != nil {
		return nil, fmt.Errorf("machine: witness verification: %w", err)
	}
	toPhysical := make([]int, len(toLogical))
	for p, l := range toLogical {
		toPhysical[l] = p
	}
	net, err := simnet.NewNetwork(physical, simnet.WithRouter(router))
	if err != nil {
		return nil, fmt.Errorf("machine: simulator: %w", err)
	}
	return &Machine{
		Degree:     d,
		Diam:       D,
		Layout:     layout,
		Bench:      bench,
		Physical:   physical,
		ToLogical:  toLogical,
		ToPhysical: toPhysical,
		net:        net,
	}, nil
}

// Nodes returns the processor count d^D.
func (m *Machine) Nodes() int { return m.Physical.N() }

// Lenses returns the lens count of the interconnect.
func (m *Machine) Lenses() int { return m.Layout.Lenses() }

// Route returns the shortest physical path between two physical node
// ids, computed by logical de Bruijn self-routing and mapped back — no
// tables needed.
func (m *Machine) Route(srcPhys, dstPhys int) []int {
	logical := debruijn.RouteInts(m.Degree, m.Diam,
		m.ToLogical[srcPhys], m.ToLogical[dstPhys])
	path := make([]int, len(logical))
	for i, l := range logical {
		path[i] = m.ToPhysical[l]
	}
	return path
}

// VerifyRoutes checks, for a sample stride, that witness-mapped logical
// routes are valid physical paths — the property that makes the machine
// self-routing without per-node tables.
func (m *Machine) VerifyRoutes(stride int) error {
	if stride < 1 {
		stride = 1
	}
	n := m.Nodes()
	for s := 0; s < n; s += stride {
		for t := 0; t < n; t += stride {
			path := m.Route(s, t)
			for i := 0; i+1 < len(path); i++ {
				if !m.Physical.HasArc(path[i], path[i+1]) {
					return fmt.Errorf("machine: route %d→%d leaves the physical arcs at step %d", s, t, i)
				}
			}
			if len(path)-1 > m.Diam {
				return fmt.Errorf("machine: route %d→%d has %d hops > diameter %d", s, t, len(path)-1, m.Diam)
			}
		}
	}
	return nil
}

// RunDeflection executes a workload under bufferless hot-potato routing —
// the regime of a machine whose nodes have no optical buffers. It runs
// on the machine's witness-routed network, so outputs rank by the
// closed-form de Bruijn distance, the run builds no distance table, and
// it records into the recorder attached with Observe.
func (m *Machine) RunDeflection(pkts []simnet.Packet) (simnet.DeflectionResult, error) {
	dn, err := simnet.NewDeflection(m.net)
	if err != nil {
		return simnet.DeflectionResult{}, err
	}
	return dn.Run(pkts)
}

// TDMSchedule returns the d conflict-free transmission slots of the
// physical interconnect (König 1-factorization): in slot t every node
// transmits on exactly one beam with no receiver collisions.
func (m *Machine) TDMSchedule() ([][]int, error) {
	factors, err := m.Physical.OneFactorization(m.Degree)
	if err != nil {
		return nil, err
	}
	if err := m.Physical.VerifyFactorization(factors); err != nil {
		return nil, err
	}
	return factors, nil
}

// BOM returns the hardware bill of materials.
func (m *Machine) BOM() optics.BOM {
	return optics.BillOfMaterials(m.Bench, m.Degree)
}

// Audit re-verifies the machine end to end: regularity, diameter,
// optical transpose, witness, diffraction feasibility and link margin.
// It returns a human-readable report and an error if any check fails.
func (m *Machine) Audit() (string, error) {
	report := fmt.Sprintf("machine %v\n", m.Layout)
	if !m.Physical.IsRegular(m.Degree) {
		return report, fmt.Errorf("machine: physical digraph not %d-regular", m.Degree)
	}
	diam := m.Physical.Diameter()
	report += fmt.Sprintf("  diameter %d (= D)\n", diam)
	if diam != m.Diam {
		return report, fmt.Errorf("machine: diameter %d != %d", diam, m.Diam)
	}
	if err := m.Bench.VerifyTranspose(); err != nil {
		return report, err
	}
	report += fmt.Sprintf("  optics: %d beams verified\n", m.Layout.P()*m.Layout.Q())
	diff, err := optics.Diffract(m.Bench, optics.DefaultWavelength)
	if err != nil {
		return report, err
	}
	if !diff.Feasible {
		return report, fmt.Errorf("machine: diffraction-infeasible at 850 nm")
	}
	report += fmt.Sprintf("  diffraction: feasible (spot %.1f µm in %.1f µm cells)\n",
		diff.SpotDiameter2*1e6, m.Bench.Pitch*1e6)
	margin, _ := optics.WorstCaseMargin(m.Bench, optics.DefaultBudget())
	report += fmt.Sprintf("  link margin: %.2f dB worst case\n", margin)
	if margin <= 0 {
		return report, fmt.Errorf("machine: link does not close")
	}
	if err := m.VerifyRoutes(maxInt(1, m.Nodes()/16)); err != nil {
		return report, err
	}
	report += "  self-routing verified on sampled pairs\n"
	return report, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
