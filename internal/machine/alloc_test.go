//go:build !race

// The race detector changes allocation behaviour (sync.Pool drops cached
// run arenas at random under -race), so the allocation budget here runs
// without it, and with the collector off, which would otherwise empty
// the pool of the arena the measured runs reuse.

package machine

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/optics"
	"repro/internal/simnet"
)

// TestMachineHealSessionsBuildNoSlab: self-healing builds no routing
// table on the table-free machine. Under one permanent fault on an arc
// the workload uses, every two-Run heal session on the B(2,10) machine
// allocates less than n²/8 bytes beyond the Runs' own packet copies —
// an eighth of the n² next-hop slab sessions used to start from.
func TestMachineHealSessionsBuildNoSlab(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m, err := Build(2, 10, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Nodes()
	pkts := simnet.Permutation(n, 1)
	path := m.Route(pkts[0].Src, pkts[0].Dst)
	if len(path) < 2 {
		t.Fatalf("packet 0 routes %v: no arc to fault", path)
	}
	k := slices.Index(m.Physical.Out(path[0]), path[1])
	plan := simnet.NewFaultPlan().LinkDown(0, 0, path[0], k)
	// Warm the machine's arena, so a session counts only what healing
	// allocates beyond a run's own buffers.
	if _, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(nil)); err != nil {
		t.Fatal(err)
	}
	copies := uint64(2*len(pkts)) * uint64(unsafe.Sizeof(simnet.Packet{}))
	for session := 1; session <= 2; session++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := m.SelfHeal(plan, simnet.HealConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for wave := 0; wave < 2; wave++ {
			if _, err := s.Run(pkts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if s.Epoch() == 0 {
			t.Fatalf("session %d never detected the fault on arc (%d#%d)", session, path[0], k)
		}
		alloc := after.TotalAlloc - before.TotalAlloc - copies
		t.Logf("session %d: %d bytes beyond the packet copies", session, alloc)
		if alloc >= uint64(n*n/8) {
			t.Fatalf("session %d allocated %d bytes beyond its packet copies, at least n²/8 = %d", session, alloc, n*n/8)
		}
	}
}
