//go:build !race

// The race detector changes allocation behaviour (sync.Pool drops cached
// run arenas at random under -race), so the allocation budgets here run
// without it, and with the collector off, which would otherwise empty
// the pool of the arena the measured runs reuse.

package simnet

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/debruijn"
)

// TestFaultAndHealAllocationScalesLinearly: a permanent fault or a
// self-healing session on a shift-routed network builds nothing
// n²-sized. From B(2,10) to B(2,12) the node count grows 4×, so an n²
// structure grows 16×; the allocations of a fault run and of a two-Run
// heal session, each under one permanent fault on arc 1#0 with a
// permutation workload, may grow at most 8×.
func TestFaultAndHealAllocationScalesLinearly(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(D int) (faultRun, session uint64) {
		g := debruijn.DeBruijn(2, D)
		nw, err := NewNetwork(g, WithRouting(ShiftRouting))
		if err != nil {
			t.Fatal(err)
		}
		plan := NewFaultPlan().LinkDown(0, 0, 1, 0)
		pkts := Permutation(g.N(), 1)
		// Warm the network's arena so both measurements count only what
		// the fault handling allocates beyond a run's own buffers.
		if _, err := nw.RunOpts(Fixed(pkts), WithFaults(nil)); err != nil {
			t.Fatal(err)
		}
		measure := func(f func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		faultRun = measure(func() {
			rep, err := nw.RunOpts(Fixed(pkts), WithFaults(plan))
			if err != nil || rep.Reroutes == 0 {
				t.Fatalf("B(2,%d) fault run: %v, %d reroutes", D, err, rep.Reroutes)
			}
		})
		session = measure(func() {
			s, err := nw.SelfHeal(plan, HealConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for wave := 0; wave < 2; wave++ {
				if _, err := s.Run(pkts); err != nil {
					t.Fatal(err)
				}
			}
			if s.Epoch() == 0 {
				t.Fatalf("B(2,%d): the heal session never detected the fault", D)
			}
		})
		return faultRun, session
	}
	run10, heal10 := allocs(10)
	run12, heal12 := allocs(12)
	t.Logf("fault run %d → %d bytes, heal session %d → %d bytes", run10, run12, heal10, heal12)
	if run12 > 8*run10 {
		t.Errorf("fault run allocation grew %.1f× from B(2,10) to B(2,12), want ≤ 8×", float64(run12)/float64(run10))
	}
	if heal12 > 8*heal10 {
		t.Errorf("heal session allocation grew %.1f× from B(2,10) to B(2,12), want ≤ 8×", float64(heal12)/float64(heal10))
	}
}

// TestTransientFaultRunBuildsNoDistanceTable: the first transient-fault
// run on a table-routed B(2,12) ranks its deflections by walking the
// router's own slab, so beyond the table NewNetwork built it allocates
// under 4 MiB; the 4n²-byte all-pairs distance table alone would take
// 64 MiB.
func TestTransientFaultRunBuildsNoDistanceTable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := debruijn.DeBruijn(2, 12)
	nw, err := NewNetwork(g, WithRouting(TableRouting))
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan().LinkDown(0, 20, 1, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := nw.RunOpts(PermutationLoad(), WithSeed(1), WithFaults(plan))
	runtime.ReadMemStats(&after)
	if err != nil || rep.Reroutes == 0 {
		t.Fatalf("transient fault run: %v, %d reroutes (the ranking went unchecked)", err, rep.Reroutes)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("first transient-fault run allocated %.2f MiB", float64(alloc)/(1<<20))
	if alloc >= 4<<20 {
		t.Errorf("first transient-fault run allocated %.1f MiB, budget 4 MiB", float64(alloc)/(1<<20))
	}
}

// TestRunOptsAllocatesLikeRun: RunOpts keeps its option state on the
// stack, so a plain run through it allocates exactly what the kernel
// call it dispatches to does (the packet table its Result keeps), with
// or without options.
func TestRunOptsAllocatesLikeRun(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := debruijn.DeBruijn(2, 8)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	pkts := Permutation(g.N(), 1)
	w, seed, shards := Fixed(pkts), WithSeed(1), WithShards(1)
	run := testing.AllocsPerRun(50, func() { nw.run(pkts, runTuning{}, nil) })
	for _, tc := range []struct {
		name string
		opts []RunOption
	}{{"no options", nil}, {"WithSeed, WithShards(1)", []RunOption{seed, shards}}} {
		got := testing.AllocsPerRun(50, func() {
			if _, err := nw.RunOpts(w, tc.opts...); err != nil {
				t.Fatal(err)
			}
		})
		if got != run {
			t.Errorf("RunOpts (%s) allocates %.0f times per run, Network.run %.0f", tc.name, got, run)
		}
	}
}
