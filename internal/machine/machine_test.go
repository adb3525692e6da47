package machine

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/optics"
	"repro/internal/simnet"
)

func TestBuild(t *testing.T) {
	m, err := Build(2, 8, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 256 || m.Lenses() != 48 {
		t.Fatalf("machine shape: n=%d lenses=%d", m.Nodes(), m.Lenses())
	}
	if m.Layout.P() != 16 || m.Layout.Q() != 32 {
		t.Errorf("layout %v", m.Layout)
	}
	// Witness maps are mutually inverse.
	for p := 0; p < m.Nodes(); p++ {
		if m.ToPhysical[m.ToLogical[p]] != p {
			t.Fatal("witness maps not inverse")
		}
	}
}

func TestBuildFailsWithoutLayout(t *testing.T) {
	// d = 1 has no layouts.
	if _, err := Build(1, 4, optics.DefaultPitch); err == nil {
		t.Error("degree 1 accepted")
	}
	if _, err := Build(2, 8, -1); err == nil {
		t.Error("negative pitch accepted")
	}
}

// TestBuildRejectsUnservableSizes: every machine the simulator cannot
// address is refused with an error before any O(d^D) work — no panic,
// no overflowed bench, no multi-minute beam trace.
func TestBuildRejectsUnservableSizes(t *testing.T) {
	for _, c := range []struct{ d, D int }{
		{2, 31},          // 2^31 nodes: one past the int32 range
		{2, 40},          // cmd/machine -diam 40
		{2, 70},          // p·q = 2^71 overflows int
		{3, 20},          // 3^20 > 2^31
		{2, math.MaxInt}, // d^D overflows long before the layout search
		{math.MaxInt, 2}, // likewise with a huge degree
		{0, 3},           // no alphabet
		{2, 0},           // no letters
		{2, -1},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Build(%d, %d) panicked: %v", c.d, c.D, r)
				}
			}()
			if _, err := Build(c.d, c.D, optics.DefaultPitch); err == nil {
				t.Errorf("Build(%d, %d) succeeded, want an error", c.d, c.D)
			}
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Build(2, 31, optics.DefaultPitch)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Build(2, 31) succeeded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Build(2, 31) allocated %d bytes before refusing, want < 1 MiB", alloc)
	}
}

// TestBuildAllocs pins the machine's construction footprint at B(2,12):
// the bench, H, the witness and the router are a fixed number of slabs,
// never a Word or a list per node.
func TestBuildAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(2, 12, optics.DefaultPitch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("Build(2, 12) makes %.0f allocations, want at most 200", allocs)
	}
	t.Logf("Build(2, 12): %.0f allocations", allocs)
}

func TestRouteAndVerify(t *testing.T) {
	m, err := Build(2, 6, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyRoutes(1); err != nil {
		t.Fatal(err)
	}
	path := m.Route(3, 42)
	if path[0] != 3 || path[len(path)-1] != 42 {
		t.Fatalf("route endpoints: %v", path)
	}
	// Route length equals the physical BFS distance (shortest).
	dist := m.Physical.BFSFrom(3)
	if len(path)-1 != dist[42] {
		t.Errorf("route length %d, BFS %d", len(path)-1, dist[42])
	}
	if self := m.Route(7, 7); len(self) != 1 {
		t.Errorf("self route %v", self)
	}
}

func TestRunWorkload(t *testing.T) {
	m, err := Build(2, 6, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunOpts(simnet.UniformLoad(500), simnet.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 500 || res.MaxHops > 6 {
		t.Fatalf("workload result %v", res)
	}
}

func TestBroadcast(t *testing.T) {
	m, _ := Build(2, 5, optics.DefaultPitch)
	res, err := m.RunOpts(simnet.BroadcastLoad(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != m.Nodes()-1 {
		t.Fatalf("broadcast %v", res)
	}
}

func TestAudit(t *testing.T) {
	m, _ := Build(2, 8, optics.DefaultPitch)
	report, err := m.Audit()
	if err != nil {
		t.Fatalf("audit failed: %v\n%s", err, report)
	}
	for _, want := range []string{"diameter 8", "optics", "diffraction", "link margin", "self-routing"} {
		if !strings.Contains(report, want) {
			t.Errorf("audit report missing %q:\n%s", want, report)
		}
	}
}

func TestBOM(t *testing.T) {
	m, _ := Build(2, 8, optics.DefaultPitch)
	bom := m.BOM()
	if bom.Nodes != 256 || bom.Lenses != 48 || bom.TransceiversNode != 2 {
		t.Errorf("BOM %+v", bom)
	}
}

func TestRunDeflection(t *testing.T) {
	m, _ := Build(2, 5, optics.DefaultPitch)
	res, err := m.RunDeflection(simnet.UniformRandom(m.Nodes(), 100, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 100 {
		t.Fatalf("deflection on the machine: %v", res)
	}
}

func TestTDMSchedule(t *testing.T) {
	m, _ := Build(2, 5, optics.DefaultPitch)
	slots, err := m.TDMSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 {
		t.Fatalf("%d slots, want degree 2", len(slots))
	}
	// Each slot is a permutation of the physical nodes.
	for s, f := range slots {
		seen := make([]bool, m.Nodes())
		for _, v := range f {
			if seen[v] {
				t.Fatalf("slot %d: receiver %d collides", s, v)
			}
			seen[v] = true
		}
	}
}

func TestOddDiameterMachine(t *testing.T) {
	// Odd D uses the best unbalanced split and still assembles.
	m, err := Build(2, 7, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 128 {
		t.Fatalf("n = %d", m.Nodes())
	}
	if err := m.VerifyRoutes(1); err != nil {
		t.Fatal(err)
	}
}

// TestRunOptsShardsPassThrough pins that the machine-level RunOpts
// forwards WithShards to the simulator and that the sharded run
// reproduces the sequential one exactly on the physical interconnect.
func TestRunOptsShardsPassThrough(t *testing.T) {
	m, err := Build(2, 8, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := m.RunOpts(simnet.PermutationLoad(), simnet.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := m.RunOpts(simnet.PermutationLoad(), simnet.WithSeed(3), simnet.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, sh) {
		t.Fatal("WithShards(4) through Machine.RunOpts diverged from the sequential run")
	}
}

// TestMachineIsTableFree pins the machine's memory budget: Build(2,12),
// one plain permutation, one lens-fault run and one 600-packet
// deflection run allocate at most 16 MiB in total — less than the n²
// next-hop slab alone (16 MiB at 4096 nodes), let alone the 64 MiB
// all-pairs distance slab the first fault run used to add or the n
// forward-BFS rows (256 MiB) a deflection run used to build. The
// machine routes table-free through its certified witness, with
// closed-form fault-free distances.
func TestMachineIsTableFree(t *testing.T) {
	const budget = 16 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := Build(2, 12, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.RunOpts(simnet.PermutationLoad(), simnet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.LensFaultPlan(2, 16, 70) // a receiver lens: its outage deflects
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := m.RunOpts(simnet.PermutationLoad(), simnet.WithSeed(1), simnet.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	deflected, err := m.RunDeflection(simnet.UniformLoad(600).Packets(m.Nodes(), 21))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if plain.Delivered != m.Nodes() || faulted.Delivered+faulted.Dropped != m.Nodes() || faulted.Reroutes == 0 ||
		deflected.Delivered != 600 || deflected.Deflections == 0 {
		t.Fatalf("degenerate runs: plain %v, faulted %v, deflection %v", plain.FaultResult, faulted.FaultResult, deflected)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build(2,12) + a plain, a lens-fault and a deflection run allocated %.1f MiB", float64(alloc)/(1<<20))
	if alloc > budget {
		t.Fatalf("Build(2,12) + a plain, a lens-fault and a deflection run allocated %.1f MiB, budget %d MiB",
			float64(alloc)/(1<<20), budget>>20)
	}
	if m.net.Routing() != simnet.ShiftRouting {
		t.Fatalf("the machine routes %v, want shift (witness)", m.net.Routing())
	}
}
