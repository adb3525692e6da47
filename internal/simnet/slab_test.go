package simnet

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/otis"
)

// Tests for the flat-slab routing rework: the arc slab must route on the
// same distance class as the [][]int tables it replaced, on every
// topology family the repository builds; the fault engine's accounting
// must balance even under adversarial release schedules; and the shared
// Network must be safe and deterministic across sweep workers.

// catalogGraphs returns one representative of every digraph family in
// the catalog: de Bruijn, Kautz, Reddy–Raghavan–Kuhl, Imase–Itoh, and an
// OTIS-realized H(p, q, d).
func catalogGraphs(t *testing.T) map[string]*digraph.Digraph {
	t.Helper()
	graphs := map[string]*digraph.Digraph{
		"B(2,4)":    debruijn.DeBruijn(2, 4),
		"B(3,3)":    debruijn.DeBruijn(3, 3),
		"RRK(2,12)": debruijn.RRK(2, 12),
		"II(2,12)":  debruijn.ImaseItoh(2, 12),
	}
	kautz, _ := debruijn.Kautz(2, 4)
	graphs["K(2,4)"] = kautz
	layout, ok := otis.OptimalLayout(2, 5)
	if !ok {
		t.Fatal("no OTIS layout for B(2,5)")
	}
	graphs["H(p,q,2)"] = otis.MustH(layout.P(), layout.Q(), 2)
	return graphs
}

// TestTableRouterDifferentialCatalog checks, pair by pair on every
// catalog graph, that the arc slab agrees with the all-pairs distance
// slab: a routed arc always steps one closer to the destination (the
// distance class the replaced implementation guaranteed), -1 appears
// exactly for unreachable pairs and self-pairs, and the walk of the
// slab that ranks deflections returns the pair's distance.
func TestTableRouterDifferentialCatalog(t *testing.T) {
	for name, g := range catalogGraphs(t) {
		n := g.N()
		dist := g.DistanceSlab()
		router := NewTableRouter(g)
		for u := 0; u < n; u++ {
			for dst := 0; dst < n; dst++ {
				arc := router.NextArc(u, dst)
				d := dist[u*n+dst]
				if got := router.distance(g, u, dst); got != d {
					t.Fatalf("%s: the table walk from %d to %d reads %d, distance %d", name, u, dst, got, d)
				}
				switch {
				case u == dst:
					if arc != -1 {
						t.Fatalf("%s: NextArc(%d,%d) = %d at destination", name, u, dst, arc)
					}
				case d == digraph.Unreachable:
					if arc != -1 {
						t.Fatalf("%s: unreachable pair (%d,%d) routed arc=%d", name, u, dst, arc)
					}
				default:
					if arc < 0 || arc >= g.OutDegree(u) {
						t.Fatalf("%s: NextArc(%d,%d) = %d out of range", name, u, dst, arc)
					}
					v := g.Out(u)[arc]
					if dist[v*n+dst] != d-1 {
						t.Fatalf("%s: arc %d→%d does not decrease distance to %d (%d → %d)",
							name, u, v, dst, d, dist[v*n+dst])
					}
				}
			}
		}
	}
}

// TestTableRouterFootprint asserts satellite claim S1: exactly one n²
// table survives, at 1 byte per pair on any graph whose out-degrees fit
// int8 — a 32× reduction over the historical pair of [][]int tables
// (2·n²·8 bytes plus row headers).
func TestTableRouterFootprint(t *testing.T) {
	g := debruijn.DeBruijn(3, 5)
	n := g.N()
	r := NewTableRouter(g)
	if got, want := r.Footprint(), n*n; got != want {
		t.Fatalf("Footprint() = %d, want %d (one int8 per pair)", got, want)
	}
	historical := 2 * n * n * 8
	if r.Footprint()*2 > historical {
		t.Fatalf("Footprint() = %d not at least 2x below the historical %d", r.Footprint(), historical)
	}
}

// BenchmarkTableRouterBuild measures slab construction; B/op here is the
// number the PR's ≥2× router-construction reduction is claimed against.
func BenchmarkTableRouterBuild(b *testing.B) {
	g := debruijn.DeBruijn(3, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTableRouter(g)
	}
}

// checkFaultAccounting asserts the invariant Delivered + Dropped ==
// Offered and that the drop buckets partition Dropped.
func checkFaultAccounting(t *testing.T, res FaultResult, offered int) {
	t.Helper()
	if res.Delivered+res.Dropped != offered {
		t.Fatalf("accounting leak: delivered %d + dropped %d != offered %d (%v)",
			res.Delivered, res.Dropped, offered, res)
	}
	buckets := res.DroppedTTL + res.DroppedNoRoute + res.DroppedFault + res.DroppedHorizon + res.Stuck
	if buckets != res.Dropped {
		t.Fatalf("drop buckets sum to %d, Dropped = %d (%v)", buckets, res.Dropped, res)
	}
	if f := res.DeliveredFraction(); f < 0 || f > 1 {
		t.Fatalf("DeliveredFraction %v out of [0,1]", f)
	}
}

// TestFaultAccountingAdversarialReleases property-tests the exit path:
// random workloads whose Release schedules deliberately straddle and
// exceed tight cycle budgets, under random fault plans, must always
// satisfy Delivered + Dropped == Offered with the buckets partitioning
// Dropped — including the horizon bucket for packets never injected.
func TestFaultAccountingAdversarialReleases(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	n := g.N()
	router := NewTableRouter(g)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pkts := make([]Packet, 60)
		for i := range pkts {
			release := rng.Intn(40)
			switch rng.Intn(4) {
			case 0:
				release = 1_000_000 + rng.Intn(100) // far beyond any budget
			case 1:
				release = 30 + rng.Intn(60) // straddles MaxCycles
			}
			pkts[i] = Packet{ID: i, Src: rng.Intn(n), Dst: rng.Intn(n), Release: release}
		}
		plan := NewFaultPlan()
		for f := 0; f < rng.Intn(8); f++ {
			u := rng.Intn(n)
			k := rng.Intn(g.OutDegree(u))
			duration := 0
			if rng.Intn(2) == 0 {
				duration = 1 + rng.Intn(20)
			}
			plan.LinkDown(rng.Intn(30), duration, u, k)
		}
		if rng.Intn(3) == 0 {
			plan.NodeDown(rng.Intn(30), 1+rng.Intn(10), rng.Intn(n))
		}
		nw, err := NewNetwork(g, WithRouter(router), WithMaxCycles(30+rng.Intn(40)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan), WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		checkFaultAccounting(t, res.FaultResult, len(pkts))
		if err := VerifyTrace(g, pkts, res.Events); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestHorizonPacketsDropped is the regression test for the historical
// leak: a packet released beyond MaxCycles was counted into the
// outstanding set but never injected nor dropped, so it vanished from
// the accounting. It must now land in DroppedHorizon.
func TestHorizonPacketsDropped(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)), WithMaxCycles(20))
	if err != nil {
		t.Fatal(err)
	}
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 3, Release: 0},
		{ID: 1, Src: 1, Dst: 4, Release: 5000}, // beyond the budget
	}
	res, err := nw.RunOpts(Fixed(pkts), WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}
	checkFaultAccounting(t, res.FaultResult, len(pkts))
	if res.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", res.Delivered)
	}
	if res.DroppedHorizon != 1 {
		t.Fatalf("DroppedHorizon = %d, want 1 (%v)", res.DroppedHorizon, res)
	}
	if res.Stuck != 0 {
		t.Fatalf("Stuck = %d, want 0 — the horizon packet has its own bucket", res.Stuck)
	}
}

// TestDegradationSweepDeterministicAcrossWorkers asserts that the sweep
// is a pure function of (rates, packets, seed): scheduling the points
// over different worker counts must not change a single field.
func TestDegradationSweepDeterministicAcrossWorkers(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	router := NewTableRouter(g)
	rates := []float64{0, 0.1, 0.3, 0.6, 1}
	want, err := DegradationSweep(g, router, rates, 150, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 0} { // 0 selects GOMAXPROCS
		got, err := DegradationSweep(g, router, rates, 150, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep diverged\n got %v\nwant %v", workers, got, want)
		}
	}
}

// TestSharedNetworkConcurrentRuns drives one Network from many
// goroutines at once — plain runs and fault runs mixed — and checks
// every result matches its sequential twin. Run under -race this is the
// shared-slab/arena safety proof.
func TestSharedNetworkConcurrentRuns(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	sequential := make([]Result, goroutines)
	for i := range sequential {
		sequential[i] = runFixed(t, nw, Permutation(g.N(), int64(i)))
	}
	seqFault, err := nw.RunOpts(Fixed(UniformRandom(g.N(), 100, 3)), WithFaults(nil))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2*goroutines)
	results := make([]RunReport, goroutines)
	faults := make([]RunReport, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[2*i] = nw.RunOpts(Fixed(Permutation(g.N(), int64(i))))
			faults[i], errs[2*i+1] = nw.RunOpts(Fixed(UniformRandom(g.N(), 100, 3)), WithFaults(nil))
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if err := errors.Join(errs[2*i], errs[2*i+1]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].Result, sequential[i]) {
			t.Fatalf("goroutine %d: concurrent run diverged from sequential", i)
		}
		if !reflect.DeepEqual(faults[i], seqFault) {
			t.Fatalf("goroutine %d: concurrent fault run diverged from sequential", i)
		}
	}
}

// TestArenaReuseKeepsRunsIndependent re-runs different workloads
// back-to-back on one Network and cross-checks against fresh Networks:
// recycled scratch must never leak state between runs.
func TestArenaReuseKeepsRunsIndependent(t *testing.T) {
	g := debruijn.DeBruijn(3, 3)
	shared, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		fresh, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
		if err != nil {
			t.Fatal(err)
		}
		pkts := PoissonArrivals(g.N(), 120, 0.4, seed)
		got := runFixed(t, shared, pkts)
		want := runFixed(t, fresh, pkts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: arena-reusing run diverged from fresh network", seed)
		}
	}
}

// TestSortByReleaseAllocFree pins the injection schedule's sort: it
// orders by (Release, index) and allocates nothing, on unsorted input
// and on input already in that order — it runs once per run.
func TestSortByReleaseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pkts := make([]Packet, 500)
	for i := range pkts {
		pkts[i].Release = rng.Intn(40)
	}
	base := make([]int32, 0, len(pkts))
	for i := range pkts {
		if i%7 != 0 { // order holds a subsequence, as after setup drops
			base = append(base, int32(i))
		}
	}
	order := make([]int32, len(base))
	copy(order, base)
	sortByRelease(order, pkts)
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if ra, rb := pkts[a].Release, pkts[b].Release; ra > rb || (ra == rb && a > b) {
			t.Fatalf("order[%d..%d] = %d (release %d), %d (release %d): not in (Release, index) order", k-1, k, a, ra, b, rb)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		copy(order, base)
		sortByRelease(order, pkts)
	}); allocs != 0 {
		t.Fatalf("sorting allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sortByRelease(order, pkts) }); allocs != 0 {
		t.Fatalf("sorting sorted input allocates %.1f times per call, want 0", allocs)
	}
}
