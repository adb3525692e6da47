package simnet

import (
	"testing"

	"repro/internal/debruijn"
)

// routeIntsNextArc is the historical DeBruijnRouter.NextArc: materialize
// the whole congruence-form route with debruijn.RouteInts and recover the
// first letter from the first hop. It allocated a path slice per routing
// decision; the arithmetic NextArc must agree with it everywhere.
func routeIntsNextArc(d, D, n, at, dst int) int {
	if at == dst {
		return -1
	}
	path := debruijn.RouteInts(d, D, at, dst)
	next := path[1]
	alpha := (next - d*at) % n
	if alpha < 0 {
		alpha += n
	}
	return alpha % d
}

// TestDeBruijnNextArcMatchesRouteInts pins the arithmetic NextArc to the
// RouteInts-derived decision on every (at, dst) pair of several B(d, D).
func TestDeBruijnNextArcMatchesRouteInts(t *testing.T) {
	for _, tc := range []struct{ d, D int }{{2, 3}, {2, 6}, {3, 4}, {4, 3}, {5, 2}} {
		r := NewDeBruijnRouter(tc.d, tc.D)
		n := r.n
		for at := 0; at < n; at++ {
			for dst := 0; dst < n; dst++ {
				want := routeIntsNextArc(tc.d, tc.D, n, at, dst)
				if got := r.NextArc(at, dst); got != want {
					t.Fatalf("B(%d,%d) NextArc(%d,%d) = %d, RouteInts says %d",
						tc.d, tc.D, at, dst, got, want)
				}
			}
		}
	}
}

// TestDeBruijnNextArcFollowsShortestPaths walks every pair to its
// destination through repeated NextArc decisions and checks the walk
// length equals the true shortest-path distance.
func TestDeBruijnNextArcFollowsShortestPaths(t *testing.T) {
	for _, tc := range []struct{ d, D int }{{2, 4}, {3, 3}} {
		g := debruijn.DeBruijn(tc.d, tc.D)
		r := NewDeBruijnRouter(tc.d, tc.D)
		dist := g.DistanceSlab()
		n := g.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				at, hops := src, 0
				for at != dst {
					arc := r.NextArc(at, dst)
					if arc < 0 {
						t.Fatalf("B(%d,%d): no route %d->%d", tc.d, tc.D, src, dst)
					}
					at = g.Out(at)[arc]
					hops++
					if hops > tc.D {
						t.Fatalf("B(%d,%d): %d->%d exceeded diameter %d", tc.d, tc.D, src, dst, tc.D)
					}
				}
				if want := int(dist[src*n+dst]); hops != want {
					t.Fatalf("B(%d,%d): %d->%d took %d hops, distance %d", tc.d, tc.D, src, dst, hops, want)
				}
			}
		}
	}
}

// TestDeBruijnNextArcAllocFree proves the hot-path routing decision
// allocates nothing — the bug this PR fixes had RouteInts allocating a
// path slice on every decision of the run loop.
func TestDeBruijnNextArcAllocFree(t *testing.T) {
	r := NewDeBruijnRouter(3, 7)
	n := r.n
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sink += r.NextArc(sink%n, (sink*2617+1)%n)
	})
	if allocs != 0 {
		t.Fatalf("NextArc allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkDeBruijnNextArc measures one routing decision on B(3,7);
// must report 0 allocs/op.
func BenchmarkDeBruijnNextArc(b *testing.B) {
	r := NewDeBruijnRouter(3, 7)
	n := r.n
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.NextArc(i%n, (i*2617+1)%n)
	}
	_ = sink
}

// TestDeBruijnRouterMatchesTableRouter is the catalog-wide differential
// test: on B(2,6), B(3,4) and B(3,5), route the complete exchange through
// both the table-free DeBruijnRouter and the shortest-path TableRouter
// under RunOpts and require identical per-packet hop counts and delivered
// sets. De Bruijn shortest paths are not unique, so the routes may
// differ — but both routers claim shortest-path routing, so every packet
// must be delivered in exactly distance(src, dst) hops by both.
func TestDeBruijnRouterMatchesTableRouter(t *testing.T) {
	for _, tc := range []struct{ d, D int }{{2, 6}, {3, 4}, {3, 5}} {
		g := debruijn.DeBruijn(tc.d, tc.D)
		nwWord, err := NewNetwork(g, WithRouter(NewDeBruijnRouter(tc.d, tc.D)))
		if err != nil {
			t.Fatal(err)
		}
		nwTable, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
		if err != nil {
			t.Fatal(err)
		}
		repWord, err := nwWord.RunOpts(AllToAllLoad())
		if err != nil {
			t.Fatal(err)
		}
		repTable, err := nwTable.RunOpts(AllToAllLoad())
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		if repWord.Delivered != n*(n-1) || repTable.Delivered != n*(n-1) {
			t.Fatalf("B(%d,%d): delivered %d (word) / %d (table), want %d",
				tc.d, tc.D, repWord.Delivered, repTable.Delivered, n*(n-1))
		}
		pw, pt := repWord.Packets, repTable.Packets
		if len(pw) != len(pt) {
			t.Fatalf("B(%d,%d): packet counts differ: %d vs %d", tc.d, tc.D, len(pw), len(pt))
		}
		for i := range pw {
			if pw[i].Src != pt[i].Src || pw[i].Dst != pt[i].Dst {
				t.Fatalf("B(%d,%d): packet %d endpoints differ", tc.d, tc.D, i)
			}
			if (pw[i].Delivered >= 0) != (pt[i].Delivered >= 0) {
				t.Fatalf("B(%d,%d): packet %d (%d->%d) delivered by one router only (word del=%d, table del=%d)",
					tc.d, tc.D, i, pw[i].Src, pw[i].Dst, pw[i].Delivered, pt[i].Delivered)
			}
			if pw[i].Hops != pt[i].Hops {
				t.Fatalf("B(%d,%d): packet %d (%d->%d) hop counts differ: word %d, table %d",
					tc.d, tc.D, i, pw[i].Src, pw[i].Dst, pw[i].Hops, pt[i].Hops)
			}
		}
	}
}

// TestShiftNextArcMatchesTableEverywhere is the per-pair differential
// for the table-free lean path: on every B(d, D) in the catalog the
// closed-form shift decision must equal the slab gather for every
// (at, dst) pair, so replacing the gather with DeBruijnRouter.NextArc in
// the fused kernel cannot change a single routing decision. (The repo's
// reverse-BFS table breaks shortest-path ties by discovery order, which
// on congruence-form de Bruijn graphs is exactly the maximal-overlap
// shift rule.)
func TestShiftNextArcMatchesTableEverywhere(t *testing.T) {
	for _, tc := range []struct{ d, D int }{
		{2, 3}, {2, 6}, {2, 8}, {2, 10},
		{3, 3}, {3, 4}, {3, 5},
		{4, 3}, {4, 4},
		{5, 2}, {6, 2},
	} {
		g := debruijn.DeBruijn(tc.d, tc.D)
		tab := NewTableRouter(g)
		shf := NewDeBruijnRouter(tc.d, tc.D)
		n := g.N()
		for at := 0; at < n; at++ {
			for dst := 0; dst < n; dst++ {
				if at == dst {
					continue
				}
				if a, b := tab.NextArc(at, dst), shf.NextArc(at, dst); a != b {
					t.Fatalf("B(%d,%d): NextArc(%d, %d) = %d (table) vs %d (shift)",
						tc.d, tc.D, at, dst, a, b)
				}
			}
		}
	}
}
