package simnet

import (
	"fmt"
	"math/rand"
	"strings"
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

// divisionRouter is the congruence-form overlap loop the shift router
// ran before its shift-and-compare loop, frozen here as a reference: it
// finds the overlap k by a mod d^k = ⌊b/d^(D−k)⌋ for k = D−1 down to 1,
// with two divisions per candidate, in 64-bit int arithmetic.
type divisionRouter struct {
	d, D int
	pow  []int
}

func newDivisionRouter(d, D int) divisionRouter {
	pow := make([]int, D+1)
	pow[0] = 1
	for i := 1; i <= D; i++ {
		pow[i] = pow[i-1] * d
	}
	return divisionRouter{d: d, D: D, pow: pow}
}

func (r divisionRouter) overlap(a, b int) int {
	k := r.D - 1
	for ; k > 0; k-- {
		if a%r.pow[k] == b/r.pow[r.D-k] {
			break
		}
	}
	return k
}

func (r divisionRouter) start(a, b int) int {
	k := r.overlap(a, b)
	return b % r.pow[r.D-k] * r.pow[k]
}

func (r divisionRouter) nextArc(a, b int) int {
	return (b / r.pow[r.D-r.overlap(a, b)-1]) % r.d
}

// TestShiftOverlapMatchesDivisionAtInt32Edge pins start, NextArc and
// distance to the frozen division loop on the largest B(d, D) of their
// alphabets a router serves, where x·d and the carried state approach
// 2^31: on seeded uniform pairs, on every pair of the edge labels 0, 1,
// d^(D−1)−1, d^(D−1), n−2 and n−1, and on pairs built to overlap in
// every k from 1 to D−1.
func TestShiftOverlapMatchesDivisionAtInt32Edge(t *testing.T) {
	for _, tc := range []struct{ d, D int }{{2, 30}, {3, 19}, {7, 11}, {1290, 3}, {46340, 2}} {
		r := NewDeBruijnRouter(tc.d, tc.D)
		ref := newDivisionRouter(tc.d, tc.D)
		n, top := ref.pow[tc.D], ref.pow[tc.D-1]
		rng := rand.New(rand.NewSource(int64(tc.d*100 + tc.D)))
		var pairs [][2]int
		for range 20000 {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		edge := []int{0, 1, top - 1, top, n - 2, n - 1}
		for _, a := range edge {
			for _, b := range edge {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		for k := 1; k < tc.D; k++ {
			for range 200 {
				a := rng.Intn(n)
				b := a%ref.pow[k]*ref.pow[tc.D-k] + rng.Intn(ref.pow[tc.D-k])
				pairs = append(pairs, [2]int{a, b})
			}
		}
		name := fmt.Sprintf("B(%d,%d)", tc.d, tc.D)
		for _, p := range pairs {
			a, b := p[0], p[1]
			if a == b {
				if r.NextArc(a, b) != -1 || r.distance(a, b) != 0 {
					t.Fatalf("%s: NextArc(%d, %d) = %d, distance %d, want -1 and 0", name, a, b, r.NextArc(a, b), r.distance(a, b))
				}
				continue
			}
			if got, want := int(r.start(a, b)), ref.start(a, b); got != want {
				t.Fatalf("%s: start(%d, %d) = %d, division loop %d", name, a, b, got, want)
			}
			if got, want := r.NextArc(a, b), ref.nextArc(a, b); got != want {
				t.Fatalf("%s: NextArc(%d, %d) = %d, division loop %d", name, a, b, got, want)
			}
			if got, want := int(r.distance(a, b)), tc.D-ref.overlap(a, b); got != want {
				t.Fatalf("%s: distance(%d, %d) = %d, division loop %d", name, a, b, got, want)
			}
		}
	}
}

// TestDeBruijnRouterInt32Range: a router's labels are int32, so
// NewDeBruijnRouter serves d^D ≤ math.MaxInt32 and panics, naming the
// int32 label range, just above it.
func TestDeBruijnRouterInt32Range(t *testing.T) {
	for _, tc := range []struct {
		d, D  int
		panic bool
	}{{2, 30, false}, {46340, 2, false}, {2, 31, true}, {3, 20, true}, {46341, 2, true}} {
		msg := func() (msg string) {
			defer func() {
				if v := recover(); v != nil {
					msg = fmt.Sprint(v)
				}
			}()
			NewDeBruijnRouter(tc.d, tc.D)
			return ""
		}()
		switch {
		case tc.panic && !strings.Contains(msg, "int32 label range"):
			t.Errorf("NewDeBruijnRouter(%d, %d): panic %q, want one naming the int32 label range", tc.d, tc.D, msg)
		case !tc.panic && msg != "":
			t.Errorf("NewDeBruijnRouter(%d, %d) panicked: %s", tc.d, tc.D, msg)
		}
	}
}

// BenchmarkDeBruijnNextArc measures one routing decision, the
// per-packet start and the NextArc a custom engine calls per hop, on
// congruence-form B(3,7) and B(4,8) and on the OTIS(64,128) ⊢ B(2,12)
// witness, over 4,096 seeded uniform pairs at ≠ dst; every
// sub-benchmark must report 0 allocs/op.
func BenchmarkDeBruijnNextArc(b *testing.B) {
	otis212, ok := otisWitness(b, 2, 12)
	if !ok {
		b.Fatal("no OTIS layout for B(2,12)")
	}
	for _, rc := range []struct {
		name string
		r    *DeBruijnRouter
	}{
		{"B(3,7)", NewDeBruijnRouter(3, 7)},
		{"B(4,8)", NewDeBruijnRouter(4, 8)},
		{"OTIS(64,128)", otis212.r},
	} {
		pairs := UniformRandom(rc.r.n, 1<<12, 1)
		b.Run("start/"+rc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				p := &pairs[i&(len(pairs)-1)]
				sink += rc.r.start(p.Src, p.Dst)
			}
			benchSink += int(sink)
		})
		b.Run("NextArc/"+rc.name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				p := &pairs[i&(len(pairs)-1)]
				sink += rc.r.NextArc(p.Src, p.Dst)
			}
			benchSink += sink
		})
	}
}

// benchSink keeps the benchmarks' routing results observable.
var benchSink int

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
