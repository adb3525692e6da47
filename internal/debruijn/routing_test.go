package debruijn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/word"
)

func TestDistanceAgainstBFS(t *testing.T) {
	// The word-overlap distance formula must agree with BFS on B(d, D).
	for _, c := range []struct{ d, D int }{{2, 4}, {2, 5}, {3, 3}} {
		g := DeBruijn(c.d, c.D)
		n := g.N()
		for u := 0; u < n; u++ {
			dist := g.BFSFrom(u)
			uw := word.MustFromInt(c.d, c.D, u)
			for v := 0; v < n; v++ {
				vw := word.MustFromInt(c.d, c.D, v)
				if got := Distance(uw, vw); got != dist[v] {
					t.Fatalf("B(%d,%d): Distance(%s,%s) = %d, BFS = %d",
						c.d, c.D, uw, vw, got, dist[v])
				}
			}
		}
	}
}

func TestRouteIsValidShortestPath(t *testing.T) {
	d, D := 2, 6
	g := DeBruijn(d, D)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		src := word.MustFromInt(d, D, rng.Intn(g.N()))
		dst := word.MustFromInt(d, D, rng.Intn(g.N()))
		path := Route(src, dst)
		if !path[0].Equal(src) || !path[len(path)-1].Equal(dst) {
			t.Fatalf("route endpoints wrong: %v", path)
		}
		for i := 0; i+1 < len(path); i++ {
			if !g.HasArc(path[i].Int(), path[i+1].Int()) {
				t.Fatalf("route uses missing arc %s -> %s", path[i], path[i+1])
			}
		}
		if len(path)-1 != Distance(src, dst) {
			t.Fatalf("route length %d != distance %d", len(path)-1, Distance(src, dst))
		}
	}
}

func TestRouteSelf(t *testing.T) {
	w := word.MustFromLetters(2, 1, 0, 1)
	path := Route(w, w)
	if len(path) != 1 || !path[0].Equal(w) {
		t.Fatalf("self route = %v", path)
	}
}

func TestRouteInts(t *testing.T) {
	path := RouteInts(2, 3, 5, 2)
	// 101 -> 010: overlap k: suffix "01" of 101 = prefix "01" of 010 → k=2,
	// distance 1: 101 -> 010.
	if len(path) != 2 || path[0] != 5 || path[1] != 2 {
		t.Fatalf("RouteInts(5,2) = %v", path)
	}
}

func TestNextHopConsistentWithRoute(t *testing.T) {
	d, D := 3, 4
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		src := word.MustFromInt(d, D, rng.Intn(word.Pow(d, D)))
		dst := word.MustFromInt(d, D, rng.Intn(word.Pow(d, D)))
		hop, ok := NextHop(src, dst)
		path := Route(src, dst)
		if !ok {
			if !src.Equal(dst) {
				t.Fatal("NextHop refused distinct endpoints")
			}
			continue
		}
		if !hop.Equal(path[1]) {
			t.Fatalf("NextHop(%s,%s) = %s, route goes via %s", src, dst, hop, path[1])
		}
	}
}

func TestQuickRouteLengthBound(t *testing.T) {
	// Property: every route has length at most D (the diameter).
	f := func(s, u uint16) bool {
		d, D := 2, 7
		n := word.Pow(d, D)
		src := word.MustFromInt(d, D, int(s)%n)
		dst := word.MustFromInt(d, D, int(u)%n)
		return len(Route(src, dst))-1 <= D
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastTree(t *testing.T) {
	d, D := 2, 5
	parent, depth := BroadcastTree(d, D, 0)
	g := DeBruijn(d, D)
	n := g.N()
	maxDepth := 0
	for v := 0; v < n; v++ {
		if v == 0 {
			if parent[v] != -1 || depth[v] != 0 {
				t.Fatal("root fields wrong")
			}
			continue
		}
		if parent[v] < 0 {
			t.Fatalf("vertex %d unreached", v)
		}
		if !g.HasArc(parent[v], v) {
			t.Fatalf("tree arc (%d,%d) not in digraph", parent[v], v)
		}
		if depth[v] != depth[parent[v]]+1 {
			t.Fatalf("depth inconsistent at %d", v)
		}
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	if maxDepth != D {
		t.Errorf("broadcast depth = %d, want %d", maxDepth, D)
	}
	// Depths must equal BFS distances (shortest-path broadcast).
	dist := g.BFSFrom(0)
	for v := 0; v < n; v++ {
		if dist[v] != depth[v] {
			t.Fatalf("depth[%d] = %d, BFS = %d", v, depth[v], dist[v])
		}
	}
}
