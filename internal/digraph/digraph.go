// Package digraph implements directed multigraphs and the graph algorithms
// required by the de Bruijn / OTIS reproduction: BFS distances and diameter,
// strong and weak connectivity, digraph conjunction (Definition 2.3 of the
// paper), line digraphs, reversal, and isomorphism testing.
//
// Digraphs here are multigraphs with loops allowed: the de Bruijn digraph
// B(d, D) has d loops-free... in fact B(d, D) contains d loops (at the
// constant words) and, for D = 1, parallel structure arises in conjunctions,
// so arcs are stored as an adjacency list that may repeat a head vertex.
package digraph

import (
	"fmt"
	"sort"
)

// Digraph is a directed multigraph on vertices 0..n-1 with adjacency lists.
// The zero value is the empty digraph on zero vertices.
type Digraph struct {
	adj [][]int // adj[u] lists the heads of arcs leaving u, in insertion order
	m   int     // arc count
}

// New returns an arcless digraph on n vertices.
func New(n int) *Digraph {
	if n < 0 {
		panic("digraph: negative vertex count")
	}
	return &Digraph{adj: make([][]int, n)}
}

// FromFunc builds a digraph on n vertices whose out-neighbourhood of u is
// out(u). The returned slice is copied. Heads must be in [0, n).
func FromFunc(n int, out func(u int) []int) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for _, v := range out(u) {
			g.AddArc(u, v)
		}
	}
	return g
}

// Regular returns the digraph on n vertices in which vertex u has the d
// out-neighbours heads[u·d : (u+1)·d], in that order. It takes ownership
// of heads (len n·d, every head in [0, n)) and cuts every adjacency list
// from it, so a d-regular construction fills one slab instead of n lists.
// Each list's capacity ends at its length: an AddArc on one vertex
// reallocates that list instead of overwriting its neighbour's.
func Regular(n, d int, heads []int) *Digraph {
	if d < 0 || len(heads) != n*d {
		panic(fmt.Sprintf("digraph: Regular(%d, %d) needs %d heads, got %d", n, d, n*d, len(heads)))
	}
	g := New(n)
	for k, v := range heads {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("digraph: arc (%d,%d) out of range [0,%d)", k/d, v, n))
		}
	}
	for u := range g.adj {
		g.adj[u] = heads[u*d : (u+1)*d : (u+1)*d]
	}
	g.m = len(heads)
	return g
}

// AddArc adds the arc (u, v). Parallel arcs and loops are allowed.
func (g *Digraph) AddArc(u, v int) {
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("digraph: arc (%d,%d) out of range [0,%d)", u, v, n))
	}
	g.adj[u] = append(g.adj[u], v)
	g.m++
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.adj) }

// M returns the number of arcs.
func (g *Digraph) M() int { return g.m }

// Out returns the out-neighbour list Γ⁺(u). The slice is shared with the
// digraph; callers must not modify it.
func (g *Digraph) Out(u int) []int { return g.adj[u] }

// OutDegree returns |Γ⁺(u)| counted with multiplicity.
func (g *Digraph) OutDegree(u int) int { return len(g.adj[u]) }

// InDegrees returns the in-degree of every vertex, counted with
// multiplicity.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.N())
	for _, heads := range g.adj {
		for _, v := range heads {
			in[v]++
		}
	}
	return in
}

// IsOutRegular reports whether every vertex has out-degree exactly d.
func (g *Digraph) IsOutRegular(d int) bool {
	for u := range g.adj {
		if len(g.adj[u]) != d {
			return false
		}
	}
	return true
}

// IsInRegular reports whether every vertex has in-degree exactly d.
func (g *Digraph) IsInRegular(d int) bool {
	for _, in := range g.InDegrees() {
		if in != d {
			return false
		}
	}
	return true
}

// IsRegular reports whether g is d-in-regular and d-out-regular, the
// regularity the de Bruijn-like digraphs of the paper all satisfy.
func (g *Digraph) IsRegular(d int) bool {
	return g.IsOutRegular(d) && g.IsInRegular(d)
}

// HasArc reports whether at least one arc (u, v) exists.
func (g *Digraph) HasArc(u, v int) bool {
	for _, head := range g.adj[u] {
		if head == v {
			return true
		}
	}
	return false
}

// ArcMultiplicity returns the number of parallel (u, v) arcs.
func (g *Digraph) ArcMultiplicity(u, v int) int {
	count := 0
	for _, head := range g.adj[u] {
		if head == v {
			count++
		}
	}
	return count
}

// Loops returns the vertices carrying at least one loop, increasing.
func (g *Digraph) Loops() []int {
	var loops []int
	for u := range g.adj {
		if g.HasArc(u, u) {
			loops = append(loops, u)
		}
	}
	return loops
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	h := New(g.N())
	for u, heads := range g.adj {
		h.adj[u] = append([]int(nil), heads...)
	}
	h.m = g.m
	return h
}

// Equal reports whether g and h have identical vertex sets and identical
// arc multisets (adjacency order is ignored).
func (g *Digraph) Equal(h *Digraph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.adj {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		a := append([]int(nil), g.adj[u]...)
		b := append([]int(nil), h.adj[u]...)
		sort.Ints(a)
		sort.Ints(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// Reverse returns the digraph G⁻ obtained by reversing every arc. The paper
// uses it in Section 4.2: if G has an OTIS(p,q)-layout then G⁻ has an
// OTIS(q,p)-layout.
func (g *Digraph) Reverse() *Digraph {
	h := New(g.N())
	for u, heads := range g.adj {
		for _, v := range heads {
			h.AddArc(v, u)
		}
	}
	return h
}

// SortedOut returns a sorted copy of Γ⁺(u); useful for deterministic output.
func (g *Digraph) SortedOut(u int) []int {
	out := append([]int(nil), g.adj[u]...)
	sort.Ints(out)
	return out
}

// DegreeSequence returns the sorted multiset of (out-degree, in-degree)
// pairs encoded as out*stride+in with stride = max degree + 1; used as a
// cheap isomorphism invariant.
func (g *Digraph) DegreeSequence() []int {
	in := g.InDegrees()
	maxDeg := 0
	for u := range g.adj {
		if len(g.adj[u]) > maxDeg {
			maxDeg = len(g.adj[u])
		}
		if in[u] > maxDeg {
			maxDeg = in[u]
		}
	}
	stride := maxDeg + 1
	seq := make([]int, g.N())
	for u := range g.adj {
		seq[u] = len(g.adj[u])*stride + in[u]
	}
	sort.Ints(seq)
	return seq
}

// String renders a small digraph as one adjacency line per vertex.
func (g *Digraph) String() string {
	s := fmt.Sprintf("digraph n=%d m=%d\n", g.N(), g.M())
	for u := range g.adj {
		s += fmt.Sprintf("  %d -> %v\n", u, g.SortedOut(u))
	}
	return s
}
