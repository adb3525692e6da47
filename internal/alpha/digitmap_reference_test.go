package alpha

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/perm"
	"repro/internal/word"
)

// Word-by-word references for A(f, σ, j): the digraph adds each vertex's
// Successors one arc at a time, and the witness moves every label's
// letters with ApplyIndex before reading W. The digit-map constructions
// must return the same mapping and the same adjacency lists, element by
// element (digraph.Equal ignores order).

func refDigraph(a *Alpha) *digraph.Digraph {
	d, D := a.D(), a.Dim()
	return digraph.FromFunc(a.N(), func(u int) []int {
		x := word.MustFromInt(d, D, u)
		succ := a.Successors(x)
		out := make([]int, len(succ))
		for i, y := range succ {
			out[i] = y.Int()
		}
		return out
	})
}

func refIsoToDeBruijn(a *Alpha) []int {
	g, ok := a.GPerm()
	if !ok {
		panic("alpha: reference witness needs a cyclic f")
	}
	gInv := g.Inverse()
	d, D := a.D(), a.Dim()
	w := debruijn.WitnessW(d, D, a.sigma)
	n := a.N()
	mapping := make([]int, n)
	for u := 0; u < n; u++ {
		x := word.MustFromInt(d, D, u)
		// (g→)⁻¹ = (g⁻¹)→ carries the A-vertex back to its B_σ label,
		// then W carries B_σ onto B.
		mapping[u] = w[x.ApplyIndex(gInv).Int()]
	}
	return mapping
}

func sameOut(t *testing.T, name string, got, want *digraph.Digraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, reference n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < got.N(); u++ {
		g, w := got.Out(u), want.Out(u)
		if len(g) != len(w) {
			t.Fatalf("%s: Out(%d) = %v, reference %v", name, u, g, w)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("%s: Out(%d) = %v, reference %v", name, u, g, w)
			}
		}
	}
}

// TestDigraphMatchesWordReference covers every f of Z_D for D ≤ 5,
// cyclic or not, and seeded random f for D = 6, each with a seeded
// random σ and free position j.
func TestDigraphMatchesWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for d := 1; d <= 5; d++ {
		for D := 1; D <= 6; D++ {
			check := func(f perm.Perm) {
				a := MustNew(f, perm.Random(d, rng), rng.Intn(D))
				name := fmt.Sprintf("A(%v,%v,%d)", a.f, a.sigma, a.j)
				sameOut(t, name, a.Digraph(), refDigraph(a))
			}
			if D == 6 {
				for k := 0; k < 8; k++ {
					check(perm.Random(D, rng))
				}
				continue
			}
			perm.All(D, func(f perm.Perm) bool {
				check(f)
				return true
			})
		}
	}
}

// TestIsoToDeBruijnMatchesWordReference covers every cyclic f of Z_D for
// D ≤ 5 and seeded random cyclic f for D = 6.
func TestIsoToDeBruijnMatchesWordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for d := 1; d <= 5; d++ {
		for D := 1; D <= 6; D++ {
			seen := 0
			perm.AllCyclic(D, func(f perm.Perm) bool {
				if D == 6 && rng.Intn(10) != 0 {
					return true
				}
				seen++
				a := MustNew(f, perm.Random(d, rng), rng.Intn(D))
				got, err := a.IsoToDeBruijn()
				if err != nil {
					t.Fatalf("A(%v,%v,%d): %v", a.f, a.sigma, a.j, err)
				}
				want := refIsoToDeBruijn(a)
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("A(%v,%v,%d): label %d maps to %d, reference %d", a.f, a.sigma, a.j, u, got[u], want[u])
					}
				}
				return true
			})
			if seen == 0 {
				t.Fatalf("d=%d D=%d: no cyclic f checked", d, D)
			}
		}
	}
}
