package otis

import (
	"math"
	"testing"

	"repro/internal/digraph"
	"repro/internal/perm"
	"repro/internal/word"
)

// Word-by-word references for the OTIS machine's construction: H adds each
// node's d transpose arcs through FromFunc, and the layout witness builds
// Proposition 3.2's W one Word per label, then moves every label's letters
// with ApplyIndex (Proposition 3.9). H and LayoutWitness must return the
// same adjacency lists and mapping, element by element.

func refH(p, q, d int) *digraph.Digraph {
	s := System{P: p, Q: q}
	n := p * q / d
	return digraph.FromFunc(n, func(u int) []int {
		out := make([]int, d)
		for beta := 0; beta < d; beta++ {
			t := d*u + beta
			out[beta] = s.ConnectionID(t) / d
		}
		return out
	})
}

func refLayoutWitness(d, pPrime, qPrime int) []int {
	a := AlphaForLayout(d, pPrime, qPrime)
	g, ok := a.GPerm()
	if !ok {
		panic("otis: reference witness needs a cyclic split")
	}
	gInv := g.Inverse()
	D := a.Dim()
	sigma := a.Sigma()
	powers := make([]perm.Perm, D)
	powers[0] = perm.Identity(d)
	for k := 1; k < D; k++ {
		powers[k] = sigma.Compose(powers[k-1])
	}
	n := word.Pow(d, D)
	w := make([]int, n)
	for u := 0; u < n; u++ {
		x := word.MustFromInt(d, D, u)
		y := word.New(d, D)
		for i := 0; i < D; i++ {
			y = y.WithLetter(i, powers[D-1-i].Apply(x.Letter(i)))
		}
		w[u] = y.Int()
	}
	mapping := make([]int, n)
	for u := 0; u < n; u++ {
		x := word.MustFromInt(d, D, u)
		mapping[u] = w[x.ApplyIndex(gInv).Int()]
	}
	return mapping
}

func sameH(t *testing.T, p, q, d int) {
	t.Helper()
	got, want := MustH(p, q, d), refH(p, q, d)
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("H(%d,%d,%d): n=%d m=%d, reference n=%d m=%d", p, q, d, got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < got.N(); u++ {
		g, w := got.Out(u), want.Out(u)
		for k := range w {
			if len(g) != len(w) || g[k] != w[k] {
				t.Fatalf("H(%d,%d,%d): Out(%d) = %v, reference %v", p, q, d, u, g, w)
			}
		}
	}
}

func TestHMatchesFromFunc(t *testing.T) {
	for p := 1; p <= 12; p++ {
		for q := 1; q <= 12; q++ {
			for d := 1; d <= 5; d++ {
				if p*q%d == 0 {
					sameH(t, p, q, d)
				}
			}
		}
	}
}

// TestLayoutWitnessMatchesWordReference runs every split of D ≤ 12 at
// d = 2 and of D ≤ 7 at d = 3: H must match its reference on every split,
// cyclic splits must give the reference mapping, the others an error.
func TestLayoutWitnessMatchesWordReference(t *testing.T) {
	for _, c := range []struct{ d, maxD int }{{2, 12}, {3, 7}} {
		for D := 1; D <= c.maxD; D++ {
			for pPrime := 1; pPrime <= D; pPrime++ {
				qPrime := D + 1 - pPrime
				sameH(t, word.Pow(c.d, pPrime), word.Pow(c.d, qPrime), c.d)
				got, err := LayoutWitness(c.d, pPrime, qPrime)
				if !IsDeBruijnLayout(pPrime, qPrime) {
					if err == nil {
						t.Errorf("d=%d split (%d,%d): non-cyclic split accepted", c.d, pPrime, qPrime)
					}
					continue
				}
				if err != nil {
					t.Fatalf("d=%d split (%d,%d): %v", c.d, pPrime, qPrime, err)
				}
				want := refLayoutWitness(c.d, pPrime, qPrime)
				if len(got) != len(want) {
					t.Fatalf("d=%d split (%d,%d): %d labels, reference %d", c.d, pPrime, qPrime, len(got), len(want))
				}
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("d=%d split (%d,%d): label %d maps to %d, reference %d",
							c.d, pPrime, qPrime, u, got[u], want[u])
					}
				}
			}
		}
	}
}

// TestLayoutWitnessRejectsBadInput: inputs LayoutWitness cannot serve
// return an error; none may panic.
func TestLayoutWitnessRejectsBadInput(t *testing.T) {
	for _, c := range []struct{ d, pPrime, qPrime int }{
		{2, 0, 3},                     // p' < 1
		{2, 3, 0},                     // q' < 1
		{2, -1, 5},                    // negative p'
		{0, 1, 1},                     // d < 1
		{-2, 2, 3},                    // negative d
		{2, 40, 41},                   // 2^80 overflows int
		{3, 20, 21},                   // 3^40 overflows int
		{2, math.MaxInt, math.MaxInt}, // p' + q' - 1 overflows int
		{2, 1, math.MaxInt},           // 2^MaxInt, found without a MaxInt loop
		{1 << 40, 1, 2},               // (2^40)^2 overflows int
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("LayoutWitness(%d, %d, %d) panicked: %v", c.d, c.pPrime, c.qPrime, r)
				}
			}()
			if m, err := LayoutWitness(c.d, c.pPrime, c.qPrime); err == nil {
				t.Errorf("LayoutWitness(%d, %d, %d) = %d labels, want an error", c.d, c.pPrime, c.qPrime, len(m))
			}
		}()
	}
}

func TestHRejectsOverflowingTransceiverCount(t *testing.T) {
	if _, err := H(1<<32, 1<<32, 2); err == nil {
		t.Error("H(2^32, 2^32, 2) accepted although pq overflows int")
	}
}

// TestLayoutWitnessAllocs pins the witness's footprint: a digit map
// allocates its output and a few O(D) tables, never a Word per label.
func TestLayoutWitnessAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LayoutWitness(2, 6, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("LayoutWitness(2, 6, 7) makes %.0f allocations, want at most 64", allocs)
	}
}
