package debruijn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/digraph"
	"repro/internal/perm"
	"repro/internal/word"
)

// Word-by-word references. Each one builds its mapping or digraph one
// word.Word per label, straight from the paper's letter-wise definitions,
// and adds arcs one at a time through FromFunc. The digit-map
// constructions must return the same mappings and the same adjacency
// lists, element by element (digraph.Equal ignores order, so it is not
// enough: routing and every simulated statistic read adjacency positions).

func refWitnessW(d, D int, sigma perm.Perm) []int {
	if sigma.N() != d {
		panic("debruijn: alphabet permutation size mismatch")
	}
	// Precompute σ^k for k = 0..D-1.
	powers := make([]perm.Perm, D)
	powers[0] = perm.Identity(d)
	for k := 1; k < D; k++ {
		powers[k] = sigma.Compose(powers[k-1])
	}
	n := word.Pow(d, D)
	mapping := make([]int, n)
	for u := 0; u < n; u++ {
		x := word.MustFromInt(d, D, u)
		y := word.New(d, D)
		for i := 0; i < D; i++ {
			y = y.WithLetter(i, powers[D-1-i].Apply(x.Letter(i)))
		}
		mapping[u] = y.Int()
	}
	return mapping
}

func refGeneralizedWitness(d, D int, sigmas []perm.Perm) []int {
	if len(sigmas) != D {
		panic("debruijn: need exactly D alphabet permutations")
	}
	// prefix[k] = σ_0 ∘ σ_1 ∘ ... ∘ σ_{k-1}, with prefix[0] = Id.
	prefix := make([]perm.Perm, D+1)
	prefix[0] = perm.Identity(d)
	for k := 1; k <= D; k++ {
		prefix[k] = prefix[k-1].Compose(sigmas[k-1])
	}
	n := word.Pow(d, D)
	mapping := make([]int, n)
	for u := 0; u < n; u++ {
		x := word.MustFromInt(d, D, u)
		y := word.New(d, D)
		for i := 0; i < D; i++ {
			y = y.WithLetter(i, prefix[D-1-i].Apply(x.Letter(i)))
		}
		mapping[u] = y.Int()
	}
	return mapping
}

func refBMultiSigma(d, D int, sigmas []perm.Perm) *digraph.Digraph {
	if len(sigmas) != D {
		panic("debruijn: need exactly D alphabet permutations")
	}
	for _, s := range sigmas {
		if s.N() != d {
			panic("debruijn: alphabet permutation size mismatch")
		}
	}
	n := word.Pow(d, D)
	return digraph.FromFunc(n, func(u int) []int {
		x := word.MustFromInt(d, D, u)
		// Successor letters: position j (1 ≤ j ≤ D-1) holds σ_{D-1-j}(x_{j-1});
		// position 0 holds σ_{D-1}(α), which ranges over all of Z_d.
		y := word.New(d, D)
		for j := 1; j < D; j++ {
			y = y.WithLetter(j, sigmas[D-1-j].Apply(x.Letter(j-1)))
		}
		out := make([]int, d)
		for alpha := 0; alpha < d; alpha++ {
			out[alpha] = y.WithLetter(0, sigmas[D-1].Apply(alpha)).Int()
		}
		return out
	})
}

func refBSigma(d, D int, sigma perm.Perm) *digraph.Digraph {
	if sigma.N() != d {
		panic("debruijn: alphabet permutation size mismatch")
	}
	n := word.Pow(d, D)
	rho := perm.CyclicShift(D)
	return digraph.FromFunc(n, func(u int) []int {
		x := word.MustFromInt(d, D, u)
		shifted := x.ApplyIndex(rho).ApplyAlphabet(sigma)
		out := make([]int, d)
		for alpha := 0; alpha < d; alpha++ {
			out[alpha] = shifted.WithLetter(0, alpha).Int()
		}
		return out
	})
}

func refDeBruijn(d, D int) *digraph.Digraph {
	if d < 1 || D < 1 {
		panic("debruijn: need d >= 1 and D >= 1")
	}
	n := word.Pow(d, D)
	return digraph.FromFunc(n, func(u int) []int {
		out := make([]int, d)
		for alpha := 0; alpha < d; alpha++ {
			out[alpha] = (d*u + alpha) % n
		}
		return out
	})
}

func refRRK(d, n int) *digraph.Digraph {
	if d < 1 || n < 1 {
		panic("debruijn: need d >= 1 and n >= 1")
	}
	return digraph.FromFunc(n, func(u int) []int {
		out := make([]int, d)
		for alpha := 0; alpha < d; alpha++ {
			out[alpha] = (d*u + alpha) % n
		}
		return out
	})
}

func refImaseItoh(d, n int) *digraph.Digraph {
	if d < 1 || n < 1 {
		panic("debruijn: need d >= 1 and n >= 1")
	}
	return digraph.FromFunc(n, func(u int) []int {
		out := make([]int, d)
		for alpha := 1; alpha <= d; alpha++ {
			v := (-d*u - alpha) % n
			if v < 0 {
				v += n
			}
			out[alpha-1] = v
		}
		return out
	})
}

// sameAdjacency fails unless got and want have the same order, size and
// out-list at every vertex, position by position.
func sameAdjacency(t *testing.T, name string, got, want *digraph.Digraph) {
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

// sameMapping fails unless got and want agree label by label.
func sameMapping(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, reference %d", name, len(got), len(want))
	}
	for u := range got {
		if got[u] != want[u] {
			t.Fatalf("%s: label %d maps to %d, reference %d", name, u, got[u], want[u])
		}
	}
}

func randomSigmas(d, D int, rng *rand.Rand) []perm.Perm {
	sigmas := make([]perm.Perm, D)
	for i := range sigmas {
		sigmas[i] = perm.Random(d, rng)
	}
	return sigmas
}

func TestDigitMapConstructionsMatchWordReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for d := 1; d <= 5; d++ {
		for D := 1; D <= 6; D++ {
			name := fmt.Sprintf("d=%d,D=%d", d, D)
			sigma := perm.Random(d, rng)
			sigmas := randomSigmas(d, D, rng)
			sameMapping(t, name+" WitnessW", WitnessW(d, D, sigma), refWitnessW(d, D, sigma))
			sameMapping(t, name+" WitnessW(C)", WitnessW(d, D, perm.Complement(d)), refWitnessW(d, D, perm.Complement(d)))
			sameMapping(t, name+" WitnessIIToB", WitnessIIToB(d, D), refWitnessW(d, D, perm.Complement(d)))
			sameMapping(t, name+" GeneralizedWitness", GeneralizedWitness(d, D, sigmas), refGeneralizedWitness(d, D, sigmas))
			sameAdjacency(t, name+" BSigma", BSigma(d, D, sigma), refBSigma(d, D, sigma))
			sameAdjacency(t, name+" BBar", BBar(d, D), refBSigma(d, D, perm.Complement(d)))
			sameAdjacency(t, name+" BMultiSigma", BMultiSigma(d, D, sigmas), refBMultiSigma(d, D, sigmas))
			sameAdjacency(t, name+" DeBruijn", DeBruijn(d, D), refDeBruijn(d, D))
		}
	}
}

func TestCongruenceDigraphsMatchFromFunc(t *testing.T) {
	for d := 1; d <= 5; d++ {
		for n := 1; n <= 200; n++ {
			name := fmt.Sprintf("d=%d,n=%d", d, n)
			sameAdjacency(t, name+" RRK", RRK(d, n), refRRK(d, n))
			sameAdjacency(t, name+" ImaseItoh", ImaseItoh(d, n), refImaseItoh(d, n))
		}
	}
}
