package debruijn

import (
	"repro/internal/digraph"
	"repro/internal/perm"
	"repro/internal/word"
)

// Explicit isomorphism witnesses from Section 3.1 of the paper.

// WitnessW returns the isomorphism W of Proposition 3.2 from B_σ(d, D) onto
// B(d, D), as a vertex mapping over the Horner labels:
//
//	W(x_{D-1} x_{D-2} ... x_0) = σ⁰(x_{D-1}) σ¹(x_{D-2}) ... σ^{D-1}(x_0),
//
// i.e. letter x_i is replaced by σ^{D-1-i}(x_i). mapping[u] is the B-vertex
// image of B_σ-vertex u.
func WitnessW(d, D int, sigma perm.Perm) []int {
	return word.DigitMap(d, D, WitnessWPlace(d, D, sigma))
}

// WitnessWPlace returns W as a word.DigitMap place table: row i holds
// σ^{D-1-i}(x)·d^i. It is the generalized W's table with every σ_i = σ.
func WitnessWPlace(d, D int, sigma perm.Perm) [][]int {
	s := sigma.Clone()
	sigmas := make([]perm.Perm, D)
	for i := range sigmas {
		sigmas[i] = s
	}
	return witnessPlace(d, D, sigmas)
}

// IsoBSigmaToB verifies Proposition 3.2 constructively: it builds
// B_σ(d, D), applies WitnessW and checks the mapping is an isomorphism onto
// B(d, D), returning the mapping.
func IsoBSigmaToB(d, D int, sigma perm.Perm) ([]int, error) {
	mapping := WitnessW(d, D, sigma)
	bs := BSigma(d, D, sigma)
	b := DeBruijn(d, D)
	if err := digraph.VerifyIsomorphism(bs, b, mapping); err != nil {
		return nil, err
	}
	return mapping, nil
}

// WitnessIIToB returns the isomorphism of Proposition 3.3 from II(d, d^D)
// onto B(d, D). The proof observes that II(d, d^D) is exactly B_C(d, D) in
// congruence form (C the complement permutation of Definition 2.1), so the
// Proposition 3.2 witness with σ = C applies: since C is an involution,
// letter x_i of the II vertex maps to C(x_i) when D-1-i is odd and to x_i
// when it is even.
func WitnessIIToB(d, D int) []int {
	return WitnessW(d, D, perm.Complement(d))
}

// IsoIIToB verifies Corollary 3.4 constructively for II: it checks that
// II(d, d^D) is the same labelled digraph as B_C(d, D) and that the
// Proposition 3.2 witness carries it onto B(d, D).
func IsoIIToB(d, D int) ([]int, error) {
	mapping := WitnessIIToB(d, D)
	ii := ImaseItoh(d, word.Pow(d, D))
	b := DeBruijn(d, D)
	if err := digraph.VerifyIsomorphism(ii, b, mapping); err != nil {
		return nil, err
	}
	return mapping, nil
}

// GeneralizedWitness returns the isomorphism onto B(d, D) for the digraph
// mentioned after Proposition 3.2, where each shifted position uses its own
// alphabet permutation σ_i:
//
//	Γ⁺(x) = {σ_0(x_{D-2}) σ_1(x_{D-3}) ... σ_{D-2}(x_0) σ_{D-1}(α) : α ∈ Z_d}.
//
// The witness generalizes W: letter x_i is replaced by
// (σ_0 ∘ σ_1 ∘ ... ∘ σ_{D-2-i})(x_i) — the composition of the first D-1-i
// permutations, applied innermost-last (τ_{j-1} = τ_j ∘ σ_{D-1-j} with
// τ_{D-1} = Id, exactly as in the Proposition 3.2 proof).
func GeneralizedWitness(d, D int, sigmas []perm.Perm) []int {
	return word.DigitMap(d, D, witnessPlace(d, D, sigmas))
}

// witnessPlace returns the generalized W as a word.DigitMap place table:
// row i holds τ_i(x)·d^i, where τ_i = σ_0 ∘ ... ∘ σ_{D-2-i} is the
// substitution GeneralizedWitness applies at position i. Since
// τ_i = τ_{i+1} ∘ σ_{D-2-i}, each row is the row above it read through
// σ_{D-2-i} and moved one place down, starting from τ_{D-1} = Id.
func witnessPlace(d, D int, sigmas []perm.Perm) [][]int {
	if d < 1 || D < 1 {
		panic("debruijn: need d >= 1 and D >= 1")
	}
	if len(sigmas) != D {
		panic("debruijn: need exactly D alphabet permutations")
	}
	for _, s := range sigmas {
		if s.N() != d {
			panic("debruijn: alphabet permutation size mismatch")
		}
	}
	place := word.NewPlace(d, D)
	top := word.Pow(d, D-1)
	for x := range place[D-1] {
		place[D-1][x] = x * top
	}
	for i := D - 2; i >= 0; i-- {
		for x, y := range sigmas[D-2-i] {
			place[i][x] = place[i+1][y] / d
		}
	}
	return place
}

// BMultiSigma builds the generalized alphabet digraph described after
// Proposition 3.2, with a distinct permutation σ_i applied at each position:
// Γ⁺(x_{D-1} ... x_0) = {σ_0(x_{D-2}) ... σ_{D-2}(x_0) σ_{D-1}(α) : α ∈ Z_d}.
//
// On labels, arc α of u leads to base(u) + σ_{D-1}(α) with
// base(u) = Σ_{j≥1} σ_{D-1-j}(x_{j-1})·d^j, one DigitMap.
func BMultiSigma(d, D int, sigmas []perm.Perm) *digraph.Digraph {
	if len(sigmas) != D {
		panic("debruijn: need exactly D alphabet permutations")
	}
	for _, s := range sigmas {
		if s.N() != d {
			panic("debruijn: alphabet permutation size mismatch")
		}
	}
	place := word.NewPlace(d, D)
	for i := 0; i+1 < D; i++ {
		w := word.Pow(d, i+1)
		for x, y := range sigmas[D-2-i] {
			place[i][x] = y * w
		}
	}
	return fromBase(word.DigitMap(d, D, place), sigmas[D-1])
}
