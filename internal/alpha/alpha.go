// Package alpha implements the alphabet digraphs A(f, σ, j) of
// Definition 3.7 of Coudert, Ferreira, Pérennes (IPDPS 2000) and the
// isomorphism theory of Section 3.2:
//
//   - vertices are the words Z_d^D;
//   - Γ⁺(x) = σ(f→(x)) + Z_d·e_j, i.e. permute the letter positions by f,
//     replace every letter through σ, then let the letter at position j
//     range over the whole alphabet.
//
// Proposition 3.9: A(f, σ, j) ≅ B(d, D) iff f is a cyclic permutation of
// Z_D, with the isomorphism induced by g(i) = f^i(j); otherwise A(f, σ, j)
// is disconnected and (Remark 3.10) each weak component is the conjunction
// of a circuit with a de Bruijn digraph.
package alpha

import (
	"errors"
	"fmt"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/perm"
	"repro/internal/word"
)

// Alpha describes an alphabet digraph A(f, σ, j) of degree d = |σ| and
// dimension D = |f|.
type Alpha struct {
	f     perm.Perm // permutation of the index set Z_D
	sigma perm.Perm // permutation of the alphabet Z_d
	j     int       // the free position
}

// New validates the parameters and returns the alphabet digraph
// description. d and D are implied by the permutation sizes.
func New(f, sigma perm.Perm, j int) (*Alpha, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("alpha: index permutation: %w", err)
	}
	if err := sigma.Validate(); err != nil {
		return nil, fmt.Errorf("alpha: alphabet permutation: %w", err)
	}
	if f.N() == 0 {
		return nil, errors.New("alpha: dimension D must be positive")
	}
	if sigma.N() == 0 {
		return nil, errors.New("alpha: degree d must be positive")
	}
	if j < 0 || j >= f.N() {
		return nil, fmt.Errorf("alpha: free position %d out of Z_%d", j, f.N())
	}
	return &Alpha{f: f.Clone(), sigma: sigma.Clone(), j: j}, nil
}

// MustNew is New panicking on error.
func MustNew(f, sigma perm.Perm, j int) *Alpha {
	a, err := New(f, sigma, j)
	if err != nil {
		//lint:ignore panicstyle the error from New already carries the "alpha: " prefix
		panic(err)
	}
	return a
}

// DeBruijnAlpha returns the parameters exhibiting B(d, D) itself as an
// alphabet digraph (Remark 3.8): A(ρ, Id, 0) with ρ(i) = i+1 mod D.
func DeBruijnAlpha(d, D int) *Alpha {
	return MustNew(perm.CyclicShift(D), perm.Identity(d), 0)
}

// D returns the degree d (alphabet size).
func (a *Alpha) D() int { return a.sigma.N() }

// Dim returns the dimension D (word length).
func (a *Alpha) Dim() int { return a.f.N() }

// FreePosition returns j, the position whose letter is free.
func (a *Alpha) FreePosition() int { return a.j }

// F returns a copy of the index permutation f.
func (a *Alpha) F() perm.Perm { return a.f.Clone() }

// Sigma returns a copy of the alphabet permutation σ.
func (a *Alpha) Sigma() perm.Perm { return a.sigma.Clone() }

// N returns the number of vertices d^D.
func (a *Alpha) N() int { return word.Pow(a.D(), a.Dim()) }

// Successors returns Γ⁺(x) = σ(f→(x)) + Z_d·e_j in word form, ordered by
// the letter placed at position j. Adding Z_d at position j is the same as
// letting that letter range over the alphabet.
func (a *Alpha) Successors(x word.Word) []word.Word {
	base := x.ApplyIndex(a.f).ApplyAlphabet(a.sigma)
	d := a.D()
	out := make([]word.Word, d)
	for alpha := 0; alpha < d; alpha++ {
		out[alpha] = base.WithLetter(a.j, alpha)
	}
	return out
}

// Digraph materializes A(f, σ, j) on Horner labels. Arc α of u leads to
// base(u) + α·d^j with base(u) = Σ_{f(i)≠j} σ(x_i)·d^{f(i)}, one
// word.DigitMap; adjacency position α is the letter placed at j, as in
// Successors.
func (a *Alpha) Digraph() *digraph.Digraph {
	d, D := a.D(), a.Dim()
	place := word.NewPlace(d, D)
	for i, fi := range a.f {
		if fi == a.j {
			continue // the letter moved to j is overwritten by α
		}
		w := word.Pow(d, fi)
		for x, y := range a.sigma {
			place[i][x] = y * w
		}
	}
	base := word.DigitMap(d, D, place)
	step := word.Pow(d, a.j)
	heads := make([]int, len(base)*d)
	for u, b := range base {
		for alpha := 0; alpha < d; alpha++ {
			heads[u*d+alpha] = b + alpha*step
		}
	}
	return digraph.Regular(len(base), d, heads)
}

// GPerm returns the permutation g of Z_D associated with f in the proof of
// Proposition 3.9: g(i) = f^i(j). The second return reports whether g is a
// permutation at all, which holds exactly when f is cyclic (otherwise the
// orbit of j does not cover Z_D and values repeat).
func (a *Alpha) GPerm() (perm.Perm, bool) {
	D := a.Dim()
	image := make([]int, D)
	cur := a.j // f^0(j)
	for i := 0; i < D; i++ {
		image[i] = cur
		cur = a.f.Apply(cur)
	}
	g, err := perm.FromImage(image)
	if err != nil {
		return nil, false
	}
	return g, true
}

// IsDeBruijn reports whether A(f, σ, j) is isomorphic to B(d, D), i.e.
// whether f is cyclic (Proposition 3.9). This is the O(D) verification of
// Corollary 4.5.
func (a *Alpha) IsDeBruijn() bool { return a.f.IsCyclic() }

// IsoToDeBruijn returns an isomorphism from A(f, σ, j) onto B(d, D) as a
// vertex mapping on Horner labels, constructed from the proof of
// Proposition 3.9: g→ maps B_σ(d, D) onto A(f, σ, j), and the
// Proposition 3.2 witness W maps B_σ(d, D) onto B(d, D); the composition
// W ∘ (g→)⁻¹ is the required isomorphism. Returns an error when f is not
// cyclic.
//
// (g→)⁻¹ moves letter x_i of the A-vertex to position k = g⁻¹(i) of its
// B_σ label, where W substitutes σ^{D-1-k} and weights it d^k, so the
// mapping is W's place table with row k moved to row g(k): one
// word.DigitMap, no word per label.
func (a *Alpha) IsoToDeBruijn() ([]int, error) {
	if !a.f.IsCyclic() {
		return nil, fmt.Errorf("alpha: f = %v is not cyclic; A(f,σ,%d) is disconnected (Proposition 3.9)", a.f, a.j)
	}
	g, ok := a.GPerm()
	if !ok {
		return nil, errors.New("alpha: internal error: cyclic f produced non-bijective g")
	}
	d, D := a.D(), a.Dim()
	w := debruijn.WitnessWPlace(d, D, a.sigma)
	place := make([][]int, D)
	for k, row := range w {
		place[g[k]] = row
	}
	return word.DigitMap(d, D, place), nil
}

// VerifiedIsoToDeBruijn builds the witness and checks it against the
// materialized digraphs, returning the mapping.
func (a *Alpha) VerifiedIsoToDeBruijn() ([]int, error) {
	mapping, err := a.IsoToDeBruijn()
	if err != nil {
		return nil, err
	}
	g := a.Digraph()
	b := debruijn.DeBruijn(a.D(), a.Dim())
	if err := digraph.VerifyIsomorphism(g, b, mapping); err != nil {
		return nil, fmt.Errorf("alpha: witness failed verification: %w", err)
	}
	return mapping, nil
}

// CountDefinitions returns d!(D-1)!, the number of alternative definitions
// of B(d, D) obtained by combining Propositions 3.2 and 3.9 (Section 3.2):
// d! alphabet permutations times (D-1)! cyclic index permutations.
func CountDefinitions(d, D int) int {
	return perm.Factorial(d) * perm.Factorial(D-1)
}

// IsoBetween returns an isomorphism from A(f1, σ1, j1) onto A(f2, σ2, j2)
// when both index permutations are cyclic, by composing the two
// Proposition 3.9 witnesses through B(d, D): mapping = iso2⁻¹ ∘ iso1.
// The two digraphs must share degree and dimension.
func IsoBetween(a1, a2 *Alpha) ([]int, error) {
	if a1.D() != a2.D() || a1.Dim() != a2.Dim() {
		return nil, fmt.Errorf("alpha: shape mismatch (d=%d,D=%d) vs (d=%d,D=%d)",
			a1.D(), a1.Dim(), a2.D(), a2.Dim())
	}
	m1, err := a1.IsoToDeBruijn()
	if err != nil {
		return nil, err
	}
	m2, err := a2.IsoToDeBruijn()
	if err != nil {
		return nil, err
	}
	inv2 := make([]int, len(m2))
	for u, v := range m2 {
		inv2[v] = u
	}
	mapping := make([]int, len(m1))
	for u, v := range m1 {
		mapping[u] = inv2[v]
	}
	return mapping, nil
}
