// Package debruijn implements the de Bruijn digraph B(d, D) and its
// relatives studied in Coudert, Ferreira, Pérennes, "De Bruijn Isomorphisms
// and Free Space Optical Networks" (IPDPS 2000): the alphabet-permuted
// digraph B_σ(d, D) (Definition 3.1), the Reddy–Raghavan–Kuhl digraph
// RRK(d, n) (Definition 2.5), the Imase–Itoh digraph II(d, n)
// (Definition 2.8) and the Kautz digraph K(d, D) (Definition 2.7), together
// with the explicit isomorphism witnesses of Propositions 3.2 and 3.3.
//
// Throughout, word vertices are identified with integers via the Horner
// correspondence u = Σ x_i d^i of Remark 2.6, so every digraph in this
// package has vertex set Z_n.
package debruijn

import (
	"fmt"

	"repro/internal/digraph"
	"repro/internal/perm"
	"repro/internal/word"
)

// DeBruijn returns B(d, D) (Definition 2.2) on vertex set Z_{d^D} in the
// congruence form of Remark 2.6: Γ⁺(u) = {du + α mod d^D : 0 ≤ α < d}.
// Out-neighbour α of u is listed at adjacency position α.
func DeBruijn(d, D int) *digraph.Digraph {
	if d < 1 || D < 1 {
		panic("debruijn: need d >= 1 and D >= 1")
	}
	return RRK(d, word.Pow(d, D))
}

// Successors returns the out-neighbours of word x in B(d, D) in word form:
// x_{D-2} ... x_1 x_0 α for α ∈ Z_d (Definition 2.2).
func Successors(x word.Word) []word.Word {
	d := x.D()
	out := make([]word.Word, d)
	for alpha := 0; alpha < d; alpha++ {
		out[alpha] = x.LeftShiftAppend(alpha)
	}
	return out
}

// RRK returns the Reddy–Raghavan–Kuhl digraph RRK(d, n) (Definition 2.5):
// vertex set Z_n with Γ⁺(u) = {du + α : 0 ≤ α < d}, arithmetic mod n.
// RRK(d, d^D) is (by construction, Remark 2.6) the same labelled digraph as
// DeBruijn(d, D).
func RRK(d, n int) *digraph.Digraph {
	if d < 1 || n < 1 {
		panic("debruijn: need d >= 1 and n >= 1")
	}
	// Arc α of u sits at slab index k = du + α, so its head is k mod n:
	// the slab counts 0, 1, ..., n-1 over and over.
	heads := make([]int, n*d)
	v := 0
	for k := range heads {
		heads[k] = v
		v++
		if v == n {
			v = 0
		}
	}
	return digraph.Regular(n, d, heads)
}

// ImaseItoh returns the Imase–Itoh digraph II(d, n) (Definition 2.8):
// vertex set Z_n with Γ⁺(u) = {−du − α : 1 ≤ α ≤ d}, arithmetic mod n.
func ImaseItoh(d, n int) *digraph.Digraph {
	if d < 1 || n < 1 {
		panic("debruijn: need d >= 1 and n >= 1")
	}
	// Arc α of u sits at slab index k = du + α − 1, so its head is
	// −(k + 1) mod n = n − 1 − (k mod n): the slab counts down
	// n-1, ..., 0 over and over.
	heads := make([]int, n*d)
	v := n - 1
	for k := range heads {
		heads[k] = v
		v--
		if v < 0 {
			v = n - 1
		}
	}
	return digraph.Regular(n, d, heads)
}

// BSigma returns B_σ(d, D) (Definition 3.1): vertices are the words of
// length D over Z_d (Horner-labelled), and
// Γ⁺(x_{D-1} ... x_0) = {σ(x_{D-2}) ... σ(x_0) α : α ∈ Z_d}.
// BSigma(d, D, Identity) equals DeBruijn(d, D).
//
// On labels, arc α of u leads to base(u) + α with
// base(u) = Σ_{i<D-1} σ(x_i)·d^{i+1}, one DigitMap.
func BSigma(d, D int, sigma perm.Perm) *digraph.Digraph {
	if sigma.N() != d {
		panic("debruijn: alphabet permutation size mismatch")
	}
	place := word.NewPlace(d, D)
	for i := 0; i+1 < D; i++ {
		w := word.Pow(d, i+1)
		for x, y := range sigma {
			place[i][x] = y * w
		}
	}
	return fromBase(word.DigitMap(d, D, place), perm.Identity(d))
}

// fromBase returns the d-regular digraph whose vertex u has out-neighbour
// base[u] + arc[α] at adjacency position α, d = len(arc): the shape of
// every shift-and-substitute successor rule of Section 3.
func fromBase(base, arc []int) *digraph.Digraph {
	d := len(arc)
	heads := make([]int, len(base)*d)
	for u, b := range base {
		for a, off := range arc {
			heads[u*d+a] = b + off
		}
	}
	return digraph.Regular(len(base), d, heads)
}

// BBar returns B̄(d, D) = B_C(d, D), the complement-alphabet de Bruijn used
// in the proof of Proposition 3.3. In congruence form its adjacency is
// Γ⁺(u) = {−du − α : 1 ≤ α ≤ d}, i.e. exactly II(d, d^D).
func BBar(d, D int) *digraph.Digraph {
	return BSigma(d, D, perm.Complement(d))
}

// Kautz returns the Kautz digraph K(d, D) (Definition 2.7): vertices are
// words of length D over Z_{d+1} with x_i ≠ x_{i+1}, and
// Γ⁺(x_{D-1} ... x_0) = {x_{D-2} ... x_0 α : α ≠ x_0}. It has
// n = d^{D-1}(d+1) vertices. The second return value maps vertex ids to
// their words. Vertex ids follow increasing Horner value over Z_{d+1}.
func Kautz(d, D int) (*digraph.Digraph, []word.Word) {
	if d < 1 || D < 1 {
		panic("debruijn: need d >= 1 and D >= 1")
	}
	var words []word.Word
	idOf := make(map[int]int)
	word.Enumerate(d+1, D, func(w word.Word) bool {
		for i := 0; i+1 < D; i++ {
			if w.Letter(i) == w.Letter(i+1) {
				return true // skip words with equal consecutive letters
			}
		}
		idOf[w.Int()] = len(words)
		words = append(words, w)
		return true
	})
	wantN := KautzOrder(d, D)
	if len(words) != wantN {
		panic(fmt.Sprintf("debruijn: Kautz enumeration produced %d words, want %d", len(words), wantN))
	}
	g := digraph.FromFunc(len(words), func(u int) []int {
		x := words[u]
		out := make([]int, 0, d)
		for alpha := 0; alpha <= d; alpha++ {
			if alpha == x.Letter(0) {
				continue
			}
			out = append(out, idOf[x.LeftShiftAppend(alpha).Int()])
		}
		return out
	})
	return g, words
}

// KautzOrder returns the number of vertices of K(d, D): d^{D-1}(d + 1).
func KautzOrder(d, D int) int {
	return word.Pow(d, D-1) * (d + 1)
}

// Order returns d^D, the number of vertices of B(d, D).
func Order(d, D int) int { return word.Pow(d, D) }
