package debruijn

import (
	"fmt"
	"math"

	"repro/internal/digraph"
)

// Recognize reports whether g is exactly the congruence-form de Bruijn
// digraph B(d, D) this package's DeBruijn constructor emits: n = d^D
// vertices, and the out-neighbour list of every vertex u is
//
//	Γ⁺(u) = [(d·u + α) mod d^D  for α = 0..d−1]
//
// in that adjacency order — so adjacency position α is the letter shifted
// in, which is what makes table-free shift routing (simnet's
// DeBruijnRouter) valid on the graph. Isomorphic-but-relabelled de Bruijn
// digraphs (OTIS layouts, σ-images, RRK with m ≠ d^D) are rejected: shift
// routing reads the congruence labels themselves, not the abstract
// isomorphism class — CertifyWitness routes those through an explicit
// isomorphism instead. The check is CertifyWitness's single O(M) pass
// with the identity labelling.
//
// On success it returns the base d and diameter D (D = 1 for the single
// self-loop vertex, the degenerate B(d, 0) ≅ B(1, D) family collapsing to
// one node is reported as d = 1, D = 1).
func Recognize(g *digraph.Digraph) (d, D int, ok bool) {
	d, D, _, err := certify(g, nil)
	return d, D, err == nil
}

// CertifyWitness checks in one O(M) pass that label is an isomorphism
// from g onto the congruence-form B(d, D): label must be a bijection from
// g's vertices onto 0..d^D−1, every vertex must have out-degree d, and
// the heads of u's out-arcs must carry the labels (d·label[u] + α) mod d^D
// for d distinct letters α, in any adjacency order. The paper's
// witnesses (OTIS layouts via otis.LayoutWitness, II via WitnessIIToB,
// B_σ via WitnessW) all pass it.
//
// On success it returns d, D and the letter map: letterArc[u·d + α] is
// the position in g.Out(u) of the arc that shifts in letter α — what
// table-free shift routing needs to turn a logical letter into a
// physical arc. The error names the first violated condition.
func CertifyWitness(g *digraph.Digraph, label []int) (d, D int, letterArc []int8, err error) {
	if label == nil {
		return 0, 0, nil, fmt.Errorf("debruijn: nil witness label map")
	}
	return certify(g, label)
}

// certify is the pass behind Recognize (label nil: vertex ids are the
// labels and letter α must sit at adjacency position α, so no letter map
// is built) and CertifyWitness.
func certify(g *digraph.Digraph, label []int) (d, D int, letterArc []int8, err error) {
	if g == nil || g.N() == 0 {
		return 0, 0, nil, fmt.Errorf("debruijn: empty digraph")
	}
	n := g.N()
	if label != nil && len(label) != n {
		return 0, 0, nil, fmt.Errorf("debruijn: label map has %d entries, digraph has %d nodes", len(label), n)
	}
	d = g.OutDegree(0)
	if d < 1 {
		return 0, 0, nil, fmt.Errorf("debruijn: node 0 has no out-arcs")
	}
	// n must be a pure power d^D (any D ≥ 1 serves the n = 1, d = 1 case).
	D = 0
	for p := 1; p < n; p *= d {
		if d == 1 {
			return 0, 0, nil, fmt.Errorf("debruijn: out-degree 1 only realizes the one-node B(1, 1), digraph has %d nodes", n)
		}
		D++
		if p > n/d {
			return 0, 0, nil, fmt.Errorf("debruijn: %d nodes is not a power of the out-degree %d", n, d)
		}
	}
	if D == 0 {
		D = 1 // n == 1: the one-node loop is B(1, 1)
	}
	if label != nil {
		if d > math.MaxInt8 {
			return 0, 0, nil, fmt.Errorf("debruijn: out-degree %d exceeds the int8 letter map", d)
		}
		seen := make([]bool, n)
		for u, l := range label {
			if l < 0 || l >= n || seen[l] {
				return 0, 0, nil, fmt.Errorf("debruijn: label map is not a bijection onto 0..%d (node %d has label %d)", n-1, u, l)
			}
			seen[l] = true
		}
		letterArc = make([]int8, n*d)
		for i := range letterArc {
			letterArc[i] = -1
		}
	}
	for u := 0; u < n; u++ {
		out := g.Out(u)
		if len(out) != d {
			return 0, 0, nil, fmt.Errorf("debruijn: node %d has out-degree %d, want %d", u, len(out), d)
		}
		lu := u
		if label != nil {
			lu = label[u]
		}
		shifted := (d * lu) % n
		for k, v := range out {
			lv := v
			if label != nil {
				lv = label[v]
			}
			// The letter the arc shifts in: (L(v) − d·L(u)) mod d^D.
			alpha := lv - shifted
			if alpha < 0 {
				alpha += n
			}
			switch {
			case label == nil:
				if alpha != k {
					return 0, 0, nil, fmt.Errorf("debruijn: arc %d#%d does not shift in letter %d", u, k, k)
				}
			case alpha >= d:
				return 0, 0, nil, fmt.Errorf("debruijn: arc %d#%d's head label %d is no left shift of label %d", u, k, lv, lu)
			case letterArc[u*d+alpha] >= 0:
				return 0, 0, nil, fmt.Errorf("debruijn: node %d shifts in letter %d on two arcs", u, alpha)
			default:
				letterArc[u*d+alpha] = int8(k)
			}
		}
	}
	return d, D, letterArc, nil
}
