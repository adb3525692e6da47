package otis

import (
	"fmt"
	"math"

	"repro/internal/alpha"
	"repro/internal/perm"
	"repro/internal/word"
)

// De Bruijn layouts on OTIS: Proposition 4.1, Corollaries 4.2–4.6.

// IndexPermutation returns the permutation f of Z_D (D = p' + q' - 1) from
// Proposition 4.1, for which H(d^p', d^q', d) = A(f, C, p'-1):
//
//	f(i) = i + p'          if i < q' - 1
//	     = p' - 1          if i = q' - 1
//	     = i + p' - 1 mod D otherwise.
func IndexPermutation(pPrime, qPrime int) perm.Perm {
	if pPrime < 1 || qPrime < 1 {
		panic("otis: need p', q' >= 1")
	}
	D := pPrime + qPrime - 1
	return perm.MustFromFunc(D, func(i int) int {
		switch {
		case i < qPrime-1:
			return i + pPrime
		case i == qPrime-1:
			return pPrime - 1
		default:
			return (i + pPrime - 1) % D
		}
	})
}

// AlphaForLayout returns the alphabet digraph A(f, C, p'-1) that
// Proposition 4.1 proves equal to H(d^p', d^q', d).
func AlphaForLayout(d, pPrime, qPrime int) *alpha.Alpha {
	f := IndexPermutation(pPrime, qPrime)
	return alpha.MustNew(f, perm.Complement(d), pPrime-1)
}

// IsDeBruijnLayout reports whether H(d^p', d^q', d) is isomorphic to
// B(d, D), D = p' + q' - 1 (Corollary 4.2): exactly when the Proposition
// 4.1 permutation is cyclic. This is the O(D) verification of
// Corollary 4.5 — no digraph is materialized.
func IsDeBruijnLayout(pPrime, qPrime int) bool {
	return IndexPermutation(pPrime, qPrime).IsCyclic()
}

// LayoutWitness returns the isomorphism from H(d^p', d^q', d) onto
// B(d, D) as a vertex mapping, combining Proposition 4.1 (H = A(f, C,
// p'-1) on identical labels) with the Proposition 3.9 witness. Errors when
// d < 1, p' < 1, q' < 1, d^D overflows int, or the layout criterion
// fails; every check runs before any O(d^D) work.
func LayoutWitness(d, pPrime, qPrime int) ([]int, error) {
	if d < 1 {
		return nil, fmt.Errorf("otis: degree %d < 1", d)
	}
	if pPrime < 1 || qPrime < 1 {
		return nil, fmt.Errorf("otis: need p', q' >= 1, got (%d,%d)", pPrime, qPrime)
	}
	if pPrime-1 > math.MaxInt-qPrime {
		return nil, fmt.Errorf("otis: p' + q' - 1 overflows int for (%d,%d)", pPrime, qPrime)
	}
	if _, ok := word.PowChecked(d, pPrime+qPrime-1); !ok {
		return nil, fmt.Errorf("otis: B(%d,%d) has more than MaxInt vertices", d, pPrime+qPrime-1)
	}
	a := AlphaForLayout(d, pPrime, qPrime)
	mapping, err := a.IsoToDeBruijn()
	if err != nil {
		return nil, fmt.Errorf("otis: H(%d^%d, %d^%d, %d) is not a de Bruijn layout: %w",
			d, pPrime, d, qPrime, d, err)
	}
	return mapping, nil
}

// Layout describes an OTIS realization of B(d, D).
type Layout struct {
	Degree int // d
	Diam   int // diameter D of the realized de Bruijn digraph
	PPrime int // p = d^PPrime transmitter groups
	QPrime int // q = d^QPrime transmitters per group
}

// P returns the transmitter-group count p = d^p'.
func (l Layout) P() int { return word.Pow(l.Degree, l.PPrime) }

// Q returns the per-group transmitter count q = d^q'.
func (l Layout) Q() int { return word.Pow(l.Degree, l.QPrime) }

// Lenses returns p + q.
func (l Layout) Lenses() int { return l.P() + l.Q() }

// Nodes returns n = d^Diam.
func (l Layout) Nodes() int { return word.Pow(l.Degree, l.Diam) }

// System returns the OTIS(p, q) system of the layout.
func (l Layout) System() System { return System{P: l.P(), Q: l.Q()} }

// String renders e.g. "OTIS(16,32) ⊢ B(2,8), 48 lenses".
func (l Layout) String() string {
	return fmt.Sprintf("OTIS(%d,%d) ⊢ B(%d,%d), %d lenses", l.P(), l.Q(), l.Degree, l.Diam, l.Lenses())
}

// OptimalLayout returns the OTIS layout of B(d, D) minimizing the lens
// count p + q over all splits p = d^p', q = d^q' with p' + q' - 1 = D
// (Corollary 4.6, an O(D²) procedure using the O(D) check of Corollary
// 4.5). ok is false when no split yields a de Bruijn layout.
//
// For even D the optimum is always p' = D/2, q' = D/2 + 1 (Corollary 4.4),
// giving p + q = Θ(√n) lenses. For odd D > 1, p' = q' is impossible
// (Proposition 4.3) and the balanced-most cyclic split wins when one
// exists.
func OptimalLayout(d, D int) (Layout, bool) {
	if d < 2 || D < 1 {
		return Layout{}, false
	}
	best := Layout{}
	found := false
	for pPrime := 1; pPrime <= D; pPrime++ {
		qPrime := D + 1 - pPrime
		if qPrime < 1 {
			continue
		}
		if !IsDeBruijnLayout(pPrime, qPrime) {
			continue
		}
		cand := Layout{Degree: d, Diam: D, PPrime: pPrime, QPrime: qPrime}
		// With p' + q' fixed, d^p' + d^q' is minimized by the most
		// balanced split, so compare max(p', q') instead of materializing
		// the (possibly huge) powers; tie-break on p' ≤ q', the paper's
		// w.l.o.g. orientation.
		if !found || maxInt(cand.PPrime, cand.QPrime) < maxInt(best.PPrime, best.QPrime) ||
			(maxInt(cand.PPrime, cand.QPrime) == maxInt(best.PPrime, best.QPrime) &&
				cand.PPrime < best.PPrime) {
			best = cand
			found = true
		}
	}
	return best, found
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MinimizeLenses returns the minimum lens count of an OTIS layout of
// B(d, D) over power-of-d splits, with the achieving split.
func MinimizeLenses(d, D int) (pPrime, qPrime, lenses int, ok bool) {
	l, found := OptimalLayout(d, D)
	if !found {
		return 0, 0, 0, false
	}
	return l.PPrime, l.QPrime, l.Lenses(), true
}

// IILayoutLenses returns the lens count of the Imase–Itoh-derived layout
// of [14], OTIS(d, n): d + n = O(n) lenses. It is the baseline the
// Θ(√n) result of Corollary 4.4 improves on.
func IILayoutLenses(d, n int) int { return d + n }
