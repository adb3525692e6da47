package debruijn

import (
	"strings"
	"testing"

	"repro/internal/digraph"
	"repro/internal/perm"
)

// TestRecognizeAcceptsCongruenceForm: every graph DeBruijn emits — and
// RRK at n = d^D, which is the same congruence — must be recognized with
// the right parameters.
func TestRecognizeAcceptsCongruenceForm(t *testing.T) {
	for _, tc := range []struct{ d, D int }{
		{1, 1}, {2, 1}, {2, 3}, {2, 10}, {3, 4}, {4, 3}, {5, 2}, {7, 1},
	} {
		g := DeBruijn(tc.d, tc.D)
		d, D, ok := Recognize(g)
		if !ok || d != tc.d || D != tc.D {
			t.Fatalf("Recognize(B(%d,%d)) = (%d, %d, %v), want (%d, %d, true)",
				tc.d, tc.D, d, D, ok, tc.d, tc.D)
		}
	}
	// RRK(d, d^D) is B(d, D) verbatim.
	if d, D, ok := Recognize(RRK(3, 27)); !ok || d != 3 || D != 3 {
		t.Fatalf("Recognize(RRK(3, 27)) = (%d, %d, %v), want (3, 3, true)", d, D, ok)
	}
	// BSigma with the identity permutation is also B(d, D) verbatim.
	if d, D, ok := Recognize(BSigma(2, 4, perm.Identity(2))); !ok || d != 2 || D != 4 {
		t.Fatalf("Recognize(BSigma(2,4,id)) = (%d, %d, %v), want (2, 4, true)", d, D, ok)
	}
}

// TestRecognizeRejectsNonCongruence: graphs that are not the
// congruence-form B(d, D) — including ones isomorphic to it — must be
// rejected, because shift routing reads the labels, not the isomorphism
// class.
func TestRecognizeRejectsNonCongruence(t *testing.T) {
	kautz, _ := Kautz(2, 3)
	cases := []struct {
		name string
		g    *digraph.Digraph
	}{
		{"nil", nil},
		{"Kautz(2,3)", kautz},
		{"ImaseItoh(2,12)", ImaseItoh(2, 12)},
		{"RRK non-power order", RRK(2, 12)},
		{"BBar(2,4) complemented labels", BBar(2, 4)},
		{"relabelled isomorph of B(2,3)", relabel(DeBruijn(2, 3))},
		{"non-regular", digraph.FromFunc(4, func(u int) []int {
			if u == 0 {
				return []int{1, 2}
			}
			return []int{(u + 1) % 4}
		})},
		{"right order, wrong arcs", digraph.FromFunc(8, func(u int) []int {
			return []int{(2*u + 1) % 8, (2 * u) % 8} // swapped letter order
		})},
	}
	for _, tc := range cases {
		if d, D, ok := Recognize(tc.g); ok {
			t.Fatalf("%s: Recognize accepted as B(%d,%d)", tc.name, d, D)
		}
	}
}

// relabel returns g with its vertices renamed by the involution
// u ↦ n−1−u: isomorphic to g, but no longer in congruence labels (the
// same trap OTIS physical layouts fall into).
func relabel(g *digraph.Digraph) *digraph.Digraph {
	n := g.N()
	return digraph.FromFunc(n, func(u int) []int {
		src := g.Out(n - 1 - u)
		out := make([]int, len(src))
		for i, v := range src {
			out[i] = n - 1 - v
		}
		return out
	})
}

// TestCertifyWitnessAcceptsPaperWitnesses: every explicit isomorphism
// the paper gives onto B(d, D) — the identity on the congruence form,
// Proposition 3.3's II(d, d^D) witness and Proposition 3.2's B_σ
// witness — certifies, with a letter map whose arcs shift in exactly
// their letters.
func TestCertifyWitnessAcceptsPaperWitnesses(t *testing.T) {
	identity := func(n int) []int {
		id := make([]int, n)
		for u := range id {
			id[u] = u
		}
		return id
	}
	type witnessCase struct {
		name  string
		g     *digraph.Digraph
		label []int
		d, D  int
	}
	var cases []witnessCase
	for _, tc := range []struct{ d, D int }{{1, 1}, {2, 1}, {5, 1}, {2, 4}, {3, 3}, {5, 2}} {
		n := Order(tc.d, tc.D)
		cases = append(cases, witnessCase{"B", DeBruijn(tc.d, tc.D), identity(n), tc.d, tc.D})
	}
	for _, tc := range []struct{ d, D int }{{2, 3}, {2, 6}, {3, 3}, {4, 2}} {
		cases = append(cases, witnessCase{"II", ImaseItoh(tc.d, Order(tc.d, tc.D)), WitnessIIToB(tc.d, tc.D), tc.d, tc.D})
		sigma := perm.MustFromFunc(tc.d, func(i int) int { return (i + 1) % tc.d })
		cases = append(cases, witnessCase{"Bsigma", BSigma(tc.d, tc.D, sigma), WitnessW(tc.d, tc.D, sigma), tc.d, tc.D})
	}
	rel := relabel(DeBruijn(2, 4))
	back := make([]int, rel.N())
	for u := range back {
		back[u] = rel.N() - 1 - u
	}
	cases = append(cases, witnessCase{"relabelled", rel, back, 2, 4})

	for _, tc := range cases {
		d, D, letterArc, err := CertifyWitness(tc.g, tc.label)
		if err != nil || d != tc.d || D != tc.D {
			t.Fatalf("%s(%d,%d): CertifyWitness = (%d, %d, %v)", tc.name, tc.d, tc.D, d, D, err)
		}
		n := tc.g.N()
		for u := 0; u < n; u++ {
			for alpha := 0; alpha < d; alpha++ {
				k := int(letterArc[u*d+alpha])
				if head := tc.g.Out(u)[k]; tc.label[head] != (d*tc.label[u]+alpha)%n {
					t.Fatalf("%s(%d,%d): letter %d of node %d maps to arc %d, whose head %d is not the shift", tc.name, d, D, alpha, u, k, head)
				}
			}
		}
	}
}

// TestCertifyWitnessRejects: the certificate refuses each way a witness
// can fail — a non-bijective label map, a re-pointed arc, a repeated
// letter, a wrong out-degree and a label map of the wrong size.
func TestCertifyWitnessRejects(t *testing.T) {
	base := DeBruijn(2, 3)
	n := base.N()
	id := make([]int, n)
	for u := range id {
		id[u] = u
	}
	// edit returns base with node 3's out-list replaced.
	edit := func(out3 []int) *digraph.Digraph {
		return digraph.FromFunc(n, func(u int) []int {
			if u == 3 {
				return out3
			}
			return append([]int(nil), base.Out(u)...)
		})
	}
	dup := append([]int(nil), id...)
	dup[5] = dup[4]
	cases := []struct {
		name  string
		g     *digraph.Digraph
		label []int
		want  string // fragment of the expected error
	}{
		{"nil label map", base, nil, "nil witness"},
		{"non-bijective label map", base, dup, "not a bijection"},
		{"label out of range", base, append(append([]int(nil), id[:n-1]...), n), "not a bijection"},
		{"re-pointed arc", edit([]int{6, 0}), id, "no left shift"}, // 3 → {6, 7} in B(2,3)
		{"repeated letter", edit([]int{7, 7}), id, "two arcs"},     // letter 1 twice
		{"wrong out-degree", edit([]int{6}), id, "out-degree 1"},
		{"size mismatch", base, id[:n-1], "7 entries"},
		{"not a power", ImaseItoh(2, 12), make([]int, 12), "not a power"},
	}
	for _, tc := range cases {
		d, D, _, err := CertifyWitness(tc.g, tc.label)
		if err == nil {
			t.Fatalf("%s: certified as B(%d,%d)", tc.name, d, D)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the failure (want %q)", tc.name, err, tc.want)
		}
	}
}
