package repro

import (
	"fmt"
	"testing"

	"repro/internal/alpha"
	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/otis"
	"repro/internal/perm"
)

// Benchmarks of the paper's constructions that DESIGN.md §3 and
// EXPERIMENTS.md cite. Absolute timings are machine-dependent; the
// shapes the paper predicts — O(D²) lens minimization (Cor 4.6), Θ(√n)
// vs O(n) hardware — are asserted by the tests, while the benches
// measure the constants.

// --- T1: Table 1 exhaustive degree–diameter search ---

func BenchmarkTable1SearchD8(b *testing.B)  { benchTable1(b, 8, 253, 8) }
func BenchmarkTable1SearchD9(b *testing.B)  { benchTable1(b, 9, 509, 9) }
func BenchmarkTable1SearchD10(b *testing.B) { benchTable1(b, 10, 1022, 8) }

func benchTable1(b *testing.B, diam, minN, wantRows int) {
	for i := 0; i < b.N; i++ {
		rows := otis.SearchDegreeDiameter(2, diam, minN, digraph.MooreBound(2, diam))
		if len(rows) != wantRows {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// --- Corollary 4.6: the O(D²) lens minimization. ---

func BenchmarkMinimizeLenses(b *testing.B) {
	// Lens counts are d^p' + d^q', so keep D small enough for int.
	for _, D := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("D=%d", D), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := otis.MinimizeLenses(2, D); !ok {
					b.Fatal("no layout")
				}
			}
		})
	}
}

// --- §5 conjecture: every factorization of d^(D+1). ---

func BenchmarkConjectureScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(otis.NonPowerLayouts(otis.ConjectureScan(6, 2))) != 0 {
			b.Fatal("conjecture broke")
		}
	}
}

// --- Proposition 3.2: witness construction for B_σ → B. ---

func BenchmarkWitnessW(b *testing.B) {
	sigma := perm.Complement(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(debruijn.WitnessW(2, 10, sigma)) != 1024 {
			b.Fatal("bad witness")
		}
	}
}

// --- Proposition 3.9 / 4.1: layout witness for H(d^p', d^q', d) → B. ---

func BenchmarkLayoutWitness(b *testing.B) {
	for _, D := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("D=%d", D), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LayoutWitness(2, D/2, D/2+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 1-3 / Remark 2.6: constructions. ---

func BenchmarkBuildDeBruijn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if DeBruijn(2, 10).N() != 1024 {
			b.Fatal("bad digraph")
		}
	}
}

func BenchmarkBuildH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := HDigraph(32, 64, 2)
		if err != nil || g.N() != 1024 {
			b.Fatal("bad digraph")
		}
	}
}

func BenchmarkAlphaDigraphBuild(b *testing.B) {
	a := alpha.DeBruijnAlpha(2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Digraph().N() != 1024 {
			b.Fatal("bad digraph")
		}
	}
}

// --- Figure 6: optical bench trace of the full OTIS transpose. ---

func BenchmarkOpticsVerifyTranspose(b *testing.B) {
	bench, err := NewBench(16, 32, DefaultPitch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.VerifyTranspose(); err != nil {
			b.Fatal(err)
		}
	}
}
