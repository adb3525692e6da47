package repro

import (
	"fmt"
	"testing"

	"repro/internal/optics"
)

// Benchmarks, one per paper artifact (see DESIGN.md §3 for the mapping).
// Absolute timings are machine-dependent; the shapes the paper predicts —
// O(D) layout checks (Cor 4.5), O(D²) lens minimization (Cor 4.6),
// Θ(√n) vs O(n) hardware — are asserted by the tests, while the benches
// measure the constants.

// --- T1: Table 1 exhaustive degree–diameter search ---

func BenchmarkTable1SearchD8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := SearchDegreeDiameter(2, 8, 253, MooreBound(2, 8))
		if len(rows) != 8 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

func BenchmarkTable1SearchD9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := SearchDegreeDiameter(2, 9, 509, MooreBound(2, 9))
		if len(rows) != 9 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

func BenchmarkTable1SearchD10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := SearchDegreeDiameter(2, 10, 1022, MooreBound(2, 10))
		if len(rows) != 8 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// --- Corollary 4.5: the O(D) layout check. Sub-benchmarks across D show
// the linear growth. ---

func BenchmarkIsDeBruijnLayout(b *testing.B) {
	for _, D := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("D=%d", D), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !IsDeBruijnLayout(D/2, D/2+1) {
					b.Fatal("layout rejected")
				}
			}
		})
	}
}

// --- Corollary 4.6: the O(D²) lens minimization. ---

func BenchmarkMinimizeLenses(b *testing.B) {
	// Lens counts are d^p' + d^q', so keep D small enough for int; the
	// split search itself is benchmarked separately for large D.
	for _, D := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("D=%d", D), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := MinimizeLenses(2, D); !ok {
					b.Fatal("no layout")
				}
			}
		})
	}
}

func BenchmarkOptimalLayoutSplitSearch(b *testing.B) {
	for _, D := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("D=%d", D), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := OptimalLayout(2, D); !ok {
					b.Fatal("no layout")
				}
			}
		})
	}
}

// --- Proposition 3.2: witness construction for B_σ → B. ---

func BenchmarkWitnessW(b *testing.B) {
	sigma := ComplementPerm(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(WitnessW(2, 10, sigma)) != 1024 {
			b.Fatal("bad witness")
		}
	}
}

// --- Proposition 3.3: II → B witness plus verification. ---

func BenchmarkIsoIIToB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := IsoIIToB(2, 8); err != nil {
			b.Fatal(err)
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

func BenchmarkBuildKautz(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := Kautz(2, 10)
		if g.N() != 1536 {
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

func BenchmarkDiameterB210(b *testing.B) {
	g := DeBruijn(2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Diameter() != 10 {
			b.Fatal("bad diameter")
		}
	}
}

// --- Figure 8: generic isomorphism search on H(4,8,2) vs B(2,4). ---

func BenchmarkFindIsomorphismH482(b *testing.B) {
	h, _ := HDigraph(4, 8, 2)
	target := DeBruijn(2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := FindIsomorphism(h, target); !ok {
			b.Fatal("not isomorphic")
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

func BenchmarkOpticsTraceSingleBeam(b *testing.B) {
	bench, _ := NewBench(32, 64, DefaultPitch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := bench.Trace(i%32, i%64)
		if tr.RxI < 0 {
			b.Fatal("bad trace")
		}
	}
}

func BenchmarkWorstCaseMargin(b *testing.B) {
	bench, _ := NewBench(16, 32, DefaultPitch)
	budget := DefaultBudget()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, _ := optics.WorstCaseMargin(bench, budget); m <= 0 {
			b.Fatal("link does not close")
		}
	}
}

// --- E3: lens scaling series (headline Θ(√n) vs O(n)). ---

func BenchmarkLensScalingSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for D := 2; D <= 20; D += 2 {
			_, _, lenses, ok := MinimizeLenses(2, D)
			if !ok || lenses <= 0 {
				b.Fatal("bad scaling point")
			}
		}
	}
}

// --- E5: packet simulation over the realized network. ---

func BenchmarkSimnetTableRouting(b *testing.B) {
	g := DeBruijn(2, 8)
	router := NewTableRouter(g)
	pkts := UniformLoad(1000).Packets(g.N(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, _ := NewNetwork(g, WithRouter(router))
		res, err := nw.RunOpts(FixedWorkload(pkts))
		if err != nil || res.Delivered != 1000 {
			b.Fatalf("delivered %d", res.Delivered)
		}
	}
}

func BenchmarkSimnetNativeRouting(b *testing.B) {
	const d, D = 2, 8
	g := DeBruijn(d, D)
	router := NewDeBruijnRouter(d, D)
	pkts := UniformLoad(1000).Packets(g.N(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, _ := NewNetwork(g, WithRouter(router))
		res, err := nw.RunOpts(FixedWorkload(pkts))
		if err != nil || res.Delivered != 1000 {
			b.Fatalf("delivered %d", res.Delivered)
		}
	}
}

// --- De Bruijn self-routing primitives. ---

func BenchmarkDeBruijnRoute(b *testing.B) {
	src, _ := ParseWord(2, "0110100110")
	dst, _ := ParseWord(2, "1010011001")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(DeBruijnRoute(src, dst)) == 0 {
			b.Fatal("no route")
		}
	}
}

func BenchmarkBroadcastTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		parent, _ := BroadcastTree(2, 10, 0)
		if len(parent) != 1024 {
			b.Fatal("bad tree")
		}
	}
}

// --- Alpha digraph machinery. ---

func BenchmarkAlphaDigraphBuild(b *testing.B) {
	a := DeBruijnAlpha(2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Digraph().N() != 1024 {
			b.Fatal("bad digraph")
		}
	}
}

func BenchmarkVerifyIsomorphism(b *testing.B) {
	mapping, err := LayoutWitness(2, 5, 6)
	if err != nil {
		b.Fatal(err)
	}
	h, _ := HDigraph(32, 64, 2)
	target := DeBruijn(2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyIsomorphism(h, target, mapping); err != nil {
			b.Fatal(err)
		}
	}
}
