package repro

import (
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/otis"
)

// Ablation benches: quantify the design choices DESIGN.md calls out.
//
//  1. Early-abort diameter checking (DiameterAtMost) versus computing the
//     exact diameter of every Table 1 candidate — the choice that makes
//     the exhaustive search cheap.
//  2. Witness-based isomorphism verification (O(n+m)) versus the generic
//     backtracking search — the reason the library carries explicit
//     witnesses for every paper claim.
//  3. Native de Bruijn self-routing versus precomputed tables — O(D) work
//     and zero memory versus O(n²) tables.
//  4. Hierholzer versus FKM de Bruijn sequence construction.

// --- Ablation 1: search pruning ---

func searchNaive(d, diam, minN, maxN int) []TableRow {
	// Identical to SearchDegreeDiameter but with exact diameters (no
	// early abort). For the bench only.
	var rows []TableRow
	for n := minN; n <= maxN; n++ {
		m := d * n
		var pairs [][2]int
		for p := 1; p*p <= m; p++ {
			if m%p != 0 {
				continue
			}
			q := m / p
			g, err := HDigraph(p, q, d)
			if err != nil {
				continue
			}
			if g.Diameter() == diam {
				pairs = append(pairs, [2]int{p, q})
			}
		}
		if len(pairs) > 0 {
			rows = append(rows, TableRow{N: n, Pairs: pairs})
		}
	}
	return rows
}

func BenchmarkAblationSearchPruned(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(otis.SearchDegreeDiameter(2, 6, 60, 96)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationSearchNaive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(searchNaive(2, 6, 60, 96)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func TestAblationSearchesAgree(t *testing.T) {
	pruned := otis.SearchDegreeDiameter(2, 6, 60, 96)
	naive := searchNaive(2, 6, 60, 96)
	if len(pruned) != len(naive) {
		t.Fatalf("row counts differ: %d vs %d", len(pruned), len(naive))
	}
	for i := range pruned {
		if pruned[i].N != naive[i].N || len(pruned[i].Pairs) != len(naive[i].Pairs) {
			t.Fatalf("row %d differs: %v vs %v", i, pruned[i], naive[i])
		}
	}
}

// --- Ablation 2: witness vs generic isomorphism ---

func BenchmarkAblationIsoWitness(b *testing.B) {
	mapping, err := LayoutWitness(2, 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	h, _ := HDigraph(16, 32, 2)
	target := DeBruijn(2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyIsomorphism(h, target, mapping); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIsoGenericSearch(b *testing.B) {
	h, _ := HDigraph(16, 32, 2)
	target := DeBruijn(2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := digraph.FindIsomorphism(h, target); !ok {
			b.Fatal("not isomorphic")
		}
	}
}

// --- Ablation 3: native routing vs tables ---

func BenchmarkAblationRouterNativeSetupAndRun(b *testing.B) {
	g := DeBruijn(2, 8)
	pkts := UniformLoad(200).Packets(g.N(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router := NewDeBruijnRouter(2, 8) // O(1) setup
		nw, _ := NewNetwork(g, WithRouter(router))
		if res, err := nw.RunOpts(FixedWorkload(pkts)); err != nil || res.Delivered != 200 {
			b.Fatal("undelivered")
		}
	}
}

func BenchmarkAblationRouterTableSetupAndRun(b *testing.B) {
	g := DeBruijn(2, 8)
	pkts := UniformLoad(200).Packets(g.N(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router := NewTableRouter(g) // O(n²) setup
		nw, _ := NewNetwork(g, WithRouter(router))
		if res, err := nw.RunOpts(FixedWorkload(pkts)); err != nil || res.Delivered != 200 {
			b.Fatal("undelivered")
		}
	}
}

// --- Ablation 4: sequence constructions ---

func BenchmarkAblationSequenceHierholzer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seq, err := DeBruijnSequence(2, 14)
		if err != nil || len(seq) != 1<<14 {
			b.Fatal("bad sequence")
		}
	}
}

func BenchmarkAblationSequenceFKM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seq, err := debruijn.SequenceFKM(2, 14)
		if err != nil || len(seq) != 1<<14 {
			b.Fatal("bad sequence")
		}
	}
}
