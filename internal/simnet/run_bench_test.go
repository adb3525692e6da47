package simnet

import (
	"fmt"
	"testing"

	"repro/internal/debruijn"
)

// BenchmarkPermutationRun is the package-local twin of the cmd/bench
// permutation entries: one seeded permutation per op on a shared
// Network (arena warm), uninstrumented — the delivered-packets/sec
// hot path this PR's arc-major kernel targets.
func BenchmarkPermutationRun(b *testing.B) {
	for _, sz := range []struct{ d, D int }{{3, 5}, {3, 6}, {3, 7}} {
		b.Run(fmt.Sprintf("B(%d,%d)", sz.d, sz.D), func(b *testing.B) {
			g := debruijn.DeBruijn(sz.d, sz.D)
			nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
			if err != nil {
				b.Fatal(err)
			}
			pkts := Permutation(g.N(), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runFixed(b, nw, pkts)
				if res.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/pkt")
		})
	}
}

// BenchmarkReferencePermutationRun runs the same workloads through the
// frozen packet-at-a-time engine (refRun, the equivalence oracle in
// engine_reference_test.go), so the arc-major kernel's speedup is
// measurable on one machine instead of compared across commits.
func BenchmarkReferencePermutationRun(b *testing.B) {
	for _, sz := range []struct{ d, D int }{{3, 5}, {3, 6}, {3, 7}} {
		b.Run(fmt.Sprintf("B(%d,%d)", sz.d, sz.D), func(b *testing.B) {
			g := debruijn.DeBruijn(sz.d, sz.D)
			nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
			if err != nil {
				b.Fatal(err)
			}
			pkts := Permutation(g.N(), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := refRun(nw, pkts, runTuning{}, nil)
				if res.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/pkt")
		})
	}
}
