// Fftmachine: the Parallel Optoelectronic FFT Engine ([24]) in miniature.
// An n = 2^D point FFT is mapped one point per processor onto the de
// Bruijn network B(2, D) realized by its optimal OTIS layout. The Pease
// constant-geometry FFT makes every one of the D stages an identical
// single-hop communication step along de Bruijn arcs, so the machine's
// optical wiring is reused unchanged every stage.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"math/rand"

	"repro"
)

func main() {
	const D = 10
	n := 1 << D

	// The machine: B(2,10) on OTIS(32,64).
	layout, ok := repro.OptimalLayout(2, D)
	if !ok {
		log.Fatal("no layout")
	}
	fmt.Printf("machine: %d processors as %v\n", n, layout)

	// Every FFT stage reads along de Bruijn arcs — verify against the
	// digraph, then count the physical communication steps.
	if err := repro.VerifyFFTDataflow(D); err != nil {
		log.Fatal(err)
	}
	stages := D
	fmt.Printf("dataflow: %d identical single-hop stages (constant geometry)\n", stages)

	// Simulate the stage traffic on the physical OTIS digraph: each stage
	// node u receives from its two de Bruijn in-neighbours. Map through
	// the layout witness and check the traffic is single-hop there too.
	h, err := repro.HDigraph(layout.P(), layout.Q(), 2)
	if err != nil {
		log.Fatal(err)
	}
	mapping, err := repro.LayoutWitness(2, layout.PPrime, layout.QPrime)
	if err != nil {
		log.Fatal(err)
	}
	inv := make([]int, n)
	for hNode, bNode := range mapping {
		inv[bNode] = hNode
	}
	var pkts []repro.Packet
	id := 0
	for u := 0; u < n; u++ {
		for _, src := range repro.FFTStageSources(u, n) {
			if src == u {
				continue
			}
			pkts = append(pkts, repro.Packet{ID: id, Src: inv[src], Dst: inv[u]})
			id++
		}
	}
	nw, err := repro.NewNetwork(h, repro.WithRouter(repro.NewTableRouter(h)))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := nw.RunOpts(repro.FixedWorkload(pkts))
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Result
	fmt.Printf("one stage on the optical machine: %v\n", res)
	if res.MaxHops != 1 {
		log.Fatalf("stage traffic not single-hop on the layout (max %d)", res.MaxHops)
	}

	// And the arithmetic: transform a noisy two-tone signal and find the
	// tones.
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, n)
	for j := range x {
		s := 2.0*math.Sin(2*math.Pi*37*float64(j)/float64(n)) +
			1.0*math.Sin(2*math.Pi*200*float64(j)/float64(n))
		x[j] = complex(s+0.1*rng.NormFloat64(), 0)
	}
	X, err := repro.FFT(x)
	if err != nil {
		log.Fatal(err)
	}
	type peak struct {
		bin int
		mag float64
	}
	var best []peak
	for k := 1; k < n/2; k++ {
		m := cmplx.Abs(X[k])
		best = append(best, peak{k, m})
	}
	// Selection of the top two bins.
	for i := 0; i < 2; i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j].mag > best[i].mag {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	fmt.Printf("spectrum peaks: bins %d and %d (expected 37 and 200)\n", best[0].bin, best[1].bin)
	if (best[0].bin != 37 || best[1].bin != 200) && (best[0].bin != 200 || best[1].bin != 37) {
		log.Fatal("FFT peaks wrong")
	}
	fmt.Printf("total: %d stages × 1 hop = %d communication rounds for a %d-point FFT\n",
		stages, stages, n)
}
