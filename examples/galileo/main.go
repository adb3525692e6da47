// Galileo: the paper motivates de Bruijn networks with NASA's Galileo
// space probe, whose Viterbi signal decoder is a VLSI decomposition of a
// large de Bruijn graph (Collins et al., JACM 1992 — reference [11]).
//
// This example builds the decoder-style interconnect: a B(2,D) network in
// which every node exchanges state-metric messages with its de Bruijn
// neighbours once per trellis step — the all-to-neighbours traffic of a
// Viterbi add-compare-select stage — and shows that realizing the network
// on an optimal OTIS layout preserves the communication behaviour exactly
// (same hop counts under the isomorphism), while cutting the optical
// hardware from O(n) to Θ(√n) lenses.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const d, D = 2, 8 // 256-state decoder, as a scaled-down Galileo stage

	b := repro.DeBruijn(d, D)
	fmt.Printf("decoder trellis network: B(%d,%d), %d states\n", d, D, b.N())

	// One trellis step: every state u sends its path metric to both
	// successors (2u, 2u+1 mod n) — exactly the de Bruijn arcs.
	pkts := make([]repro.Packet, 0, b.N()*d)
	id := 0
	for u := 0; u < b.N(); u++ {
		for _, v := range b.Out(u) {
			if u == v {
				continue // loop states keep their metric locally
			}
			pkts = append(pkts, repro.Packet{ID: id, Src: u, Dst: v})
			id++
		}
	}
	nw, err := repro.NewNetwork(b, repro.WithRouter(repro.NewDeBruijnRouter(d, D)))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := nw.RunOpts(repro.FixedWorkload(pkts))
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Result
	fmt.Printf("trellis step on B(%d,%d): %v\n", d, D, res)
	if res.MaxHops != 1 {
		log.Fatalf("decoder traffic should be single-hop, got max %d", res.MaxHops)
	}

	// Now the same machine on the optical layout: H(16,32,2) with the
	// witness relabelling. Because the witness is an isomorphism, the
	// trellis traffic is still single-hop on the physical network.
	layout, _ := repro.OptimalLayout(d, D)
	h, err := repro.HDigraph(layout.P(), layout.Q(), d)
	if err != nil {
		log.Fatal(err)
	}
	mapping, err := repro.LayoutWitness(d, layout.PPrime, layout.QPrime)
	if err != nil {
		log.Fatal(err)
	}
	inv := make([]int, len(mapping))
	for hNode, bNode := range mapping {
		inv[bNode] = hNode
	}
	physical := make([]repro.Packet, len(pkts))
	for i, p := range pkts {
		physical[i] = repro.Packet{ID: p.ID, Src: inv[p.Src], Dst: inv[p.Dst]}
	}
	nwH, err := repro.NewNetwork(h, repro.WithRouter(repro.NewTableRouter(h)))
	if err != nil {
		log.Fatal(err)
	}
	repH, err := nwH.RunOpts(repro.FixedWorkload(physical))
	if err != nil {
		log.Fatal(err)
	}
	resH := repH.Result
	fmt.Printf("same step on %v: %v\n", layout, resH)
	if resH.MaxHops != 1 {
		log.Fatalf("optical layout broke decoder locality: max hops %d", resH.MaxHops)
	}
	fmt.Printf("decoder locality preserved under the layout isomorphism; "+
		"optical hardware: %d lenses instead of %d\n",
		layout.Lenses(), repro.IILayoutLenses(d, b.N()))

	// Sustained decoding: many trellis steps pipelined as Poisson traffic.
	repStream, err := nw.RunOpts(repro.PoissonLoad(4000, 0.8), repro.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipelined metric exchange (Poisson, 4000 packets): %v\n", repStream.Result)
}
