// Broadcast: one-to-all communication on de Bruijn networks, the workload
// of the broadcasting/gossiping literature the paper builds on ([28], [3]).
// We broadcast from a corner of B(2,D) along the BFS arborescence, compare
// the simulated makespan with the trivial lower bounds (diameter for
// distance, n/d for the root's bandwidth bottleneck), and run the same
// experiment on the Kautz digraph of similar size for contrast.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const d, D = 2, 7
	runOn("B(2,7)", repro.DeBruijn(d, D), d)
	k, _ := repro.Kautz(d, D)
	runOn("K(2,7)", k, d)

	// Structural broadcast tree: depth histogram.
	parent, depth := repro.BroadcastTree(d, D, 0)
	hist := map[int]int{}
	maxDepth := 0
	for v := range parent {
		hist[depth[v]]++
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	fmt.Println("\nB(2,7) broadcast-tree depth histogram (root 0):")
	for k := 0; k <= maxDepth; k++ {
		fmt.Printf("  depth %d: %d nodes\n", k, hist[k])
	}
	fmt.Printf("tree depth = %d = diameter, as the theory requires\n", maxDepth)
}

func runOn(name string, g *repro.Digraph, d int) {
	nw, err := repro.NewNetwork(g, repro.WithRouter(repro.NewTableRouter(g)))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := nw.RunOpts(repro.BroadcastLoad(0))
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Result
	diam := g.Diameter()
	fmt.Printf("%s: n=%d diameter=%d — broadcast %v\n", name, g.N(), diam, res)
	fmt.Printf("  lower bounds: distance %d, root bandwidth %d cycles\n",
		diam, (g.N()-2)/d+1)
}
