package repro_test

import (
	"fmt"

	"repro"
)

// Proposition 3.3 in action: the Imase–Itoh digraph is the de Bruijn
// digraph with a complemented alphabet.
func ExampleIsoIIToB() {
	mapping, err := repro.IsoIIToB(2, 3)
	if err != nil {
		panic(err)
	}
	// II(2,8) vertex 0 has out-neighbours {-1, -2} mod 8 = {7, 6}; its
	// de Bruijn image must have the images of 7 and 6 as successors.
	fmt.Println("II vertex 0 maps to B vertex", mapping[0])
	fmt.Println("successors map to", mapping[7], "and", mapping[6])
	// Output:
	// II vertex 0 maps to B vertex 2
	// successors map to 5 and 4
}

// The d!(D-1)! count of Section 3.2.
func ExampleCountDefinitions() {
	fmt.Println(repro.CountDefinitions(2, 3))
	fmt.Println(repro.CountDefinitions(3, 4))
	// Output:
	// 4
	// 36
}

// The rotation 1-factor: necklace cycles partition B(2,4).
func ExampleNecklaceCycles() {
	cycles := repro.NecklaceCycles(2, 4)
	fmt.Println("cycles:", len(cycles), "=", repro.NecklaceCount(2, 4))
	total := 0
	for _, c := range cycles {
		total += len(c)
	}
	fmt.Println("vertices covered:", total)
	// Output:
	// cycles: 6 = 6
	// vertices covered: 16
}

// An audited machine in one call.
func ExampleBuildMachine() {
	m, err := repro.BuildMachine(2, 6, repro.DefaultPitch)
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Layout)
	fmt.Println("nodes:", m.Nodes(), "lenses:", m.Lenses())
	// Output:
	// OTIS(8,16) ⊢ B(2,6), 24 lenses
	// nodes: 64 lenses: 24
}

// The Kautz digraph through the Imase–Itoh congruence, with the explicit
// witness this reproduction derives.
func ExampleIsoKautzToII() {
	mapping, err := repro.IsoKautzToII(2, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("verified bijection over", len(mapping), "vertices")
	// Output:
	// verified bijection over 12 vertices
}

// Diameter comparison of the two congruence families (why Table 1's tail
// rows are Imase–Itoh digraphs).
func ExampleDiameterGain() {
	maxII, maxRRK := repro.DiameterGain(2, 6)
	fmt.Println("II reaches", maxII, "vertices; RRK reaches", maxRRK)
	// Output:
	// II reaches 96 vertices; RRK reaches 64
}

// An instrumented run: a recorder attached to the network gathers the
// run's counters, histograms and per-arc telemetry into a stable
// OBS_run/v1 document.
func ExampleNewRecorder() {
	rec := repro.NewRecorder(repro.NewMetricsRegistry())
	g := repro.DeBruijn(3, 4)
	nw, err := repro.NewNetwork(g, repro.WithRouter(repro.NewTableRouterObserved(g, rec)))
	if err != nil {
		panic(err)
	}
	nw.Observe(rec)
	rep, err := nw.RunOpts(repro.UniformLoad(10_000), repro.WithSeed(1))
	if err != nil {
		panic(err)
	}
	doc, err := rec.Snapshot().MarshalIndent()
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", rep.Delivered)
	fmt.Println("valid OBS_run/v1:", repro.ValidateRunMetrics(doc) == nil)
	// Output:
	// delivered: 10000
	// valid OBS_run/v1: true
}

// Million-node scale: B(2,20) routes table-free by the de Bruijn shift
// closed form (O(D) state instead of a 1 TB next-hop table), and the
// cycle engine runs in prefix shards with results identical at every
// shard count. A run takes seconds and about 100 MB, so go test only
// compiles this example.
func ExampleWithShards() {
	g := repro.DeBruijn(2, 20) // 1,048,576 nodes, 2,097,152 arcs
	nw, err := repro.NewNetwork(g, repro.WithRouting(repro.ShiftRouting))
	if err != nil {
		panic(err)
	}
	rep, err := nw.RunOpts(repro.PermutationLoad(), repro.WithShards(8))
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Result)
}
