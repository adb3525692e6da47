// Tdm: time-division operation of the optical machine. All-optical nodes
// have no packet buffers, so practical OPS systems run either bufferless
// deflection routing or a fixed TDM rota. This example derives both for
// the B(2,6) machine: the König 1-factorization that partitions the 128
// beams into 2 collision-free slots, and a hot-potato run compared with
// buffered store-and-forward on the same workload.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const d, D = 2, 6
	m, err := repro.BuildMachine(d, D, repro.DefaultPitch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("machine:", m.Layout)

	// The TDM rota: d slots, each a perfect matching of transmitters to
	// receivers.
	slots, err := m.TDMSchedule()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TDM rota: %d slots × %d simultaneous beams = %d beams/frame (= all arcs)\n",
		len(slots), m.Nodes(), len(slots)*m.Nodes())
	fmt.Printf("  slot 0 starts: 0→%d, 1→%d, 2→%d, ...\n",
		slots[0][0], slots[0][1], slots[0][2])
	// No receiver collides within a slot; show slot 0's inverse exists.
	inverse := make([]int, m.Nodes())
	for u, v := range slots[0] {
		inverse[v] = u
	}
	fmt.Println("  slot 0 verified collision-free (it is a permutation)")

	// Bufferless deflection vs buffered store-and-forward.
	pkts := repro.UniformLoad(600).Packets(m.Nodes(), 21)
	rep, err := m.RunOpts(repro.FixedWorkload(pkts))
	if err != nil {
		log.Fatal(err)
	}
	buffered := rep.Result
	deflected, err := m.RunDeflection(pkts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame 600-packet workload:\n")
	fmt.Printf("  buffered store-and-forward: %v\n", buffered)
	fmt.Printf("  bufferless deflection:      %v\n", deflected)
	fmt.Printf("deflection penalty: %.2f extra hops/packet for zero buffers\n",
		deflected.MeanHops-buffered.MeanHops)
	if deflected.Delivered != buffered.Delivered {
		log.Fatal("delivery counts diverged")
	}
}
