// Faulttolerance: what happens to the optical de Bruijn machine when
// hardware fails. The de Bruijn digraph is (d-1)-connected and the Kautz
// digraph d-connected; this example measures those margins with max-flow,
// then injects faults into the RUNNING machine — a dead link, a dirty
// lens that later clears, a lens gone for good — and shows the
// fault-aware router delivering what physics still permits, with every
// loss accounted. It closes with a degradation sweep: delivered fraction
// vs. fault rate.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Connectivity audit of the candidate machines.
	fmt.Println("connectivity (max-flow, Menger):")
	for _, d := range []int{2, 3, 4} {
		b := repro.DeBruijn(d, 2)
		fmt.Printf("  B(%d,2): κ=%d λ=%d (survives %d vertex faults worst-case)\n",
			d, b.VertexConnectivity(), b.ArcConnectivity(), b.VertexConnectivity()-1)
	}
	k := repro.ImaseItoh(3, 36) // ≅ K(3,3)
	fmt.Printf("  K(3,3): κ=%d λ=%d — Kautz buys one extra fault over B at equal degree\n",
		k.VertexConnectivity(), k.ArcConnectivity())

	// Disjoint paths: the physical redundancy behind the numbers.
	b := repro.DeBruijn(3, 3)
	paths := b.ArcDisjointPaths(2, 19)
	fmt.Printf("\nB(3,3): %d arc-disjoint paths from 2 to 19:\n", len(paths))
	for _, p := range paths {
		fmt.Printf("  %v\n", p)
	}

	// Static surgery (the old experiment): remove the arc, rebuild the
	// tables, rerun. This shows the residual GRAPH works…
	faulty := b.RemoveArc(paths[0][0], paths[0][1])
	nw, err := repro.NewNetwork(faulty, repro.WithRouter(repro.NewTableRouter(faulty)))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := nw.RunOpts(repro.UniformLoad(1000), repro.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Result
	fmt.Printf("\nstatic surgery, arc (%d,%d) removed: %v\n", paths[0][0], paths[0][1], res)
	if res.Dropped != 0 {
		log.Fatal("traffic was dropped despite 2-connectivity")
	}

	// …but hardware does not pause for a rebuild. Runtime injection: the
	// same arc dies at cycle 0 DURING the run, on the intact network, and
	// the fault-aware router deflects around it mid-flight.
	live, err := repro.NewNetwork(b, repro.WithRouter(repro.NewTableRouter(b)))
	if err != nil {
		log.Fatal(err)
	}
	arcIndex := -1
	for idx, v := range b.Out(paths[0][0]) {
		if v == paths[0][1] {
			arcIndex = idx
			break
		}
	}
	plan := repro.NewFaultPlan().LinkDown(0, 0, paths[0][0], arcIndex)
	frep, err := live.RunOpts(repro.UniformLoad(1000), repro.WithSeed(11), repro.WithFaults(plan))
	if err != nil {
		log.Fatal(err)
	}
	fres := frep.FaultResult
	fmt.Printf("runtime fault, same arc: %v\n", fres)
	if fres.Dropped != 0 {
		log.Fatal("runtime rerouting dropped traffic despite 2-connectivity")
	}
	fmt.Println("all traffic rerouted mid-flight — no rebuild, no loss")

	// The optical machine's correlated failure: one lens carries a whole
	// group of beams. Assemble the B(3,4) machine (OTIS(9,27), 36 lenses)
	// and break lens 2 for 60 cycles — dust, vibration — then for good.
	m, err := repro.BuildMachine(3, 4, repro.DefaultPitch)
	if err != nil {
		log.Fatal(err)
	}
	silencedOut, silencedIn, err := m.LensShadow(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmachine %v\n", m.Layout)
	fmt.Printf("lens 2 shadow: out-silenced %v, in-silenced %v\n", silencedOut, silencedIn)

	transient, err := m.LensFaultPlan(0, 60, 2)
	if err != nil {
		log.Fatal(err)
	}
	trep, err := m.RunOpts(repro.UniformLoad(2000), repro.WithSeed(5), repro.WithFaults(transient))
	if err != nil {
		log.Fatal(err)
	}
	tres := trep.FaultResult
	fmt.Printf("transient lens fault (60 cycles): %v\n", tres)
	if tres.Dropped != 0 {
		log.Fatal("transient lens fault should lose nothing (blocked packets retry)")
	}

	permanent, err := m.LensFaultPlan(0, 0, 2)
	if err != nil {
		log.Fatal(err)
	}
	rec := repro.NewRecorder(nil)
	m.Observe(rec)
	prep, err := m.RunOpts(repro.UniformLoad(2000), repro.WithSeed(5), repro.WithFaults(permanent))
	if err != nil {
		log.Fatal(err)
	}
	pres := prep.FaultResult
	fmt.Printf("permanent lens fault: %v\n", pres)
	fmt.Printf("  delivered fraction %.3f — the shadowed block is dark, everyone else is served\n",
		pres.DeliveredFraction())

	// The recorder's per-arc slab rolled up by lens shows the failure in
	// the optics' own terms: the dead lens carried nothing, its neighbours
	// absorbed the rerouted beams.
	lenses, err := m.LensUtilization(rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-lens utilization of the degraded run (transmitter side):")
	for _, l := range lenses {
		if l.Side != "tx" {
			continue
		}
		note := ""
		if l.Lens == 2 {
			note = "  <- faulted"
		}
		fmt.Printf("  lens %2d: %2d arcs, %5d traversals, share %.3f%s\n",
			l.Lens, l.Arcs, l.Traversals, l.Share, note)
	}

	// Degradation: how service decays as arcs die at random.
	fmt.Println("\ndegradation sweep on B(3,3) (delivered fraction vs. per-arc fault rate):")
	points, err := repro.DegradationSweep(b, repro.NewTableRouter(b),
		[]float64{0, 0.05, 0.1, 0.2, 0.4, 0.7, 1}, 500, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		fmt.Printf("  %v\n", p)
	}
	fmt.Println("graceful to the end: even total blackout terminates with every loss accounted")
}
