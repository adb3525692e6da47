// machine builds a complete optical de Bruijn machine for a given degree
// and diameter, audits every layer (graph theory, optics, diffraction,
// power, routing) and reports the hardware — the one-command summary of
// what the paper's construction buys.
//
// Usage:
//
//	machine -d 2 -diam 8
//	machine -d 3 -diam 4 -pitch 125e-6
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/machine"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/simnet"
)

func main() {
	d := flag.Int("d", 2, "degree")
	diam := flag.Int("diam", 8, "diameter")
	budget := flag.Int("budget", 0, "if > 0, plan the largest machine within this many processors instead of using -diam")
	pitch := flag.Float64("pitch", optics.DefaultPitch, "transceiver pitch (m)")
	flag.Parse()

	if *budget > 0 {
		plan, ok := machine.Plan(*d, *budget)
		if !ok {
			fmt.Fprintf(os.Stderr, "machine: no degree-%d machine fits %d processors\n", *d, *budget)
			os.Exit(1)
		}
		fmt.Printf("budget %d processors → %v\n", *budget, plan)
		*diam = plan.Diam
	}

	m, err := machine.Build(*d, *diam, *pitch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine:", err)
		os.Exit(1)
	}
	report, err := m.Audit()
	fmt.Print(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine: AUDIT FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("\nhardware:", m.BOM())
	fmt.Println("assembly tolerances:", m.Bench.ToleranceReport())
	fmt.Printf("baseline comparison: %d lenses here vs %d for the O(n) layout\n",
		m.Lenses(), otis.IILayoutLenses(*d, m.Nodes()))

	// A quick traffic shakedown.
	rep, err := m.RunOpts(simnet.UniformLoad(4 * m.Nodes()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine:", err)
		os.Exit(1)
	}
	res := rep.Result
	fmt.Printf("shakedown: %v\n", res)
	if res.MaxHops > *diam {
		fmt.Fprintln(os.Stderr, "machine: hop bound violated!")
		os.Exit(1)
	}
	fmt.Println("machine OK")
}
