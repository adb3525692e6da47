package repro

import (
	"strings"
	"testing"
)

// End-to-end tests exercising the public facade: graph theory, optics and
// simulation composed the way a user of the library would.

func TestQuickstartFlow(t *testing.T) {
	// The README quick start, as a test.
	layout, ok := OptimalLayout(2, 8)
	if !ok {
		t.Fatal("no layout for B(2,8)")
	}
	if layout.P() != 16 || layout.Q() != 32 || layout.Lenses() != 48 {
		t.Fatalf("layout = %v", layout)
	}
	mapping, err := LayoutWitness(2, layout.PPrime, layout.QPrime)
	if err != nil {
		t.Fatal(err)
	}
	h, err := HDigraph(layout.P(), layout.Q(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIsomorphism(h, DeBruijn(2, 8), mapping); err != nil {
		t.Fatal(err)
	}
	bench, err := NewBench(layout.P(), layout.Q(), DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.VerifyTranspose(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndLayout(t *testing.T) {
	// Experiment E5: realize B(2,10) on its optimal OTIS layout, verify
	// the optics, then route packets over the *relabelled* digraph
	// H(32,64,2) with table routing, and check the hop bound is the
	// de Bruijn diameter.
	const d, D = 2, 10
	layout, ok := OptimalLayout(d, D)
	if !ok {
		t.Fatal("no layout")
	}
	if layout.Lenses() != 96 {
		t.Fatalf("lenses = %d, want 96 = 3·√1024", layout.Lenses())
	}
	h, err := HDigraph(layout.P(), layout.Q(), d)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Diameter(); got != D {
		t.Fatalf("H diameter = %d, want %d", got, D)
	}
	nw, err := NewNetwork(h, WithRouter(NewTableRouter(h)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RunOpts(UniformLoad(2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2000 || res.Dropped != 0 {
		t.Fatalf("result %v", res)
	}
	if res.MaxHops > D {
		t.Errorf("max hops %d exceeds diameter %d", res.MaxHops, D)
	}
	mean, okMean := h.MeanDistance()
	if !okMean {
		t.Fatal("mean distance undefined")
	}
	// Uniform traffic mean hops must be close to the digraph's mean
	// distance (same distribution, sampled).
	if res.MeanHops < mean-0.5 || res.MeanHops > mean+0.5 {
		t.Errorf("mean hops %.2f far from mean distance %.2f", res.MeanHops, mean)
	}
}

func TestFacadeNativeRouterOnLayout(t *testing.T) {
	// Route on B(2,8) labels with the native router, after mapping H
	// vertices through the layout witness — the full "self-routing OTIS
	// de Bruijn machine" pipeline.
	const d, D = 2, 8
	mapping, err := LayoutWitness(d, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := DeBruijn(d, D)
	nw, err := NewNetwork(b, WithRouter(NewDeBruijnRouter(d, D)))
	if err != nil {
		t.Fatal(err)
	}
	// Translate an H-space workload to B-space through the witness.
	pkts := UniformLoad(500).Packets(b.N(), 2)
	for i := range pkts {
		pkts[i].Src = mapping[pkts[i].Src]
		pkts[i].Dst = mapping[pkts[i].Dst]
	}
	res, err := nw.RunOpts(FixedWorkload(pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 500 {
		t.Fatalf("delivered %d/500", res.Delivered)
	}
	if res.MaxHops > D {
		t.Errorf("max hops %d > %d", res.MaxHops, D)
	}
}

func TestFacadeMachine(t *testing.T) {
	m, err := BuildMachine(2, 8, DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Audit()
	if err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
	if m.Nodes() != 256 || m.Lenses() != 48 {
		t.Error("machine shape wrong")
	}
	res, err := m.RunOpts(BroadcastLoad(0))
	if err != nil || res.Delivered != 255 {
		t.Errorf("broadcast: %v %v", res, err)
	}
	path := m.Route(0, 255)
	if len(path)-1 > 8 {
		t.Errorf("route too long: %v", path)
	}
}

func TestFacadeExports(t *testing.T) {
	var sb strings.Builder
	if err := DeBruijn(2, 2).WriteDOT(&sb, "b22", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Error("DOT export broken")
	}
	bench, _ := NewBench(4, 8, DefaultPitch)
	sb.Reset()
	if err := bench.WriteSVG(&sb, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Error("SVG export broken")
	}
	if bench.ToleranceReport() == "" {
		t.Error("tolerance report empty")
	}
}
