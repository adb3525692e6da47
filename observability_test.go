package repro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/simnet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestRunMetricsGolden pins the OBS_run/v1 document byte-for-byte for a
// fully deterministic run: B(2,3) under a seed-1 permutation on the
// native self-router (no timing gauges involved). Any schema drift —
// renamed counters, reordered fields, changed bucket trimming — shows up
// as a golden diff, which is exactly the point: external consumers parse
// this document.
func TestRunMetricsGolden(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	nw, err := simnet.NewNetwork(g, simnet.WithRouter(simnet.NewDeBruijnRouter(2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	nw.Observe(rec)
	if _, err := nw.RunOpts(simnet.PermutationLoad(), simnet.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	got, err := rec.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRunMetrics(got); err != nil {
		t.Fatalf("emitted document invalid: %v", err)
	}

	golden := filepath.Join("testdata", "obs_run_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("OBS_run/v1 document drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMachineLensUtilization is the ISSUE's proof obligation: on an
// instrumented B(3,4) machine run, every lens total must exactly equal
// the sum of its arc group's traversal counts, per-side shares must sum
// to 1, and the tx-side total must equal the run's total hops (every
// hop crosses exactly one tx and one rx lens).
func TestMachineLensUtilization(t *testing.T) {
	m, err := BuildMachine(3, 4, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(nil)
	m.Observe(rec)
	rep, err := m.RunOpts(simnet.UniformLoad(2000), simnet.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var totalHops int64
	for _, p := range rep.Packets {
		if p.Delivered >= 0 {
			totalHops += int64(p.Hops)
		}
	}

	lenses, err := m.LensUtilization(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(lenses) != m.Lenses() {
		t.Fatalf("%d lens rows, machine has %d lenses", len(lenses), m.Lenses())
	}

	trav := rec.ArcTraversals()
	p := m.Layout.P()
	shareSum := map[string]float64{}
	totalBySide := map[string]int64{}
	for _, l := range lenses {
		// Recompute the group sum by hand from the layout and the slab.
		arcs, err := m.Layout.LensArcs(l.Lens)
		if err != nil {
			t.Fatal(err)
		}
		var manual int64
		for _, a := range arcs {
			manual += trav[m.PhysicalArcIndex(a[0], a[1])]
		}
		if manual != l.Traversals {
			t.Errorf("lens %d: rolled-up %d, manual arc-group sum %d", l.Lens, l.Traversals, manual)
		}
		if len(arcs) != l.Arcs {
			t.Errorf("lens %d: Arcs %d, group size %d", l.Lens, l.Arcs, len(arcs))
		}
		wantSide := "tx"
		if l.Lens >= p {
			wantSide = "rx"
		}
		if l.Side != wantSide {
			t.Errorf("lens %d: side %q, want %q", l.Lens, l.Side, wantSide)
		}
		shareSum[l.Side] += l.Share
		totalBySide[l.Side] += l.Traversals
	}
	for _, side := range []string{"tx", "rx"} {
		if got := totalBySide[side]; got != totalHops {
			t.Errorf("%s lens totals %d, run total hops %d", side, got, totalHops)
		}
		if s := shareSum[side]; s < 1-1e-9 || s > 1+1e-9 {
			t.Errorf("%s shares sum to %v, want 1", side, s)
		}
	}

	// The assembled document passes the validator.
	doc, err := m.RunMetrics(rec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := doc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunMetrics(data); err != nil {
		t.Errorf("machine RunMetrics invalid: %v", err)
	}
	if len(doc.Lenses) != m.Lenses() {
		t.Errorf("document has %d lens rows", len(doc.Lenses))
	}
}

// TestFacadeObservabilityExports drives the recorder wiring end to end,
// the way an external consumer would: an observed table-router build, a
// recorder attached to the network and passed per run, and the counters
// and gauges of the snapshot.
func TestFacadeObservabilityExports(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg)
	if rec.Registry() != reg {
		t.Fatal("NewRecorder ignored the registry")
	}
	g := debruijn.DeBruijn(2, 4)
	nw, err := simnet.NewNetwork(g, simnet.WithRouter(simnet.NewTableRouterObserved(g, rec)))
	if err != nil {
		t.Fatal(err)
	}
	nw.Observe(rec)
	rep, err := nw.RunOpts(simnet.UniformLoad(200), simnet.WithSeed(3), simnet.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 200 {
		t.Fatalf("delivered %d", rep.Delivered)
	}
	snap := rec.Snapshot()
	if snap.Schema != obs.RunMetricsSchema {
		t.Errorf("schema %q", snap.Schema)
	}
	if snap.Counters[obs.MetricDelivered] != 200 {
		t.Errorf("counters: %v", snap.Counters)
	}
	if snap.Gauges[obs.MetricRouterBytes] == 0 {
		t.Errorf("observed router build missing: %v", snap.Gauges)
	}
}
