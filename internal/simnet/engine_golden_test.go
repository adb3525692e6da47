package simnet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

var updateEngineGolden = flag.Bool("update-engine-golden", false, "rewrite the engine behaviour golden files")

// The engine behaviour goldens pin the observable output of the cycle
// engines — full result accounting, the per-packet delivery table, the
// rendered event trace and the OBS_run/v1 metrics document — for a
// matrix of runs that together exercise every engine path: the plain
// unbounded loop, bounded queues with backpressure and admission
// shedding, the fault engine with reroutes and retries, and a truncated
// run. They were generated from the packet-at-a-time engine and are the
// byte-identity gate for the arc-major SoA kernel: any divergence in
// routing decisions, phase ordering, accounting or recording shows up
// as a golden diff.

// renderEngineRun flattens one run into the diffable golden text.
func renderEngineRun(name string, rep RunReport, doc []byte) string {
	var sb strings.Builder
	r := rep.FaultResult
	fmt.Fprintf(&sb, "case: %s\n", name)
	fmt.Fprintf(&sb, "delivered=%d dropped=%d shed=%d cycles=%d\n", r.Delivered, r.Dropped, r.Shed, r.Cycles)
	fmt.Fprintf(&sb, "totalHops=%d maxHops=%d totalWait=%d meanLatency=%.6f meanHops=%.6f\n",
		r.TotalHops, r.MaxHops, r.TotalWait, r.MeanLatency, r.MeanHops)
	fmt.Fprintf(&sb, "maxQueue=%d hotNode=%d holds=%d peakResident=%d droppedQueueFull=%d\n",
		r.MaxQueue, r.HotNode, r.Holds, r.PeakResident, r.DroppedQueueFull)
	fmt.Fprintf(&sb, "reroutes=%d retries=%d dropTTL=%d dropNoRoute=%d dropFault=%d dropHorizon=%d stuck=%d\n",
		r.Reroutes, r.Retries, r.DroppedTTL, r.DroppedNoRoute, r.DroppedFault, r.DroppedHorizon, r.Stuck)
	sb.WriteString("packets:\n")
	for _, p := range r.Packets {
		fmt.Fprintf(&sb, "  id=%d %d->%d rel=%d del=%d hops=%d\n", p.ID, p.Src, p.Dst, p.Release, p.Delivered, p.Hops)
	}
	sb.WriteString("events:\n")
	for _, e := range rep.Events {
		fmt.Fprintf(&sb, "  %s\n", e.String())
	}
	if doc != nil {
		sb.WriteString("obs:\n")
		sb.Write(doc)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestEngineBehaviourGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (RunReport, []byte)
	}{
		{
			// The plain unbounded engine under a seeded permutation,
			// traced and instrumented.
			name: "plain_permutation",
			run: func(t *testing.T) (RunReport, []byte) {
				g := debruijn.DeBruijn(3, 4)
				nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(PermutationLoad(),
					WithSeed(42), WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Delivered == 0 {
					t.Fatal("degenerate case: nothing delivered")
				}
				doc, err := rec.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return rep, doc
			},
		},
		{
			// Bounded queues over saturation with admission control:
			// exercises enqFull holds, hold-budget drops, shedding, the
			// congestion-paused token bucket and the source hold queue.
			name: "bounded_admission",
			run: func(t *testing.T) (RunReport, []byte) {
				g := debruijn.DeBruijn(2, 5)
				nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				// An all-to-one funnel: routes to node 0 converge, so
				// bounded queues stay full and hold budgets run out.
				var funnel []Packet
				for i := 1; i < g.N(); i++ {
					funnel = append(funnel, Packet{ID: i, Src: i, Dst: 0, Release: (i % 4)})
				}
				rep, err := nw.RunOpts(Fixed(funnel),
					WithSeed(9),
					WithQueueCapacity(1),
					WithHoldBudget(1),
					WithAdmission(AdmissionConfig{Rate: 5, Burst: 2, MaxDelay: 6}),
					WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Holds == 0 || rep.Shed == 0 || rep.DroppedQueueFull == 0 {
					t.Fatalf("case does not exercise backpressure: holds=%d shed=%d dropQueueFull=%d",
						rep.Holds, rep.Shed, rep.DroppedQueueFull)
				}
				doc, err := rec.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return rep, doc
			},
		},
		{
			// The fault engine under a mixed plan with bounded node
			// queues: reroutes, retries, fault drops and backpressure.
			name: "fault_bounded",
			run: func(t *testing.T) (RunReport, []byte) {
				g := debruijn.DeBruijn(3, 4)
				nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
				if err != nil {
					t.Fatal(err)
				}
				plan := NewFaultPlanFor(g).
					NodeDown(0, 60, 7).
					NodeDown(20, 15, 40).
					LinkDown(5, 40, 3, 1).
					LinkDown(0, 1<<30, 10, 0)
				if err := plan.Err(); err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(UniformLoad(300),
					WithSeed(5),
					WithFaults(plan),
					WithQueueCapacity(2),
					WithTrace(), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Reroutes == 0 || rep.Dropped == 0 {
					t.Fatalf("case does not exercise the fault paths: reroutes=%d dropped=%d", rep.Reroutes, rep.Dropped)
				}
				doc, err := rec.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return rep, doc
			},
		},
		{
			// A truncated plain run: MaxCycles expires with packets still
			// buffered, pinning the no-drain truncation semantics.
			name: "plain_truncated",
			run: func(t *testing.T) (RunReport, []byte) {
				g := debruijn.DeBruijn(2, 5)
				nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)), WithHopLatency(2), WithMaxCycles(7))
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewRecorder(obs.NewRegistry())
				rep, err := nw.RunOpts(UniformLoad(200), WithSeed(11), WithRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Delivered == 0 || rep.Delivered+rep.Dropped == 200 {
					t.Fatalf("case does not exercise truncation: delivered=%d dropped=%d", rep.Delivered, rep.Dropped)
				}
				doc, err := rec.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return rep, doc
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, doc := tc.run(t)
			got := renderEngineRun(tc.name, rep, doc)
			golden := filepath.Join("testdata", "engine_"+tc.name+".golden")
			if *updateEngineGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-engine-golden to create)", err)
			}
			if !bytes.Equal([]byte(got), want) {
				diffAt := 0
				for diffAt < len(got) && diffAt < len(want) && got[diffAt] == want[diffAt] {
					diffAt++
				}
				lo := diffAt - 200
				if lo < 0 {
					lo = 0
				}
				hi := diffAt + 200
				g, w := got, string(want)
				if hi > len(g) {
					hi = len(g)
				}
				t.Errorf("engine behaviour drifted from golden %s around byte %d:\ngot:  …%s…\nwant: …%s…",
					golden, diffAt, g[lo:hi], w[lo:min(hi, len(w))])
			}
		})
	}
}
