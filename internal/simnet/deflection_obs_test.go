package simnet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

// TestDeflectionDrainInvariant: a completed run and a truncated run both
// satisfy Delivered + Dropped == Offered, with Dropped split into the
// stuck and horizon buckets.
func TestDeflectionDrainInvariant(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	dn := deflectionOn(t, g)

	// Completed run: nothing dropped.
	res := runDeflection(t, dn, UniformRandom(g.N(), 100, 7))
	if res.Offered != 100 || res.Delivered != 100 || res.Dropped != 0 {
		t.Fatalf("completed run accounting: %+v", res)
	}
	if res.DeliveredFraction() != 1 {
		t.Errorf("DeliveredFraction = %v", res.DeliveredFraction())
	}

	// Horizon drop: a release beyond the cycle limit (64 * n cycles)
	// means the packet is never injected.
	far := dn.limit + 10
	res = runDeflection(t, dn, []Packet{
		{ID: 0, Src: 0, Dst: 3},
		{ID: 1, Src: 1, Dst: 5, Release: far},
	})
	if res.Offered != 2 || res.Delivered != 1 {
		t.Fatalf("horizon run: %+v", res)
	}
	if res.Dropped != 1 || res.DroppedHorizon != 1 || res.Stuck != 0 {
		t.Errorf("horizon drop misbucketed: %+v", res)
	}
	if res.Delivered+res.Dropped != res.Offered {
		t.Errorf("drain invariant broken: %+v", res)
	}
	if res.Packets[1].Delivered >= 0 {
		t.Errorf("horizon packet marked delivered")
	}

	// Flood one source with far more packets than the cycle limit admits
	// (one injection per free output per cycle). Release-eligible packets
	// still pending at the drain were refused entry by their full node —
	// DroppedQueueFull, a distinct cause from the in-flight Stuck bucket.
	flood := make([]Packet, 40*dn.limit)
	for i := range flood {
		flood[i] = Packet{ID: i, Src: 0, Dst: g.N() - 1}
	}
	res = runDeflection(t, dn, flood)
	if res.Delivered+res.Dropped != res.Offered {
		t.Fatalf("flood drain invariant broken: %+v", res)
	}
	if res.DroppedQueueFull == 0 {
		t.Errorf("flood run reports no injection-capacity drops: %+v", res)
	}
	if res.DroppedHorizon != 0 {
		t.Errorf("flood run misbucketed eligible packets as horizon: %+v", res)
	}
	if res.Stuck+res.DroppedHorizon+res.DroppedQueueFull != res.Dropped {
		t.Errorf("flood drop buckets don't sum: %+v", res)
	}
	if got := res.DeliveredFraction(); got <= 0 || got >= 1 {
		t.Errorf("flood DeliveredFraction = %v, want in (0,1)", got)
	}

	// Zero-offered run never divides by zero.
	if f := runDeflection(t, dn, nil).DeliveredFraction(); f != 0 {
		t.Errorf("empty run DeliveredFraction = %v", f)
	}
}

// TestDeflectionObserved: the instrumented deflection run records arc
// traversals summing to total hops, plus deflection and delivery
// counters matching the result.
func TestDeflectionObserved(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := NewDeflection(nw)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	nw.Observe(rec)
	res := runDeflection(t, dn, UniformRandom(g.N(), 500, 11))
	if res.Delivered != 500 {
		t.Fatalf("undelivered: %v", res)
	}
	snap := rec.Snapshot()
	if got := snap.Counters[obs.MetricDelivered]; got != 500 {
		t.Errorf("delivered counter %d", got)
	}
	if got := snap.Counters[obs.MetricDeflections]; got != int64(res.Deflections) {
		t.Errorf("deflections counter %d, result %d", got, res.Deflections)
	}
	var slab int64
	for _, v := range rec.ArcTraversals() {
		slab += v
	}
	if slab != int64(res.TotalHops) {
		t.Errorf("arc slab total %d, TotalHops %d", slab, res.TotalHops)
	}
	if len(rec.ArcTraversals()) != g.N()*2 {
		t.Errorf("slab sized %d, want %d", len(rec.ArcTraversals()), g.N()*2)
	}
	if err := validateSnapshot(snap); err != nil {
		t.Errorf("deflection snapshot invalid: %v", err)
	}

	// Instrumented and uninstrumented runs agree.
	bare := runDeflection(t, deflectionOn(t, g), UniformRandom(g.N(), 500, 11))
	if bare.Delivered != res.Delivered || bare.TotalHops != res.TotalHops ||
		bare.Deflections != res.Deflections || bare.Cycles != res.Cycles {
		t.Errorf("instrumented deflection diverged:\nbare: %+v\nobs:  %+v", bare, res)
	}
}

// TestDeflectionObsGolden pins the full OBS_run/v1 document (counters,
// histograms and per-arc slabs) of two seeded recorded deflection runs
// beside their headline results: one that completes, and one cut short
// by the cycle limit, which drains survivors into the stuck, horizon and
// queue-full buckets. Packets with Src == Dst ride along in both; they
// are delivered at injection without a recorded delivery. The goldens
// were generated from the engine that recorded each event live into
// the recorder, so they also gate recording through a run-local tally.
// Rewrite them with -update-engine-golden.
func TestDeflectionObsGolden(t *testing.T) {
	cases := []struct {
		name string
		g    int // de Bruijn diameter, degree 2
		opts []NetworkOption
		pkts func(n int) []Packet
	}{
		{
			name: "completed",
			g:    5,
			pkts: func(n int) []Packet {
				pkts := UniformRandom(n, 600, 23)
				return append(pkts, Packet{ID: 600, Src: 7, Dst: 7, Release: 3})
			},
		},
		{
			name: "truncated",
			g:    4,
			opts: []NetworkOption{WithMaxCycles(6)},
			pkts: func(n int) []Packet {
				pkts := UniformRandom(n, 240, 31)
				for i := range pkts {
					pkts[i].Release = i % 4
				}
				for i := 0; i < 5; i++ {
					pkts = append(pkts, Packet{ID: 240 + i, Src: i, Dst: n - 1 - i, Release: 9 + i})
				}
				return append(pkts, Packet{ID: 245, Src: 2, Dst: 2})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := debruijn.DeBruijn(2, tc.g)
			dn := deflectionOn(t, g, tc.opts...)
			rec := obs.NewRecorder(nil)
			dn.nw.Observe(rec)
			res := runDeflection(t, dn, tc.pkts(g.N()))
			if tc.name == "truncated" && (res.Stuck == 0 || res.DroppedHorizon == 0 || res.DroppedQueueFull == 0) {
				t.Fatalf("case does not drain every drop bucket: %v stuck=%d horizon=%d queuefull=%d",
					res, res.Stuck, res.DroppedHorizon, res.DroppedQueueFull)
			}
			doc, err := rec.Snapshot().MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("case: %s\n%v\nstuck=%d horizon=%d queuefull=%d totalHops=%d\nobs:\n%s\n",
				tc.name, res, res.Stuck, res.DroppedHorizon, res.DroppedQueueFull, res.TotalHops, doc)
			golden := filepath.Join("testdata", "deflection_"+tc.name+".golden")
			if *updateEngineGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-engine-golden to create)", err)
			}
			if !bytes.Equal([]byte(got), want) {
				t.Errorf("deflection telemetry drifted from golden %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
