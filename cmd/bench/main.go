// bench is the repository's performance harness: it runs a canonical,
// fixed-seed benchmark set over the simulation hot path (router
// construction, permutation runs on B(3,6)/B(3,7), an OTIS machine load
// sweep, a fault-rate degradation sweep, and the incremental
// slab-repair patch priced against a from-scratch residual rebuild) and
// emits the measurements
// as BENCH_simnet.json so the performance trajectory of the repository
// is recorded, comparable across commits, and checkable in CI.
//
// Usage:
//
//	bench                   # canonical set, writes BENCH_simnet.json
//	bench -smoke            # tiny sizes for the CI gate (same schema)
//	bench -out FILE         # write somewhere else
//	bench -validate FILE    # parse and sanity-check an emitted file
//	bench -compare FILE     # exit 2 if permutation/*, table_route/*,
//	                        # shift_route/* or shard_run/* throughput
//	                        # regresses >20% against FILE's entries, or
//	                        # a recorded_* op takes over 1.5x the time of
//	                        # its plain twin's (timed interleaved)
//
// -compare keeps the gated entries at their canonical sizes even under
// -smoke, so the names line up with a committed canonical baseline.
//
// Every entry reports ns/op, B/op and allocs/op as measured by
// testing.Benchmark, plus delivered-packets/sec for the entries that
// move traffic (delivered work per op divided by wall time per op).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/debruijn"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// benchSchema identifies the output format; bump on breaking changes.
const benchSchema = "BENCH_simnet/v1"

// benchEntry is one measured benchmark in the JSON output.
type benchEntry struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// DeliveredPacketsPerSec is delivered-work throughput for entries
	// that run traffic; omitted for entries that deliver nothing (pure
	// construction benchmarks), where a literal 0 would read as a
	// measured throughput of zero.
	DeliveredPacketsPerSec float64 `json:"delivered_packets_per_sec,omitempty"`
	// Metrics holds selected obs-registry readings from one instrumented
	// op of the same workload (the timed loop itself runs with a nil
	// recorder, so the numbers above are uninstrumented).
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// benchFile is the BENCH_simnet.json document.
type benchFile struct {
	Schema    string       `json:"schema"`
	Smoke     bool         `json:"smoke"`
	GoVersion string       `json:"go_version"`
	Timestamp string       `json:"timestamp"`
	Results   []benchEntry `json:"results"`
}

// spec is one benchmark to run: fn is the measured body, delivered the
// packets delivered by a single op (for throughput), nodes the network
// size.
type spec struct {
	name      string
	nodes     int
	delivered int
	fn        func(b *testing.B)
	// metrics, when set, runs ONE instrumented op after the timed loop
	// and returns selected registry readings for the entry.
	metrics func() (map[string]int64, error)
	// op and twinOp, set on a recorded_<name> entry, run one op of the
	// entry and one of its plain <name> twin, for the -compare telemetry
	// gate (see pairedOverhead).
	op, twinOp func() error
}

func main() {
	smoke := flag.Bool("smoke", false, "run tiny sizes (CI smoke gate)")
	out := flag.String("out", "BENCH_simnet.json", "output path")
	validate := flag.String("validate", "", "validate an emitted JSON file and exit")
	compare := flag.String("compare", "", "baseline BENCH_simnet.json: exit 2 if gated-family delivered-packets/sec regresses >20%")
	flag.Parse()

	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "bench: invalid:", err)
			os.Exit(1)
		}
		fmt.Printf("bench: %s is a valid %s document\n", *validate, benchSchema)
		return
	}

	// Keep the smoke gate fast: testing.Benchmark honours -test.benchtime.
	testing.Init()
	if *smoke {
		if err := flag.Set("test.benchtime", "50ms"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	specs, err := buildSpecs(*smoke, *compare != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	doc := benchFile{
		Schema:    benchSchema,
		Smoke:     *smoke,
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, s := range specs {
		r := testing.Benchmark(s.fn)
		e := benchEntry{
			Name:        s.name,
			Nodes:       s.nodes,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if s.delivered > 0 && e.NsPerOp > 0 {
			e.DeliveredPacketsPerSec = float64(s.delivered) * 1e9 / e.NsPerOp
		}
		if s.metrics != nil {
			m, err := s.metrics()
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			e.Metrics = m
		}
		doc.Results = append(doc.Results, e)
		fmt.Printf("%-24s %14.0f ns/op %12d B/op %8d allocs/op %14.0f pkts/s\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.DeliveredPacketsPerSec)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("bench: wrote %d results to %s\n", len(doc.Results), *out)

	if *compare != "" {
		if err := compareBaseline(*compare, doc.Results); err != nil {
			fmt.Fprintln(os.Stderr, "bench: regression:", err)
			os.Exit(2)
		}
		fmt.Printf("bench: no gated-family throughput regression against %s\n", *compare)
		for _, s := range specs {
			if s.op == nil {
				continue
			}
			ratio, err := pairedOverhead(s.twinOp, s.op, overheadRounds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			if ratio > maxRecordedOverhead {
				fmt.Fprintf(os.Stderr, "bench: telemetry overhead: %s takes %.2fx the time of its plain twin (budget %.1fx)\n",
					s.name, ratio, maxRecordedOverhead)
				os.Exit(2)
			}
			fmt.Printf("bench: %s takes %.2fx the time of its plain twin (budget %.1fx)\n", s.name, ratio, maxRecordedOverhead)
		}
	}
}

// maxRecordedOverhead is the telemetry budget the -compare gate
// enforces: one op of a recorded_<name> entry may take at most this many
// times one op of its plain <name> twin.
const maxRecordedOverhead = 1.5

// overheadRounds is how many twin/op pairs pairedOverhead times.
const overheadRounds = 31

// pairedOverhead times rounds pairs of one twin op and one op, in
// alternating order, and returns the median op time over the median
// twin time. Timing the two interleaved cancels the host's speed drift:
// on a shared 2-vCPU VM the ratio of the two entries' separately timed
// ns/op moved between 0.9 and 1.9 across runs of the same code.
func pairedOverhead(twin, op func() error, rounds int) (float64, error) {
	fns := [2]func() error{twin, op}
	times := [2][]time.Duration{make([]time.Duration, rounds), make([]time.Duration, rounds)}
	for i := 0; i < rounds; i++ {
		for j := 0; j < 2; j++ {
			k := (i + j) % 2 // twin first on even rounds, op first on odd
			start := time.Now()
			if err := fns[k](); err != nil {
				return 0, err
			}
			times[k][i] = time.Since(start)
		}
	}
	slices.Sort(times[0])
	slices.Sort(times[1])
	return float64(times[1][rounds/2]) / float64(times[0][rounds/2]), nil
}

// comparedFamilies are the benchmark-name prefixes the CI perf gate
// covers: the routing hot paths (table and table-free) and the sharded
// engine, the families whose throughput the repository tracks.
var comparedFamilies = []string{"permutation/", "table_route/", "shift_route/", "shard_run/"}

// compareBaseline is the CI perf gate: every gated-family entry of the
// baseline document must be matched by a current entry delivering at
// least 80% of the baseline's packets/sec. Entries the baseline lacks
// pass trivially (new sizes are not regressions).
func compareBaseline(path string, current []benchEntry) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	got := make(map[string]float64, len(current))
	for _, e := range current {
		got[e.Name] = e.DeliveredPacketsPerSec
	}
	for _, b := range base.Results {
		gated := false
		for _, fam := range comparedFamilies {
			if strings.HasPrefix(b.Name, fam) {
				gated = true
				break
			}
		}
		if !gated || b.DeliveredPacketsPerSec <= 0 {
			continue
		}
		cur, ok := got[b.Name]
		if !ok {
			return fmt.Errorf("%s: baseline entry %q missing from this run", path, b.Name)
		}
		if cur < 0.8*b.DeliveredPacketsPerSec {
			return fmt.Errorf("%s: %.0f pkts/s is %.0f%% of the %.0f pkts/s baseline (floor 80%%)",
				b.Name, cur, 100*cur/b.DeliveredPacketsPerSec, b.DeliveredPacketsPerSec)
		}
	}
	return nil
}

// buildSpecs assembles the canonical benchmark set. Seeds are fixed so
// runs are comparable across commits; sizes shrink under -smoke —
// except the permutation entries when comparing, which stay canonical
// so their names match the committed baseline's.
func buildSpecs(smoke, comparing bool) ([]spec, error) {
	type size struct{ d, D int }
	routerSizes := []size{{3, 6}, {3, 7}}
	permSizes := []size{{3, 6}, {3, 7}}
	machineD, machineDiam := 2, 8
	sweepRates := []float64{0.1, 0.3, 0.5}
	sweepPackets := 2000
	faultD, faultDiam := 3, 5
	faultRates := []float64{0, 0.05, 0.2, 0.5}
	faultPackets := 400
	if smoke {
		routerSizes = []size{{2, 5}}
		if !comparing {
			permSizes = []size{{2, 5}}
		}
		machineD, machineDiam = 2, 4
		sweepRates = []float64{0.2, 0.5}
		sweepPackets = 300
		faultD, faultDiam = 2, 4
		faultRates = []float64{0, 0.5}
		faultPackets = 100
	}

	var specs []spec
	for _, sz := range routerSizes {
		g := debruijn.DeBruijn(sz.d, sz.D)
		specs = append(specs, spec{
			name:  fmt.Sprintf("router_build/B(%d,%d)", sz.d, sz.D),
			nodes: g.N(),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					simnet.NewTableRouter(g)
				}
			},
			metrics: func() (map[string]int64, error) {
				rec := obs.NewRecorder(nil)
				simnet.NewTableRouterObserved(g, rec)
				snap := rec.Snapshot()
				return map[string]int64{
					obs.MetricRouterNS:    snap.Gauges[obs.MetricRouterNS],
					obs.MetricRouterBytes: snap.Gauges[obs.MetricRouterBytes],
				}, nil
			},
		})
	}

	for _, sz := range permSizes {
		g := debruijn.DeBruijn(sz.d, sz.D)
		nw, err := simnet.NewNetwork(g, simnet.WithRouter(simnet.NewTableRouter(g)))
		if err != nil {
			return nil, err
		}
		pkts := simnet.Permutation(g.N(), 1)
		probe, err := nw.RunOpts(simnet.Fixed(pkts))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{
			name:      fmt.Sprintf("permutation/B(%d,%d)", sz.d, sz.D),
			nodes:     g.N(),
			delivered: probe.Delivered,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := nw.RunOpts(simnet.Fixed(pkts)); err != nil {
						b.Fatal(err)
					}
				}
			},
			metrics: func() (map[string]int64, error) {
				rec := obs.NewRecorder(nil)
				if _, err := nw.RunOpts(simnet.Fixed(pkts), simnet.WithRecorder(rec)); err != nil {
					return nil, err
				}
				snap := rec.Snapshot()
				return map[string]int64{
					obs.MetricDelivered:    snap.Counters[obs.MetricDelivered],
					obs.MetricArcTraversed: snap.Counters[obs.MetricArcTraversed],
					obs.MetricMaxQueue:     snap.Gauges[obs.MetricMaxQueue],
				}, nil
			},
		})
		if sz != permSizes[len(permSizes)-1] {
			continue
		}
		// The largest permutation again with a recorder attached for the
		// whole loop (telemetry that stays on): the recorded/plain pair
		// prices the run-local tally and its once-per-run merge on the
		// one-lane lane kernel, and -compare holds it to maxRecordedOverhead.
		rec := obs.NewRecorder(nil)
		recorded := func() error {
			_, err := nw.RunOpts(simnet.Fixed(pkts), simnet.WithRecorder(rec))
			return err
		}
		specs = append(specs, spec{
			name:      "recorded_" + specs[len(specs)-1].name,
			nodes:     g.N(),
			delivered: probe.Delivered,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := recorded(); err != nil {
						b.Fatal(err)
					}
				}
			},
			op: recorded,
			twinOp: func() error {
				_, err := nw.RunOpts(simnet.Fixed(pkts))
				return err
			},
		})
	}

	// Table vs table-free routing on the fused kernel: the same
	// permutation through WithRouting(TableRouting) and
	// WithRouting(ShiftRouting). The pair prices carried shift state (one
	// O(D) overlap per packet, one multiply per hop) against the slab
	// gather — the shift entry is the routing cost the million-node
	// regime pays, with zero table bytes behind it.
	routeSizes := permSizes
	for _, sz := range routeSizes {
		g := debruijn.DeBruijn(sz.d, sz.D)
		pkts := simnet.Permutation(g.N(), 1)
		for _, rt := range []struct {
			family string
			mode   simnet.RoutingMode
		}{
			{"table_route", simnet.TableRouting},
			{"shift_route", simnet.ShiftRouting},
		} {
			nw, err := simnet.NewNetwork(g, simnet.WithRouting(rt.mode))
			if err != nil {
				return nil, err
			}
			probe, err := nw.RunOpts(simnet.Fixed(pkts))
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec{
				name:      fmt.Sprintf("%s/B(%d,%d)", rt.family, sz.d, sz.D),
				nodes:     g.N(),
				delivered: probe.Delivered,
				fn: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := nw.RunOpts(simnet.Fixed(pkts)); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
	}

	// The sharded engine across shard counts, on a heavier uniform load
	// under table-free routing. Workers are capped at GOMAXPROCS, so on
	// small CI machines the higher shard counts measure partition +
	// barrier overhead rather than speedup; the metrics record the
	// worker count actually used so readings are comparable across
	// machines.
	shardSize := permSizes[len(permSizes)-1]
	sh := debruijn.DeBruijn(shardSize.d, shardSize.D)
	shNet, err := simnet.NewNetwork(sh, simnet.WithRouting(simnet.ShiftRouting))
	if err != nil {
		return nil, err
	}
	shPkts := simnet.UniformRandom(sh.N(), 4*sh.N(), 9)
	for _, s := range []int{1, 2, 4, 8} {
		s := s
		probe, err := shNet.RunOpts(simnet.Fixed(shPkts), simnet.WithShards(s))
		if err != nil {
			return nil, err
		}
		workers := s
		if p := runtime.GOMAXPROCS(0); workers > p {
			workers = p
		}
		specs = append(specs, spec{
			name:      fmt.Sprintf("shard_run/B(%d,%d)/%dw", shardSize.d, shardSize.D, s),
			nodes:     sh.N(),
			delivered: probe.Delivered,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := shNet.RunOpts(simnet.Fixed(shPkts), simnet.WithShards(s)); err != nil {
						b.Fatal(err)
					}
				}
			},
			metrics: func() (map[string]int64, error) {
				return map[string]int64{
					"shards":  int64(s),
					"workers": int64(workers),
				}, nil
			},
		})
	}

	m, err := machine.Build(machineD, machineDiam, optics.DefaultPitch)
	if err != nil {
		return nil, fmt.Errorf("machine B(%d,%d): %w", machineD, machineDiam, err)
	}
	mg := m.Physical
	mRouter := simnet.NewTableRouter(mg)
	probePts, err := simnet.LoadSweep(mg, mRouter, sweepRates, sweepPackets, 1)
	if err != nil {
		return nil, err
	}
	sweepDelivered := 0
	for _, p := range probePts {
		sweepDelivered += p.Delivered
	}
	// A recorded lens outage on the machine: lens 0 down for cycles
	// 2–17 under a permutation, through the fault engine with a recorder
	// attached — the op the lens studies repeat, one lens at a time.
	lensPkts := simnet.Permutation(m.Nodes(), 1)
	lensPlan, err := m.LensFaultPlan(2, 16, 0)
	if err != nil {
		return nil, err
	}
	lensRec := obs.NewRecorder(nil)
	lensProbe, err := m.RunOpts(simnet.Fixed(lensPkts), simnet.WithFaults(lensPlan), simnet.WithRecorder(lensRec))
	if err != nil {
		return nil, err
	}
	specs = append(specs, spec{
		name:      fmt.Sprintf("lens_fault/B(%d,%d)", machineD, machineDiam),
		nodes:     m.Nodes(),
		delivered: lensProbe.Delivered,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunOpts(simnet.Fixed(lensPkts), simnet.WithFaults(lensPlan), simnet.WithRecorder(lensRec)); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	specs = append(specs, spec{
		name:      fmt.Sprintf("machine_sweep/B(%d,%d)", machineD, machineDiam),
		nodes:     mg.N(),
		delivered: sweepDelivered,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simnet.LoadSweep(mg, mRouter, sweepRates, sweepPackets, 1); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	fg := debruijn.DeBruijn(faultD, faultDiam)
	fRouter := simnet.NewTableRouter(fg)
	probeFault, err := simnet.DegradationSweep(fg, fRouter, faultRates, faultPackets, 5, 0)
	if err != nil {
		return nil, err
	}
	faultDelivered := 0
	for _, p := range probeFault {
		faultDelivered += p.Delivered
	}
	specs = append(specs, spec{
		name:      fmt.Sprintf("fault_sweep/B(%d,%d)", faultD, faultDiam),
		nodes:     fg.N(),
		delivered: faultDelivered,
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simnet.DegradationSweep(fg, fRouter, faultRates, faultPackets, 5, 0); err != nil {
					b.Fatal(err)
				}
			}
		},
		metrics: func() (map[string]int64, error) {
			fnw, err := simnet.NewNetwork(fg, simnet.WithRouter(fRouter))
			if err != nil {
				return nil, err
			}
			rec := obs.NewRecorder(nil)
			fnw.Observe(rec)
			if _, err := fnw.DegradationSweep(faultRates, faultPackets, 5, 0); err != nil {
				return nil, err
			}
			snap := rec.Snapshot()
			return map[string]int64{
				obs.MetricDelivered: snap.Counters[obs.MetricDelivered],
				obs.MetricDropped:   snap.Counters[obs.MetricDropped],
				obs.MetricReroutes:  snap.Counters[obs.MetricReroutes],
				obs.MetricRetries:   snap.Counters[obs.MetricRetries],
			}, nil
		},
	})

	// Saturation under overload protection: fixed-rate uniform traffic
	// at 1x/2x/4x the topology's saturation throughput with bounded
	// queues. The per-multiple metrics record how delivery degrades and
	// that the buffer footprint (peak queue depth, resident packets)
	// stays pinned at the topology bound however hard the sources push.
	satD, satDiam := 3, 6
	satPackets := 5000
	satQcap := 4
	if smoke {
		satD, satDiam = 2, 4
		satPackets = 200
	}
	sg := debruijn.DeBruijn(satD, satDiam)
	snw, err := simnet.NewNetwork(sg, simnet.WithRouter(simnet.NewTableRouter(sg)))
	if err != nil {
		return nil, err
	}
	satRate, ok := simnet.SaturationRate(sg)
	if !ok {
		return nil, fmt.Errorf("B(%d,%d): no saturation rate", satD, satDiam)
	}
	for _, mult := range []float64{1, 2, 4} {
		mult := mult
		load := simnet.RatedLoad(satPackets, mult*satRate)
		opts := []simnet.RunOption{simnet.WithSeed(7), simnet.WithQueueCapacity(satQcap)}
		probe, err := snw.RunOpts(load, opts...)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{
			name:      fmt.Sprintf("saturation/B(%d,%d)/%gx", satD, satDiam, mult),
			nodes:     sg.N(),
			delivered: probe.Delivered,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := snw.RunOpts(load, opts...); err != nil {
						b.Fatal(err)
					}
				}
			},
			metrics: func() (map[string]int64, error) {
				rec := obs.NewRecorder(nil)
				rep, err := snw.RunOpts(load, append(opts, simnet.WithRecorder(rec))...)
				if err != nil {
					return nil, err
				}
				snap := rec.Snapshot()
				return map[string]int64{
					obs.MetricDelivered: snap.Counters[obs.MetricDelivered],
					obs.MetricDropped:   snap.Counters[obs.MetricDropped],
					obs.MetricHolds:     snap.Counters[obs.MetricHolds],
					obs.MetricMaxQueue:  snap.Gauges[obs.MetricMaxQueue],
					"sim_peak_resident": int64(rep.PeakResident),
					"delivered_permille": int64(1000 * float64(rep.Delivered) /
						float64(satPackets)),
				}, nil
			},
		})
	}

	return specs, nil
}

// validateFile parses an emitted BENCH_simnet.json and checks the schema
// invariants the CI gate relies on.
func validateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc benchFile
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != benchSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, benchSchema)
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	for i, r := range doc.Results {
		if r.Name == "" {
			return fmt.Errorf("%s: result %d has no name", path, i)
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			return fmt.Errorf("%s: result %q has non-positive timing", path, r.Name)
		}
		if r.BytesPerOp < 0 || r.AllocsPerOp < 0 || r.DeliveredPacketsPerSec < 0 {
			return fmt.Errorf("%s: result %q has negative counters", path, r.Name)
		}
		for name, v := range r.Metrics {
			if v < 0 {
				return fmt.Errorf("%s: result %q metric %q is negative", path, r.Name, name)
			}
		}
	}
	return nil
}
