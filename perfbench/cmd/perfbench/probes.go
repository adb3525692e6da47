package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/simnet"
)

// Probes run only in traced runs. They repeat public calls one at a
// time to split a workload's set-up and ops by layer, and they measure
// the layers a workload does not exercise on that layer's canonical
// instance, so that every traced run reports every per-layer metric.
// setLayer keeps a value the workload's own path already reported.

// probeMachine measures the machine-layer metrics on m, the workload's
// OTIS machine with its permutation pool, lens order and expected hop
// sums; with m nil it builds the canonical machine and inputs first.
func (b *bench) probeMachine(m *machine.Machine, pool [][]simnet.Packet, lenses []int, want []int64) error {
	sp := b.tr.begin("probe.machine", -1)
	defer b.tr.end(sp)
	if m == nil {
		rng := rand.New(rand.NewSource(b.seed))
		pool = permPool(rng, otisNodes, otisPool)
		lenses = rng.Perm(otisLenses)
		var err error
		ms, err := b.timed("setup", sp, func() error {
			m, err = b.buildMachine(sp)
			return err
		})
		if err != nil {
			return err
		}
		b.setLayer("machine.build_ms", ms, "ms")
		want = hopSums(pool, newDBDistance(otisD, otisDiam), m.ToLogical)
	}
	if err := b.probeBuildSteps(sp); err != nil {
		return err
	}

	var r *simnet.TableRouter
	ms, _ := b.timed("simnet.router_build", sp, func() error {
		r = simnet.NewTableRouter(m.Physical)
		return nil
	})
	b.setLayer("simnet.router_build_ms", ms, "ms")
	b.setLayer("simnet.router_slab_mb", float64(r.Footprint())/(1<<20), "MiB")

	var slab []int32
	ms, _ = b.timed("digraph.dist_slab", sp, func() error {
		slab = m.Physical.DistanceSlab()
		return nil
	})
	b.setLayer("digraph.dist_slab_ms", ms, "ms")
	b.setLayer("digraph.dist_slab_mb", float64(4*len(slab))/(1<<20), "MiB")
	dist := newDBDistance(otisD, otisDiam)
	for _, p := range pool[0] {
		if got, w := slab[p.Src*otisNodes+p.Dst], dist.dist(m.ToLogical[p.Src], m.ToLogical[p.Dst]); int(got) != w {
			return fmt.Errorf("DistanceSlab(%d,%d) = %d, de Bruijn distance is %d", p.Src, p.Dst, got, w)
		}
	}
	slab = nil

	var netMS []float64
	for k := 0; k < newNetworks; k++ {
		ms, err := b.timed("simnet.new_network", sp, func() error {
			_, err := simnet.NewNetwork(m.Physical, simnet.WithRouter(r))
			return err
		})
		if err != nil {
			return fmt.Errorf("NewNetwork over the machine: %w", err)
		}
		netMS = append(netMS, ms)
	}
	b.setLayer("simnet.new_network_ms", median(netMS), "ms")

	if err := b.routeWalk(r, m.Physical.Out, pool, want); err != nil {
		return err
	}
	if err := b.probePair(m, pool, want); err != nil {
		return err
	}
	if !b.has("obs.recorded_run_ms_p50", "simnet.fault_run_ms_p50", "machine.lens_rollup_ms") {
		var faulted simStats
		for j := 0; j < lensProbes; j++ {
			runs, err := b.lensStudy(m, pool[j%otisPool], lenses[j], sp)
			if err != nil {
				return fmt.Errorf("lens probe %d: %w", j, err)
			}
			if err := checkPlain(runs[0], want[j%otisPool], otisDiam); err != nil {
				return fmt.Errorf("lens probe %d: recorded healthy run: %w", j, err)
			}
			if err := runs[1].accounted(); err != nil {
				return fmt.Errorf("lens probe %d: faulted run: %w", j, err)
			}
			faulted.add(runs[1])
		}
		b.setLensLayers(faulted)
	}
	runtime.KeepAlive(m)
	return nil
}

// probeBuildSteps times the public calls machine.Build makes, one by
// one, stepReps times each.
func (b *bench) probeBuildSteps(parent int) error {
	var verify, witness, graph, iso []float64
	for rep := 0; rep < stepReps; rep++ {
		layout, ok := otis.OptimalLayout(otisD, otisDiam)
		if !ok {
			return fmt.Errorf("no OTIS layout for B(%d,%d)", otisD, otisDiam)
		}
		bench, err := optics.NewBench(layout.P(), layout.Q(), optics.DefaultPitch)
		if err != nil {
			return err
		}
		ms, err := b.timed("optics.verify", parent, bench.VerifyTranspose)
		if err != nil {
			return err
		}
		verify = append(verify, ms)
		physical, err := otis.H(layout.P(), layout.Q(), otisD)
		if err != nil {
			return err
		}
		var toLogical []int
		ms, err = b.timed("otis.witness", parent, func() error {
			var err error
			toLogical, err = otis.LayoutWitness(otisD, layout.PPrime, layout.QPrime)
			return err
		})
		if err != nil {
			return err
		}
		witness = append(witness, ms)
		var g *digraph.Digraph
		ms, _ = b.timed("debruijn.build", parent, func() error {
			g = debruijn.DeBruijn(otisD, otisDiam)
			return nil
		})
		graph = append(graph, ms)
		ms, err = b.timed("digraph.iso_verify", parent, func() error {
			return digraph.VerifyIsomorphism(physical, g, toLogical)
		})
		if err != nil {
			return err
		}
		iso = append(iso, ms)
	}
	b.setLayer("optics.verify_ms", median(verify), "ms")
	b.setLayer("otis.witness_ms", median(witness), "ms")
	b.setLayer("debruijn.build_ms", median(graph), "ms")
	b.setLayer("digraph.iso_verify_ms", median(iso), "ms")
	return nil
}

// routeWalk walks inputs hop by hop, until walkPackets packets, with the
// network's router and the digraph's adjacency, checks each input's
// total against its expected hop sum, and reports the cost per hop.
func (b *bench) routeWalk(r simnet.Router, out func(int) []int, pool [][]simnet.Packet, want []int64) error {
	if b.has("simnet.route_ns_per_hop") {
		return nil
	}
	var hops int64
	var walkErr error
	ms, _ := b.timed("simnet.route_walk", -1, func() error {
		walked := 0
		for c := 0; c < len(pool) && walked < walkPackets; c++ {
			walked += len(pool[c])
			var h int64
			for _, p := range pool[c] {
				at, steps := p.Src, 0
				for at != p.Dst {
					k := r.NextArc(at, p.Dst)
					if k < 0 || steps > 64 {
						walkErr = fmt.Errorf("route walk %d→%d stuck at %d", p.Src, p.Dst, at)
						return nil
					}
					at = out(at)[k]
					steps++
				}
				h += int64(steps)
			}
			if h != want[c] {
				walkErr = fmt.Errorf("route walk of input %d took %d hops, shortest paths total %d", c, h, want[c])
				return nil
			}
			hops += h
		}
		return nil
	})
	if walkErr != nil {
		return walkErr
	}
	b.setLayer("simnet.route_ns_per_hop", ms*1e6/float64(hops), "ns")
	return nil
}

// probePair runs plain and recorded runs of the same inputs back to
// back. Recording must not change the result; its cost is the ratio of
// the medians.
func (b *bench) probePair(m *machine.Machine, pool [][]simnet.Packet, want []int64) error {
	var samples []runSample
	var recorded []float64
	var pass simStats
	for j := 0; j < pairProbes; j++ {
		pkts := pool[j%len(pool)]
		runs, err := b.plainRun(m.RunOpts, pkts, "obs.pair_plain", -1, &samples)
		if err != nil {
			return err
		}
		if err := checkPlain(runs[0], want[j%len(pool)], otisDiam); err != nil {
			return fmt.Errorf("pair probe %d: %w", j, err)
		}
		pass.add(runs[0])
		var rep simnet.RunReport
		ms, err := b.timed("obs.pair_recorded", -1, func() error {
			var err error
			rep, err = m.RunOpts(simnet.Fixed(pkts), simnet.WithRecorder(obs.NewRecorder(nil)))
			return err
		})
		if err != nil {
			return err
		}
		if got := statsOf(rep, len(pkts)); got != runs[0] {
			return fmt.Errorf("pair probe %d: recording changed the result: %s", j, diffStats(runs[0], got))
		}
		recorded = append(recorded, ms)
	}
	var plain []float64
	for _, s := range samples {
		plain = append(plain, s.ns/1e6)
	}
	b.setLayer("obs.overhead_x", median(recorded)/median(plain), "x")
	b.setRunLayers(samples, pass)
	return nil
}

// probeServeNetwork measures the simnet layers under serve_chaos on the
// service's own network: B(2,8) with table routing, as serve.New builds
// it, running each request's packets plainly, without healing.
func (b *bench) probeServeNetwork(seeds []int64) error {
	sp := b.tr.begin("probe.serve_network", -1)
	defer b.tr.end(sp)
	var graphMS, netMS []float64
	var nw *simnet.Network
	var g *digraph.Digraph
	for k := 0; k < newNetworks; k++ {
		ms, _ := b.timed("debruijn.build", sp, func() error {
			g = debruijn.DeBruijn(serveD, serveDiam)
			return nil
		})
		graphMS = append(graphMS, ms)
		ms, err := b.timed("simnet.new_network", sp, func() error {
			var err error
			nw, err = simnet.NewNetwork(g, simnet.WithRouting(simnet.TableRouting))
			return err
		})
		if err != nil {
			return err
		}
		netMS = append(netMS, ms)
	}
	b.setLayer("debruijn.build_ms", median(graphMS), "ms")
	b.setLayer("simnet.new_network_ms", median(netMS), "ms")

	pool := make([][]simnet.Packet, len(seeds))
	for i, seed := range seeds {
		pool[i] = simnet.UniformLoad(chaosPackets).Packets(serveNodes, seed)
	}
	want := hopSums(pool, newDBDistance(serveD, serveDiam), nil)
	var samples []runSample
	var pass simStats
	for i, pkts := range pool {
		runs, err := b.plainRun(nw.RunOpts, pkts, "simnet.run", sp, &samples)
		if err != nil {
			return err
		}
		if err := checkPlain(runs[0], want[i], serveDiam); err != nil {
			return fmt.Errorf("request %d run plainly: %w", i, err)
		}
		pass.add(runs[0])
	}
	b.setRunLayers(samples, pass)
	return b.routeWalk(simnet.NewTableRouter(g), g.Out, pool, want)
}
