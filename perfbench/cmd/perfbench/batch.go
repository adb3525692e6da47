package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/debruijn"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// Sizes of the batch workloads.
const (
	// The paper's machine: OTIS(64,128) wiring B(2,12), 4,096 nodes,
	// 192 lenses, a 16 MiB int8 next-hop slab (four times L2).
	otisD, otisDiam = 2, 12
	otisNodes       = 1 << otisDiam
	otisLenses      = 192
	// otisPool permutations; it divides otisLenses, so an otis_lens op
	// and the op one pass later run the same lens on the same traffic.
	otisPool = 32

	// B(4,8): 65,536 nodes, past the 4,096-node crossover where
	// AutoRouting resolves to table-free shift routing.
	shiftD, shiftDiam = 4, 8
	shiftNodes        = 1 << (2 * shiftDiam)
	shiftPool         = 16

	// Lens k is down for cycles lensStart..lensStart+lensCycles-1.
	lensStart, lensCycles = 2, 16

	// Probe sizes (traced runs only).
	stepReps    = 3       // repetitions of each machine.Build step
	pairProbes  = 16      // plain-versus-recorded pairs
	lensProbes  = 24      // lens studies for workloads whose loop runs none
	walkPackets = 1 << 16 // packets walked hop by hop
	newNetworks = 3       // NewNetwork repetitions
)

// runner is the RunOpts entry point of a Network or a Machine.
type runner func(simnet.Workload, ...simnet.RunOption) (simnet.RunReport, error)

// permPool draws count random permutations of n nodes, each node
// sending one packet, with fixed points deranged by a neighbour swap.
func permPool(rng *rand.Rand, n, count int) [][]simnet.Packet {
	pool := make([][]simnet.Packet, count)
	for c := range pool {
		pi := rng.Perm(n)
		for i := range pi {
			if pi[i] == i {
				j := (i + 1) % n
				pi[i], pi[j] = pi[j], pi[i]
			}
		}
		pkts := make([]simnet.Packet, n)
		for i := range pkts {
			pkts[i] = simnet.Packet{ID: i, Src: i, Dst: pi[i], Delivered: -1}
		}
		pool[c] = pkts
	}
	return pool
}

// dbDistance is the B(d, D) distance in congruence labels, computed by
// the benchmark itself: D minus the longest suffix of u that is a prefix
// of v. A shortest-path router delivers a fault-free permutation in
// exactly the sum of these distances.
type dbDistance struct {
	D   int
	pow []int
}

func newDBDistance(d, D int) dbDistance {
	pow := make([]int, D+1)
	pow[0] = 1
	for i := 1; i <= D; i++ {
		pow[i] = pow[i-1] * d
	}
	return dbDistance{D: D, pow: pow}
}

func (m dbDistance) dist(u, v int) int {
	for k := m.D; k > 0; k-- {
		if u%m.pow[k] == v/m.pow[m.D-k] {
			return m.D - k
		}
	}
	return m.D
}

// hopSums returns each permutation's total shortest-path hops; label
// maps a node id to its congruence label (nil: the identity).
func hopSums(pool [][]simnet.Packet, m dbDistance, label []int) []int64 {
	out := make([]int64, len(pool))
	for c, pkts := range pool {
		for _, p := range pkts {
			u, v := p.Src, p.Dst
			if label != nil {
				u, v = label[u], label[v]
			}
			out[c] += int64(m.dist(u, v))
		}
	}
	return out
}

// statsOf extracts the simulated statistics of a run of offered packets.
func statsOf(rep simnet.RunReport, offered int) simStats {
	return simStats{
		Offered:      int64(offered),
		Delivered:    int64(rep.Delivered),
		Dropped:      int64(rep.Dropped),
		Shed:         int64(rep.Shed),
		Cycles:       int64(rep.Cycles),
		TotalHops:    int64(rep.TotalHops),
		MaxHops:      int64(rep.MaxHops),
		TotalWait:    int64(rep.TotalWait),
		LatencySum:   int64(math.Round(rep.MeanLatency * float64(rep.Delivered))),
		MaxQueue:     int64(rep.MaxQueue),
		PeakResident: int64(rep.PeakResident),
		Reroutes:     int64(rep.Reroutes),
		Retries:      int64(rep.Retries),
	}
}

// checkPlain verifies a fault-free permutation run against the
// benchmark's own distance arithmetic.
func checkPlain(st simStats, wantHops int64, diam int) error {
	switch {
	case st.Delivered != st.Offered || st.Dropped != 0 || st.Shed != 0:
		return fmt.Errorf("fault-free run delivered %d of %d (dropped %d, shed %d)", st.Delivered, st.Offered, st.Dropped, st.Shed)
	case st.TotalHops != wantHops:
		return fmt.Errorf("fault-free run took %d hops, shortest paths total %d", st.TotalHops, wantHops)
	case st.MaxHops > int64(diam):
		return fmt.Errorf("a packet took %d hops, diameter is %d", st.MaxHops, diam)
	}
	return nil
}

// runSample is one traced plain run, for the per-hop and per-cycle
// costs.
type runSample struct {
	ns           float64
	hops, cycles int64
}

// plainRun is the batch op: one plain RunOpts of a permutation.
func (b *bench) plainRun(run runner, pkts []simnet.Packet, name string, parent int, samples *[]runSample) ([]simStats, error) {
	sp := b.tr.begin(name, parent)
	rep, err := run(simnet.Fixed(pkts))
	d := b.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("RunOpts: %w", err)
	}
	st := statsOf(rep, len(pkts))
	if sp >= 0 && samples != nil {
		*samples = append(*samples, runSample{ns: float64(d), hops: st.TotalHops, cycles: st.Cycles})
	}
	return []simStats{st}, nil
}

// setRunLayers reports the plain-run per-layer metrics: host times from
// the traced samples, simulated counts from the pass of plain runs.
func (b *bench) setRunLayers(samples []runSample, pass simStats) {
	if len(samples) == 0 {
		b.errorf("no traced plain run to report simnet.run_ms_p50 from")
		return
	}
	var ms []float64
	var ns, hops, cycles float64
	for _, s := range samples {
		ms = append(ms, s.ns/1e6)
		ns += s.ns
		hops += float64(s.hops)
		cycles += float64(s.cycles)
	}
	b.setLayer("simnet.run_ms_p50", median(ms), "ms")
	b.setLayer("simnet.ns_per_hop", ns/hops, "ns")
	b.setLayer("simnet.ns_per_cycle", ns/cycles, "ns")
	b.setLayer("simnet.hops_per_pkt", float64(pass.TotalHops)/float64(pass.Offered), "hops")
	b.setLayer("simnet.wait_cycles_per_pkt", float64(pass.TotalWait)/float64(pass.Delivered), "cycles")
	b.setLayer("simnet.max_queue", float64(pass.MaxQueue), "pkts")
	b.setLayer("simnet.peak_resident", float64(pass.PeakResident), "pkts")
}

// setupHooks are the steps of one set-up repetition.
type setupHooks[T any] struct {
	// build constructs the workload's system (timed).
	build func(parent int) (T, error)
	// first runs op 0, the cold first op, whose lazily built state
	// belongs to set-up (timed).
	first func(s T, parent int) ([]simStats, error)
	// prepare derives expected values from the built system before op 0
	// is checked (untimed; optional).
	prepare func(s T) error
	// reset releases a repetition's system before the next one is built
	// (untimed; optional).
	reset func(s T) error
}

// setupReps sets the workload up setupRuns times and records each
// repetition's time to first result; the last repetition's system is
// kept for the measured phase.
func setupReps[T any](b *bench, h setupHooks[T]) (T, error) {
	var s T
	var buildMS, firstMS []float64
	for rep := 0; rep < setupRuns; rep++ {
		if rep > 0 && h.reset != nil {
			if err := h.reset(s); err != nil {
				return s, fmt.Errorf("set-up: %w", err)
			}
		}
		var zero T
		s = zero
		runtime.GC()
		runtime.GC()
		b.tr.op = 0
		sp := b.tr.begin("setup", -1)
		t0 := time.Now()
		var err error
		s, err = h.build(sp)
		if err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		fsp := b.tr.begin("simnet.first_run", sp)
		runs, err := h.first(s, fsp)
		t2 := time.Now()
		b.tr.end(fsp)
		b.tr.end(sp)
		b.setups = append(b.setups, seconds(t2.Sub(t0)))
		buildMS = append(buildMS, millis(t1.Sub(t0)))
		firstMS = append(firstMS, millis(t2.Sub(t1)))
		if err != nil {
			return s, fmt.Errorf("set-up: cold first op: %w", err)
		}
		if h.prepare != nil {
			if err := h.prepare(s); err != nil {
				return s, fmt.Errorf("set-up: %w", err)
			}
		}
		if err := b.expect(0, runs); err != nil {
			return s, fmt.Errorf("set-up %d: cold first op: %w", rep, err)
		}
	}
	b.tr.op = -1
	b.setLayer("simnet.first_run_ms", median(firstMS), "ms")
	b.buildMS = median(buildMS)
	return s, nil
}

// expect checks one op's runs: exact accounting, the workload's own
// output check, and the pass expectations.
func (b *bench) expect(op int, runs []simStats) error {
	for k, st := range runs {
		if err := st.accounted(); err != nil {
			return fmt.Errorf("run %d: %w", k, err)
		}
	}
	if b.verify != nil {
		if err := b.verify(b.exp.input(op), runs); err != nil {
			return err
		}
	}
	wasComplete := b.exp.complete()
	if err := b.exp.check(op, runs); err != nil {
		return err
	}
	if !wasComplete && b.exp.complete() {
		return b.checkGolden(len(b.exp.want), b.exp.digest())
	}
	return nil
}

// closedLoop runs op back to back from one client for the measured
// phase: at least b.seconds, minOps ops and one complete pass. Op 0 ran
// cold in set-up, so the loop starts at op 1. A traced run records spans
// on even ops only; the odd ops measure the tracing overhead.
func (b *bench) closedLoop(op func(i, parent int) ([]simStats, error)) {
	limit := time.Duration(b.seconds * float64(time.Second))
	traced := b.tr.on
	start := time.Now()
	for i := 1; ; i++ {
		if time.Since(start) >= limit && len(b.ops) >= minOps && b.exp.complete() {
			break
		}
		b.tr.op = i
		b.tr.on = traced && i%2 == 0
		sp := b.tr.begin("op", -1)
		t0 := time.Now()
		runs, err := op(i, sp)
		el := time.Since(t0)
		b.tr.end(sp)
		rec := opRecord{ms: millis(el), end: seconds(time.Since(start)), traced: b.tr.on}
		if err == nil {
			err = b.expect(i, runs)
		}
		if err != nil {
			b.errorf("op %d: %v", i, err)
			rec.failed = true
		}
		for _, st := range runs {
			rec.pkts += st.Delivered
		}
		b.ops = append(b.ops, rec)
	}
	b.tr.on = traced
	b.tr.op = -1
}

// buildMachine returns the set-up step of the OTIS workloads.
func (b *bench) buildMachine(parent int) (*machine.Machine, error) {
	sp := b.tr.begin("machine.build", parent)
	m, err := machine.Build(otisD, otisDiam, optics.DefaultPitch)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if m.Nodes() != otisNodes || m.Lenses() != otisLenses {
		return nil, fmt.Errorf("machine has %d nodes and %d lenses, want %d and %d", m.Nodes(), m.Lenses(), otisNodes, otisLenses)
	}
	return m, nil
}

// otisBatch: plain permutation runs on the paper's machine.
func otisBatch(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	pool := permPool(rng, otisNodes, otisPool)
	lenses := rng.Perm(otisLenses) // for the traced run's lens probe
	b.exp = newExpectations(otisPool)
	var samples []runSample
	var want []int64
	m, err := setupReps(b, setupHooks[*machine.Machine]{
		build: b.buildMachine,
		first: func(m *machine.Machine, parent int) ([]simStats, error) {
			return b.plainRun(m.RunOpts, pool[0], "simnet.run", parent, nil)
		},
		prepare: func(m *machine.Machine) error {
			if want == nil {
				want = hopSums(pool, newDBDistance(otisD, otisDiam), m.ToLogical)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	b.verify = func(i int, runs []simStats) error { return checkPlain(runs[0], want[i], otisDiam) }
	b.closedLoop(func(i, parent int) ([]simStats, error) {
		return b.plainRun(m.RunOpts, pool[b.exp.input(i)], "simnet.run", parent, &samples)
	})
	b.heapMB = heapLiveMB()
	if !b.tr.on {
		return nil
	}
	b.setLayer("machine.build_ms", b.buildMS, "ms")
	b.setRunLayers(samples, b.exp.pass(0))
	if err := b.probeMachine(m, pool, lenses, want); err != nil {
		return err
	}
	return b.probeService()
}

// shiftScale: plain permutation runs on B(4,8) with AutoRouting, which
// resolves to table-free shift routing at this size.
func shiftScale(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	pool := permPool(rng, shiftNodes, shiftPool)
	want := hopSums(pool, newDBDistance(shiftD, shiftDiam), nil)
	b.exp = newExpectations(shiftPool)
	b.verify = func(i int, runs []simStats) error { return checkPlain(runs[0], want[i], shiftDiam) }
	var samples []runSample
	var graphMS, netMS []float64
	nw, err := setupReps(b, setupHooks[*simnet.Network]{
		build: func(parent int) (*simnet.Network, error) {
			sp := b.tr.begin("debruijn.build", parent)
			t0 := time.Now()
			g := debruijn.DeBruijn(shiftD, shiftDiam)
			t1 := time.Now()
			b.tr.end(sp)
			sp = b.tr.begin("simnet.new_network", parent)
			nw, err := simnet.NewNetwork(g)
			t2 := time.Now()
			b.tr.end(sp)
			graphMS = append(graphMS, millis(t1.Sub(t0)))
			netMS = append(netMS, millis(t2.Sub(t1)))
			if err != nil {
				return nil, err
			}
			if nw.Routing() != simnet.ShiftRouting {
				return nil, fmt.Errorf("B(%d,%d) resolved to %v routing, want shift", shiftD, shiftDiam, nw.Routing())
			}
			return nw, nil
		},
		first: func(nw *simnet.Network, parent int) ([]simStats, error) {
			return b.plainRun(nw.RunOpts, pool[0], "simnet.run", parent, nil)
		},
	})
	if err != nil {
		return err
	}
	b.closedLoop(func(i, parent int) ([]simStats, error) {
		return b.plainRun(nw.RunOpts, pool[b.exp.input(i)], "simnet.run", parent, &samples)
	})
	b.heapMB = heapLiveMB()
	if !b.tr.on {
		return nil
	}
	b.setLayer("debruijn.build_ms", median(graphMS), "ms")
	b.setLayer("simnet.new_network_ms", median(netMS), "ms")
	b.setRunLayers(samples, b.exp.pass(0))
	if err := b.routeWalk(simnet.NewDeBruijnRouter(shiftD, shiftDiam), debruijn.DeBruijn(shiftD, shiftDiam).Out, pool, want); err != nil {
		return err
	}
	if err := b.probeMachine(nil, nil, nil, nil); err != nil {
		return err
	}
	return b.probeService()
}

// otisLens: lens-outage studies on the paper's machine.
func otisLens(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	pool := permPool(rng, otisNodes, otisPool)
	lenses := rng.Perm(otisLenses)
	b.exp = newExpectations(otisLenses)
	b.passRun = 1
	var want []int64
	study := func(m *machine.Machine, i, parent int) ([]simStats, error) {
		return b.lensStudy(m, pool[i%otisPool], lenses[b.exp.input(i)], parent)
	}
	m, err := setupReps(b, setupHooks[*machine.Machine]{
		build: b.buildMachine,
		first: func(m *machine.Machine, parent int) ([]simStats, error) { return study(m, 0, parent) },
		prepare: func(m *machine.Machine) error {
			if want == nil {
				want = hopSums(pool, newDBDistance(otisD, otisDiam), m.ToLogical)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	b.verify = func(i int, runs []simStats) error {
		if err := checkPlain(runs[0], want[i%otisPool], otisDiam); err != nil {
			return fmt.Errorf("recorded healthy run: %w", err)
		}
		return nil
	}
	b.closedLoop(func(i, parent int) ([]simStats, error) { return study(m, i, parent) })
	b.heapMB = heapLiveMB()
	if !b.tr.on {
		return nil
	}
	b.setLayer("machine.build_ms", b.buildMS, "ms")
	b.setLensLayers(b.exp.pass(1))
	if err := b.probeMachine(m, pool, lenses, want); err != nil {
		return err
	}
	return b.probeService()
}

// lensStudy is the otis_lens op: a recorded healthy run, the same
// traffic with one lens down, and the lens roll-up of both recorders.
func (b *bench) lensStudy(m *machine.Machine, pkts []simnet.Packet, lens, parent int) ([]simStats, error) {
	rec := obs.NewRecorder(nil)
	sp := b.tr.begin("obs.recorded_run", parent)
	healthy, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithRecorder(rec))
	b.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recorded run: %w", err)
	}
	sp = b.tr.begin("simnet.fault_run", parent)
	plan, err := m.LensFaultPlan(lensStart, lensCycles, lens)
	if err != nil {
		b.tr.end(sp)
		return nil, fmt.Errorf("lens %d fault plan: %w", lens, err)
	}
	frec := obs.NewRecorder(nil)
	faulted, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan), simnet.WithRecorder(frec))
	b.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("lens %d faulted run: %w", lens, err)
	}
	sp = b.tr.begin("machine.lens_rollup", parent)
	hu, herr := m.LensUtilization(rec)
	fu, ferr := m.LensUtilization(frec)
	b.tr.end(sp)
	if herr != nil || ferr != nil {
		return nil, fmt.Errorf("lens roll-up: %v / %v", herr, ferr)
	}
	if err := checkShares(hu); err != nil {
		return nil, fmt.Errorf("healthy roll-up: %w", err)
	}
	if err := checkShares(fu); err != nil {
		return nil, fmt.Errorf("lens %d roll-up: %w", lens, err)
	}
	return []simStats{statsOf(healthy, len(pkts)), statsOf(faulted, len(pkts))}, nil
}

// checkShares verifies that the lens shares sum to 1 on each side.
func checkShares(us []obs.LensUtilization) error {
	sums := map[string]float64{}
	for _, u := range us {
		sums[u.Side] += u.Share
	}
	if len(us) != otisLenses || len(sums) != 2 {
		return fmt.Errorf("%d lenses on %d sides, want %d on 2", len(us), len(sums), otisLenses)
	}
	for _, side := range []string{"tx", "rx"} {
		if math.Abs(sums[side]-1) > 1e-9 {
			return fmt.Errorf("%s lens shares sum to %v, want 1", side, sums[side])
		}
	}
	return nil
}

// setLensLayers reports the lens-study per-layer metrics from the
// traced studies' spans and the pass of faulted runs.
func (b *bench) setLensLayers(faulted simStats) {
	b.setLayer("obs.recorded_run_ms_p50", median(b.tr.durations("obs.recorded_run")), "ms")
	b.setLayer("simnet.fault_run_ms_p50", median(b.tr.durations("simnet.fault_run")), "ms")
	b.setLayer("machine.lens_rollup_ms", median(b.tr.durations("machine.lens_rollup")), "ms")
	b.setLayer("simnet.fault_retries_per_pkt", float64(faulted.Retries)/float64(faulted.Offered), "1/pkt")
	b.setLayer("simnet.fault_reroutes", float64(faulted.Reroutes)/float64(faulted.Offered/otisNodes), "1/run")
}
