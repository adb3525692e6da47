// simulate runs packet-level experiments over the networks the paper lays
// out: de Bruijn B(d,D) (natively routed or table-routed), the OTIS
// digraph H(p,q,d) of the optimal layout (routed through its layout
// witness, or table-routed), or the Kautz digraph.
//
// Usage:
//
//	simulate -topo debruijn -d 2 -diam 8 -workload uniform -packets 5000
//	simulate -topo otis -d 2 -diam 10 -workload permutation
//	simulate -topo kautz -d 2 -diam 8 -workload broadcast
//	simulate -topo debruijn -d 3 -diam 3 -faults
//
// Scale (table-free shift routing + prefix-sharded engine):
//
//	simulate -topo debruijn -d 2 -diam 20 -routing shift -shards 8 -workload permutation
//
// Overload protection (bounded queues, backpressure, admission):
//
//	simulate -d 3 -diam 6 -saturation 1,2,4 -qcap 4            # saturation sweep
//	simulate -d 3 -diam 6 -saturation 1,2,4 -qcap 4 -admit 50  # + source regulator
//	simulate -d 2 -diam 8 -packets 5000 -qcap 8                # bounded single run
//
//	simulate -d 3 -diam 4 -faultlens 2
//	simulate -d 3 -diam 4 -selfheal                          # single-arc fault, no-oracle repair
//	simulate -d 3 -diam 4 -faultlens 2 -selfheal -quarantine # lens fault + circuit breaker
//
// Observability:
//
//	simulate -topo otis -d 3 -diam 4 -metrics run.json   # OBS_run/v1 document
//	simulate -d 3 -diam 4 -faultlens 2 -metrics run.json # with per-lens roll-up
//	simulate -validate-metrics run.json                  # schema check, exit 0/1
//	simulate -pprof :6060 ...                            # pprof + expvar during the run
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/otis"
	"repro/internal/simnet"
)

func main() {
	topo := flag.String("topo", "debruijn", "topology: debruijn | otis | kautz")
	d := flag.Int("d", 2, "degree")
	diam := flag.Int("diam", 8, "diameter")
	workload := flag.String("workload", "uniform", "workload: uniform | permutation | broadcast | alltoall | poisson")
	packets := flag.Int("packets", 2000, "packet count (uniform/poisson)")
	rate := flag.Float64("rate", 0.5, "arrival rate for poisson (packets/cycle)")
	hop := flag.Int("hop", 1, "hop latency in cycles")
	routing := flag.String("routing", "auto",
		"routing: auto | table | shift (shift is table-free, congruence-form de Bruijn only)")
	shards := flag.Int("shards", 1,
		"partition the cycle engine into this many prefix shards (plain runs only)")
	seed := flag.Int64("seed", 1, "workload seed")
	sweep := flag.Bool("sweep", false, "run a load-latency sweep instead of a single workload")
	faults := flag.Bool("faults", false, "run a fault-rate degradation sweep instead of a single workload")
	faultRates := flag.String("faultrates", "0,0.02,0.05,0.1,0.2,0.4,0.7,1",
		"comma-separated per-arc fault rates for -faults")
	faultLens := flag.Int("faultlens", -1,
		"inject a permanent fault of this lens on the B(d,diam) machine and run the workload")
	selfheal := flag.Bool("selfheal", false,
		"run the fault through the self-healing engine (no-oracle detection, gossip, route repair) and report convergence")
	quarantine := flag.Bool("quarantine", false,
		"with -selfheal: wire the per-lens circuit breaker in and report its transitions")
	saturation := flag.String("saturation", "",
		"comma-separated load multiples of the saturation rate (e.g. 1,2,4): run a saturation sweep")
	qcap := flag.Int("qcap", 0, "bound every output queue at this many packets (0: unbounded)")
	holdBudget := flag.Int("holdbudget", 0,
		"hold-in-place cycles a packet may spend against full queues (0: default 4*qcap+16)")
	admit := flag.Float64("admit", 0,
		"admission-control rate in packets/cycle; packets beyond it wait or are shed (0: off)")
	metricsOut := flag.String("metrics", "", "write an OBS_run/v1 metrics document to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	validate := flag.String("validate-metrics", "", "validate an OBS_run/v1 metrics file and exit")
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err == nil {
			err = obs.ValidateRunMetrics(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate: metrics invalid:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s document\n", *validate, obs.RunMetricsSchema)
		return
	}

	var rec *obs.Recorder
	if *metricsOut != "" {
		rec = obs.NewRecorder(nil)
	}
	if *pprofAddr != "" {
		servePprof(*pprofAddr, rec)
	}

	if *faults {
		runDegradation(*topo, *d, *diam, *faultRates, *packets, *seed, rec, *metricsOut)
		return
	}
	if *selfheal {
		runSelfHeal(*d, *diam, *faultLens, *quarantine, *packets, *seed, rec, *metricsOut)
		return
	}
	if *faultLens >= 0 {
		runLensFault(*d, *diam, *faultLens, *packets, *seed, rec, *metricsOut)
		return
	}

	if *saturation != "" {
		runSaturation(*topo, *d, *diam, *saturation, *packets, *seed,
			*qcap, *holdBudget, *admit, rec, *metricsOut)
		return
	}
	if *sweep {
		g, router, name := buildTopology(*topo, *d, *diam, rec)
		fmt.Printf("topology: %s — %d nodes\n", name, g.N())
		reportRouter(router)
		zero, _ := simnet.ZeroLoadLatency(g, 1)
		fmt.Printf("analytic zero-load latency: %.3f cycles\n\n", zero)
		rates := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9}
		points, err := simnet.LoadSweep(g, router, rates, *packets, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		for _, p := range points {
			fmt.Println(" ", p)
		}
		return
	}

	g, router, name := buildTopology(*topo, *d, *diam, rec)
	// All-pairs statistics (diameter, mean distance) are O(n·(n+m));
	// past ~100k nodes they dwarf the simulation itself, so the big
	// runs print only what is known analytically.
	allPairs := g.N() <= 1<<17
	if allPairs {
		fmt.Printf("topology: %s — %d nodes, degree %d, diameter %d\n",
			name, g.N(), *d, g.Diameter())
	} else {
		fmt.Printf("topology: %s — %d nodes, degree %d\n", name, g.N(), *d)
	}

	pkts := buildWorkload(*workload, g.N(), *packets, *rate, *seed)
	fmt.Printf("workload: %s, %d packets\n", *workload, len(pkts))

	nopts := []simnet.NetworkOption{simnet.WithHopLatency(*hop)}
	switch *routing {
	case "auto":
		// Native shift routing on de Bruijn, witness shift routing on
		// OTIS, (recorder-observed) table routing on Kautz.
		nopts = append(nopts, simnet.WithRouter(router))
	case "table":
		nopts = append(nopts, simnet.WithRouting(simnet.TableRouting))
	case "shift":
		nopts = append(nopts, simnet.WithRouting(simnet.ShiftRouting))
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown routing %q\n", *routing)
		os.Exit(2)
	}
	nw, err := simnet.NewNetwork(g, nopts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	fmt.Printf("routing:  %v", nw.Routing())
	if *shards > 1 {
		fmt.Printf(", %d shards", *shards)
	}
	if tr, ok := router.(*simnet.TableRouter); ok && *routing == "auto" {
		fmt.Printf(", %d-byte next-hop slab", tr.Footprint())
	}
	fmt.Println()
	nw.Observe(rec)
	opts := overloadOpts(*qcap, *holdBudget, *admit)
	overload := len(opts) > 0
	if *shards > 1 {
		opts = append(opts, simnet.WithShards(*shards))
	}
	rep, err := nw.RunOpts(simnet.Fixed(pkts), opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	res := rep.Result
	if overload {
		fmt.Printf("overload: shed=%d dropQueueFull=%d holds=%d peakResident=%d\n",
			res.Shed, res.DroppedQueueFull, res.Holds, res.PeakResident)
	}
	fmt.Printf("result:   %v\n", res)
	if allPairs {
		if mean, ok := g.MeanDistance(); ok {
			fmt.Printf("graph:    mean distance %.3f, diameter %d (hop-count bounds)\n",
				mean, g.Diameter())
		}
	}
	if res.Delivered > 0 {
		fmt.Printf("queueing: %.3f cycles/packet average wait\n",
			float64(res.TotalWait)/float64(res.Delivered))
	}
	writeMetrics(*metricsOut, rec.Snapshot())
}

// servePprof exposes net/http/pprof (and, when metrics are being
// recorded, the registry as an expvar) on addr for the duration of the
// run.
func servePprof(addr string, rec *obs.Recorder) {
	if rec != nil {
		rec.Registry().PublishExpvar("simulate")
	}
	expvar.Publish("simulate_args", expvar.Func(func() any { return os.Args }))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "simulate: pprof server:", err)
		}
	}()
	fmt.Printf("pprof:    serving /debug/pprof and /debug/vars on %s\n", addr)
}

// writeMetrics validates and writes an OBS_run/v1 document (no-op when
// path is empty).
func writeMetrics(path string, m obs.RunMetrics) {
	if path == "" {
		return
	}
	data, err := m.MarshalIndent()
	if err == nil {
		err = obs.ValidateRunMetrics(data)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate: metrics:", err)
		os.Exit(1)
	}
	fmt.Printf("metrics:  %s written to %s\n", obs.RunMetricsSchema, path)
}

// runDegradation sweeps the per-arc permanent fault rate and prints the
// delivered fraction, latency and reroute counts at each point.
func runDegradation(topo string, d, diam int, rateList string, packets int, seed int64, rec *obs.Recorder, metricsOut string) {
	g, router, name := buildTopology(topo, d, diam, rec)
	rates, err := parseRates(rateList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	fmt.Printf("topology: %s — %d nodes, %d arcs\n", name, g.N(), g.M())
	reportRouter(router)
	fmt.Printf("degradation sweep: %d packets/point, seed %d\n\n", packets, seed)
	nw, err := simnet.NewNetwork(g, simnet.WithRouter(router))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	nw.Observe(rec)
	points, err := nw.DegradationSweep(rates, packets, seed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	for _, p := range points {
		fmt.Println(" ", p)
	}
	writeMetrics(metricsOut, rec.Snapshot())
}

// overloadOpts translates the -qcap/-holdbudget/-admit flags into run
// options (empty when all are off).
func overloadOpts(qcap, holdBudget int, admit float64) []simnet.RunOption {
	var opts []simnet.RunOption
	if qcap > 0 {
		opts = append(opts, simnet.WithQueueCapacity(qcap))
	}
	if holdBudget > 0 {
		opts = append(opts, simnet.WithHoldBudget(holdBudget))
	}
	if admit > 0 {
		opts = append(opts, simnet.WithAdmission(simnet.AdmissionConfig{Rate: admit}))
	}
	return opts
}

// runSaturation offers fixed-rate uniform traffic at each multiple of
// the topology's saturation throughput and prints how delivery degrades
// — with -qcap the buffer footprint stays at the topology bound however
// hard the sources push.
func runSaturation(topo string, d, diam int, multiples string, packets int, seed int64,
	qcap, holdBudget int, admit float64, rec *obs.Recorder, metricsOut string) {
	g, router, name := buildTopology(topo, d, diam, rec)
	ms, err := parseRates(multiples)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	nw, err := simnet.NewNetwork(g, simnet.WithRouter(router))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	nw.Observe(rec)
	sat, ok := simnet.SaturationRate(g)
	if !ok {
		fmt.Fprintln(os.Stderr, "simulate: topology has no saturation rate (not strongly connected)")
		os.Exit(2)
	}
	fmt.Printf("topology: %s — %d nodes, %d arcs\n", name, g.N(), g.M())
	fmt.Printf("saturation rate: %.2f packets/cycle (M / mean distance)\n", sat)
	fmt.Printf("sweep: %d packets/point, seed %d, qcap %d, admit %.1f\n\n", packets, seed, qcap, admit)
	points, err := nw.SaturationSweep(ms, packets, seed, overloadOpts(qcap, holdBudget, admit)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	for _, p := range points {
		fmt.Println(" ", p)
	}
	writeMetrics(metricsOut, rec.Snapshot())
}

// runLensFault assembles the B(d, diam) machine, downs one lens
// permanently and reports who is silenced and what survives. With
// -metrics the document includes the per-lens utilization roll-up.
func runLensFault(d, diam, lens, packets int, seed int64, rec *obs.Recorder, metricsOut string) {
	m, err := machine.Build(d, diam, optics.DefaultPitch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	m.Observe(rec)
	fmt.Printf("machine: %v\n", m.Layout)
	side := "transmitter"
	if lens >= m.Layout.P() {
		side = "receiver"
	}
	silencedOut, silencedIn, err := m.LensShadow(lens)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	fmt.Printf("fault: %s-side lens %d down permanently\n", side, lens)
	if len(silencedOut) > 0 {
		fmt.Printf("shadow: nodes %v silenced as senders\n", silencedOut)
	}
	if len(silencedIn) > 0 {
		fmt.Printf("shadow: nodes %v silenced as receivers\n", silencedIn)
	}
	plan, err := m.LensFaultPlan(0, 0, lens)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	rep, err := m.RunOpts(simnet.UniformLoad(packets), simnet.WithSeed(seed), simnet.WithFaults(plan))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	res := rep.FaultResult
	fmt.Printf("result: %v\n", res)
	fmt.Printf("delivered fraction: %.3f\n", res.DeliveredFraction())
	if metricsOut != "" {
		doc, err := m.RunMetrics(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		writeMetrics(metricsOut, doc)
	}
}

// runSelfHeal injects a permanent fault on the B(d, diam) machine and
// runs the workload through the self-healing engine: nodes discover the
// dead arcs by NACK timeout, flood link-state events, and route around
// what they have heard — no oracle access to the fault plan. With -faultlens
// the fault is a whole lens (whose shadow may silence nodes outright,
// so full convergence can be physically unattainable); without it a
// single arc dies, the regime where the network provably converges.
// With -quarantine a per-lens circuit breaker rides along and its
// transitions are reported.
func runSelfHeal(d, diam, lens int, quarantine bool, packets int, seed int64, rec *obs.Recorder, metricsOut string) {
	m, err := machine.Build(d, diam, optics.DefaultPitch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	m.Observe(rec)
	fmt.Printf("machine: %v\n", m.Layout)
	var plan *simnet.FaultPlan
	if lens >= 0 {
		plan, err = m.LensFaultPlan(0, 0, lens) // permanent
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(2)
		}
		fmt.Printf("fault: lens %d down permanently; self-healing with no fault oracle\n", lens)
	} else {
		plan = simnet.NewFaultPlan()
		plan.LinkDown(0, 0, 1, 0)
		fmt.Println("fault: arc (1#0) down permanently; self-healing with no fault oracle")
	}
	cfg := simnet.HealConfig{}
	var breaker *machine.LensBreaker
	if quarantine {
		breaker, err = machine.NewLensBreaker(m, machine.BreakerConfig{}, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		cfg.Monitor = breaker
	}
	session, err := m.SelfHeal(plan, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
	var res simnet.HealResult
	// Two waves through one session: the first takes the NACKs and
	// seeds detection + gossip, the second runs on the repaired routes.
	for wave := 1; wave <= 2; wave++ {
		res, err = session.Run(simnet.UniformRandom(m.Nodes(), packets, seed+int64(wave)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		fmt.Printf("wave %d: %v\n", wave, res)
	}
	fmt.Printf("delivered fraction: %.3f (wave 2)\n", res.DeliveredFraction())
	if res.Converged {
		fmt.Printf("healing: converged at cycle %d, epoch %d (%d events, %d epoch repairs)\n",
			res.ConvergedCycle, res.FinalEpoch, res.EventsCommitted, res.Repairs)
	} else {
		fmt.Printf("healing: NOT converged (%d events committed, epoch %d)\n",
			res.EventsCommitted, res.FinalEpoch)
	}
	fmt.Printf("believed down: %v\n", session.BelievedDown())
	if breaker != nil {
		for _, tr := range breaker.Transitions() {
			fmt.Printf("breaker: cycle %4d lens %d %v -> %v\n", tr.Cycle, tr.Lens, tr.From, tr.To)
		}
		for _, st := range breaker.States() {
			if st.State != machine.BreakerClosed {
				fmt.Printf("breaker: lens %d (%s) ends %v, trips %d, hold until %d\n",
					st.Lens, st.Side, st.State, st.Trips, st.HoldUntil)
			}
		}
		if q := session.Quarantined(); len(q) > 0 {
			fmt.Printf("quarantined arcs: %v\n", q)
		}
	}
	if metricsOut != "" {
		doc, err := m.RunMetrics(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		writeMetrics(metricsOut, doc)
	}
}

// reportRouter prints the routing-state footprint when the topology uses
// precomputed tables (the native de Bruijn router holds none).
func reportRouter(router simnet.Router) {
	if tr, ok := router.(*simnet.TableRouter); ok {
		fmt.Printf("routing:  %d-byte next-hop slab\n", tr.Footprint())
	}
}

func parseRates(list string) ([]float64, error) {
	var rates []float64
	for _, field := range strings.Split(list, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		r, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault rate %q: %v", field, err)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no fault rates in %q", list)
	}
	return rates, nil
}

// buildTopology returns the digraph and router; table builds are timed
// into the recorder when one is attached. The OTIS wiring routes through
// its certified layout witness, table-free; -routing table still builds
// a slab for it.
func buildTopology(topo string, d, diam int, rec *obs.Recorder) (*digraph.Digraph, simnet.Router, string) {
	table := func(g *digraph.Digraph) simnet.Router {
		if rec != nil {
			return simnet.NewTableRouterObserved(g, rec)
		}
		return simnet.NewTableRouter(g)
	}
	switch topo {
	case "debruijn":
		g := debruijn.DeBruijn(d, diam)
		return g, simnet.NewDeBruijnRouter(d, diam), fmt.Sprintf("B(%d,%d)", d, diam)
	case "otis":
		layout, ok := otis.OptimalLayout(d, diam)
		if !ok {
			fmt.Fprintf(os.Stderr, "simulate: no OTIS layout for B(%d,%d)\n", d, diam)
			os.Exit(2)
		}
		g := otis.MustH(layout.P(), layout.Q(), d)
		toLogical, err := otis.LayoutWitness(d, layout.PPrime, layout.QPrime)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		router, err := simnet.NewWitnessRouter(g, toLogical)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		return g, router,
			fmt.Sprintf("H(%d,%d,%d) = %v", layout.P(), layout.Q(), d, layout)
	case "kautz":
		g, _ := debruijn.Kautz(d, diam)
		return g, table(g), fmt.Sprintf("K(%d,%d)", d, diam)
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown topology %q\n", topo)
		os.Exit(2)
		return nil, nil, ""
	}
}

func buildWorkload(kind string, n, packets int, rate float64, seed int64) []simnet.Packet {
	switch kind {
	case "uniform":
		return simnet.UniformRandom(n, packets, seed)
	case "permutation":
		return simnet.Permutation(n, seed)
	case "broadcast":
		return simnet.Broadcast(n, 0)
	case "alltoall":
		return simnet.AllToAll(n)
	case "poisson":
		return simnet.PoissonArrivals(n, packets, rate, seed)
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown workload %q\n", kind)
		os.Exit(2)
		return nil
	}
}
