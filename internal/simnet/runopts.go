package simnet

import (
	"fmt"

	"repro/internal/obs"
)

// The one run entry point: a Workload plus functional options, every
// one of them per run.
//
//	rep, err := nw.RunOpts(simnet.UniformLoad(5000),
//	        simnet.WithSeed(7),
//	        simnet.WithFaults(plan),
//	        simnet.WithRecorder(rec))
//
// A literal packet list runs as Fixed(pkts). Each option may appear once
// per call; a duplicate fails eagerly like any invalid option.

// Workload produces the packets of one run, given the network size and
// a seed. Deterministic generators ignore the seed.
type Workload interface {
	Packets(n int, seed int64) []Packet
}

// WorkloadFunc adapts a function to the Workload interface.
type WorkloadFunc func(n int, seed int64) []Packet

// Packets implements Workload.
func (f WorkloadFunc) Packets(n int, seed int64) []Packet { return f(n, seed) }

// Fixed wraps a literal packet list as a Workload (the seed is unused).
func Fixed(pkts []Packet) Workload {
	return WorkloadFunc(func(int, int64) []Packet { return pkts })
}

// UniformLoad is the uniform-random workload of the given packet count.
func UniformLoad(packets int) Workload {
	return WorkloadFunc(func(n int, seed int64) []Packet { return UniformRandom(n, packets, seed) })
}

// PermutationLoad is the random-permutation workload (one packet per
// node, destinations a uniform permutation).
func PermutationLoad() Workload {
	return WorkloadFunc(func(n int, seed int64) []Packet { return Permutation(n, seed) })
}

// BroadcastLoad is the one-to-all workload from the given root.
func BroadcastLoad(root int) Workload {
	return WorkloadFunc(func(n int, _ int64) []Packet { return Broadcast(n, root) })
}

// AllToAllLoad is the complete-exchange workload.
func AllToAllLoad() Workload {
	return WorkloadFunc(func(n int, _ int64) []Packet { return AllToAll(n) })
}

// PoissonLoad is the Poisson-arrival workload at the given rate
// (packets per cycle per network, 0 < rate ≤ 1). An out-of-range rate
// is reported eagerly by RunOpts as an *OptionError.
func PoissonLoad(packets int, rate float64) Workload {
	if rate <= 0 || rate > 1 {
		return errWorkload{&OptionError{Option: "PoissonLoad", Reason: fmt.Sprintf("rate must be in (0, 1], got %v", rate)}}
	}
	if packets < 0 {
		return errWorkload{&OptionError{Option: "PoissonLoad", Reason: fmt.Sprintf("packet count must be >= 0, got %d", packets)}}
	}
	return WorkloadFunc(func(n int, seed int64) []Packet { return PoissonArrivals(n, packets, rate, seed) })
}

// RatedLoad is the fixed-rate uniform workload (RatedUniform): packets
// with uniform random endpoints released at the given aggregate rate in
// packets per cycle. Unlike PoissonLoad the rate may exceed 1 — this is
// the workload saturation studies offer at multiples of the network's
// saturation throughput. A non-positive rate is reported eagerly by
// RunOpts as an *OptionError.
func RatedLoad(packets int, rate float64) Workload {
	if rate <= 0 {
		return errWorkload{&OptionError{Option: "RatedLoad", Reason: fmt.Sprintf("rate must be > 0, got %v", rate)}}
	}
	if packets < 0 {
		return errWorkload{&OptionError{Option: "RatedLoad", Reason: fmt.Sprintf("packet count must be >= 0, got %d", packets)}}
	}
	return WorkloadFunc(func(n int, seed int64) []Packet { return RatedUniform(n, packets, rate, seed) })
}

// OptionError reports an invalid RunOpts option or workload parameter,
// detected eagerly when the option is applied (mirroring
// NewFaultPlanFor's Err pattern) and returned by RunOpts before any
// simulation work happens.
type OptionError struct {
	// Option names the offending option or workload constructor.
	Option string
	// Reason says what was wrong with it.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("simnet: %s: %s", e.Option, e.Reason)
}

// errWorkload carries a workload-construction error that RunOpts
// surfaces before generating any packets.
type errWorkload struct{ err error }

// Packets implements Workload; an errored workload generates nothing.
func (w errWorkload) Packets(int, int64) []Packet { return nil }

// Err reports the construction error.
func (w errWorkload) Err() error { return w.err }

// runConfig is the option state of one RunOpts call.
type runConfig struct {
	faults      bool
	plan        *FaultPlan
	traced      bool
	rec         *obs.Recorder
	recOverride bool
	seed        int64
	seedSet     bool
	qcap        int // per-run queue bound (0: none given)
	hold        int // per-run hold budget (0: none given)
	admission   AdmissionConfig
	admit       bool
	shards      int // requested lane count (0: none given)
	errs        []error
}

// fail records an eager option error, surfaced by RunOpts.
func (c *runConfig) fail(option, format string, args ...any) {
	c.errs = append(c.errs, &OptionError{Option: option, Reason: fmt.Sprintf(format, args...)})
}

// RunOption configures one RunOpts call. It takes and returns the
// option state by value, so RunOpts keeps that state on its stack.
type RunOption func(runConfig) runConfig

// WithFaults runs the workload through the fault-aware engine under the
// given plan (nil: the fault engine with no scheduled faults — still
// useful for its TTL/retry semantics and Delivered+Dropped accounting).
// Two WithFaults options on one call conflict and fail eagerly.
func WithFaults(plan *FaultPlan) RunOption {
	return func(c runConfig) runConfig {
		if c.faults {
			c.fail("WithFaults", "conflicting duplicate option (two fault plans on one run)")
			return c
		}
		c.faults = true
		c.plan = plan
		return c
	}
}

// WithTrace records the full event log of the run into the report.
func WithTrace() RunOption {
	return func(c runConfig) runConfig { c.traced = true; return c }
}

// WithRecorder records metrics into rec for this run only, overriding
// (or, when the network has none, supplying) the recorder attached with
// Observe, which every run, heal session and sweep reads otherwise.
// WithRecorder(nil) forces an uninstrumented run. The run records into
// a run-local tally and merges it into rec once, when it ends, so a
// recorded run takes the same kernel as an unrecorded one — except that
// a sharded run runs one lane. Duplicate WithRecorder options conflict
// and fail eagerly.
func WithRecorder(rec *obs.Recorder) RunOption {
	return func(c runConfig) runConfig {
		if c.recOverride {
			c.fail("WithRecorder", "conflicting duplicate option (two recorders on one run)")
			return c
		}
		c.rec = rec
		c.recOverride = true
		return c
	}
}

// WithSeed seeds the workload generator (default 1). Duplicate WithSeed
// options conflict and fail eagerly.
func WithSeed(seed int64) RunOption {
	return func(c runConfig) runConfig {
		if c.seedSet {
			c.fail("WithSeed", "conflicting duplicate option (two seeds on one run)")
			return c
		}
		c.seed = seed
		c.seedSet = true
		return c
	}
}

// WithShards runs the lane kernel on s lanes: the run's nodes split into
// s contiguous word-prefix ranges, executed by a pool of
// min(s, GOMAXPROCS) workers. Each lane owns its nodes' queue, ring and
// activity-bitmap state; hops between lanes travel in per-cycle batched
// handoff buffers, and the result is identical to a one-lane run for
// every lane and worker count (pinned by the equivalence tests).
// Sharding applies to plain unbounded runs without admission control or
// a trace; a recorded one runs one lane, and runs with faults, tracing,
// bounded queues or admission control take their one engine (fault loop
// or general path). s must be at least 1 and at most the node count;
// out-of-range counts and duplicate WithShards options fail eagerly.
func WithShards(s int) RunOption {
	return func(c runConfig) runConfig {
		if c.shards != 0 {
			c.fail("WithShards", "conflicting duplicate option (two shard counts on one run)")
			return c
		}
		if s < 1 {
			c.fail("WithShards", "shard count must be >= 1, got %d", s)
			return c
		}
		c.shards = s
		return c
	}
}

// WithQueueCapacity bounds every output queue of this run at cap
// packets per arc (the fault engine bounds each node's hold queue at cap
// packets per out-arc). A full downstream queue holds the packet
// upstream — credit-based backpressure — until its hold budget
// (WithHoldBudget) runs out. cap must be at least 1; zero or negative
// capacities and duplicate WithQueueCapacity options fail eagerly.
func WithQueueCapacity(cap int) RunOption {
	return func(c runConfig) runConfig {
		if c.qcap != 0 {
			c.fail("WithQueueCapacity", "conflicting duplicate option (two queue bounds on one run)")
			return c
		}
		if cap < 1 {
			c.fail("WithQueueCapacity", "capacity must be >= 1, got %d", cap)
			return c
		}
		c.qcap = cap
		return c
	}
}

// WithHoldBudget sets the lifetime number of hold-in-place cycles a
// packet may spend against full queues before dropping as
// DroppedQueueFull (default 4·QueueCapacity+16). Only meaningful with a
// queue bound; budget must be at least 1, and duplicate WithHoldBudget
// options fail eagerly.
func WithHoldBudget(budget int) RunOption {
	return func(c runConfig) runConfig {
		if c.hold != 0 {
			c.fail("WithHoldBudget", "conflicting duplicate option (two hold budgets on one run)")
			return c
		}
		if budget < 1 {
			c.fail("WithHoldBudget", "budget must be >= 1, got %d", budget)
			return c
		}
		c.hold = budget
		return c
	}
}

// WithAdmission regulates injection with a token-bucket source
// regulator: at most cfg.Rate packets per cycle are admitted (bursts up
// to cfg.Burst), refill pauses while the network signals congestion,
// and packets waiting longer than cfg.MaxDelay past their release are
// shed into the Shed bucket — Delivered+Dropped+Shed == Offered stays
// exact. Invalid configurations and duplicate WithAdmission options
// fail eagerly.
func WithAdmission(cfg AdmissionConfig) RunOption {
	return func(c runConfig) runConfig {
		if c.admit {
			c.fail("WithAdmission", "conflicting duplicate option (two admission configs on one run)")
			return c
		}
		switch {
		case cfg.Rate <= 0:
			c.fail("WithAdmission", "Rate must be > 0, got %v", cfg.Rate)
		case cfg.Burst < 0:
			c.fail("WithAdmission", "Burst must be >= 0, got %d", cfg.Burst)
		case cfg.MaxDelay < 0:
			c.fail("WithAdmission", "MaxDelay must be >= 0, got %d", cfg.MaxDelay)
		}
		c.admission = cfg
		c.admit = true
		return c
	}
}

// RunReport is the unified result of RunOpts. The embedded FaultResult
// extends Result; its fault-path counters are zero for runs without
// WithFaults. Events is non-nil only under WithTrace.
type RunReport struct {
	FaultResult
	Events []Event
	// ShardFallback reports that the run asked for several lanes
	// (WithShards(s), s > 1) but ran on one: a recorder keeps the lane
	// kernel at one lane, and faults, tracing, bounded queues or
	// admission control take the fault loop or the general path (the
	// dispatch rule WithShards documents). The run is still correct —
	// the result does not depend on the lane count — but did not use the
	// requested parallelism. Also counted as obs metric "shard_fallback"
	// when a recorder is attached.
	ShardFallback bool
}

// RunOpts generates the workload and runs it under the given options:
// a plain run with none, the fault engine under WithFaults, and the
// event log under WithTrace. Plain unbounded runs take the
// allocation-free lane kernel; fault, bounded, admission-controlled and
// traced runs use their engines. Invalid options and workloads, and a
// packet whose source or destination is not a node of the digraph, fail
// eagerly, before any simulation work, with *OptionError values.
func (nw *Network) RunOpts(w Workload, opts ...RunOption) (RunReport, error) {
	if w == nil {
		return RunReport{}, fmt.Errorf("simnet: RunOpts needs a workload")
	}
	cfg := runConfig{seed: 1}
	for _, opt := range opts {
		cfg = opt(cfg)
	}
	if len(cfg.errs) > 0 {
		return RunReport{}, cfg.errs[0]
	}
	if cfg.shards > nw.g.N() {
		return RunReport{}, &OptionError{Option: "WithShards",
			Reason: fmt.Sprintf("shard count %d exceeds the %d-node digraph", cfg.shards, nw.g.N())}
	}
	if ew, ok := w.(interface{ Err() error }); ok {
		if err := ew.Err(); err != nil {
			return RunReport{}, err
		}
	}
	pkts := w.Packets(nw.g.N(), cfg.seed)
	if err := checkEndpoints(pkts, nw.g.N()); err != nil {
		return RunReport{}, err
	}
	rec := nw.rec
	if cfg.recOverride {
		rec = cfg.rec
		rec.SizeArcs(int(nw.arcBase[nw.g.N()]))
	}
	var admit *admitState
	if cfg.admit {
		admit = newAdmitState(cfg.admission, nw.diameter())
	}

	// A sharded run was requested; whether dispatch honors it is decided
	// below. Every one-lane return past this point is a fallback worth
	// surfacing (RunReport.ShardFallback + the shard_fallback counter).
	shardReq := cfg.shards > 1
	fallback := func(rep RunReport) RunReport {
		if shardReq {
			rep.ShardFallback = true
			rec.ShardFallback()
		}
		return rep
	}

	tun := runTuning{qcap: cfg.qcap, hold: cfg.hold, admit: admit, trace: cfg.traced}
	if cfg.faults {
		res, events, err := nw.runWithFaults(pkts, cfg.plan, tun, rec)
		if err != nil {
			return RunReport{}, err
		}
		return fallback(RunReport{FaultResult: res, Events: events}), nil
	}
	// The lane kernel runs every plain unbounded run without admission or
	// a trace; it spreads one over the requested lanes unless a recorder
	// is attached. Anything else runs one lane or the general path
	// (WithShards documents this).
	sharded := shardReq && rec == nil && tun.qcap == 0 && tun.admit == nil && !tun.trace
	if sharded {
		tun.shards = cfg.shards
	}
	res, events := nw.run(pkts, tun, rec)
	rep := RunReport{FaultResult: FaultResult{Result: res}, Events: events}
	if !sharded {
		rep = fallback(rep)
	}
	return rep, nil
}

// checkEndpoints refuses the first packet whose source or destination is
// not a node of the n-node digraph, as an *OptionError naming the
// workload.
func checkEndpoints(pkts []Packet, n int) error {
	for i, p := range pkts {
		if uint(p.Src) >= uint(n) || uint(p.Dst) >= uint(n) {
			return &OptionError{Option: "Workload", Reason: fmt.Sprintf(
				"packet %d (ID %d) runs %d→%d, outside the %d-node digraph", i, p.ID, p.Src, p.Dst, n)}
		}
	}
	return nil
}
