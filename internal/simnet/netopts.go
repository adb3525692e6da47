package simnet

import (
	"fmt"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// Network construction behind functional options. A Network fixes what
// every run on it shares — its digraph, its router, the wire time of one
// hop and the cycle budget — and nothing else: a run takes RunOptions,
// a self-healing session its HealConfig, and a recorder is attached with
// Observe.
//
//	nw, err := simnet.NewNetwork(g,
//	        simnet.WithRouting(simnet.ShiftRouting),
//	        simnet.WithHopLatency(2))
//
// Invalid options and combinations fail eagerly with *OptionError
// values, before any table or slab is built.

// RoutingMode selects how a Network routes packets.
type RoutingMode int

const (
	// AutoRouting (the default) picks per graph: congruence-form de
	// Bruijn digraphs above autoShiftNodes vertices route table-free by
	// left shift, everything else gets the shortest-path table.
	AutoRouting RoutingMode = iota
	// TableRouting always builds the shortest-path next-arc slab
	// (NewTableRouter): n² bytes, any strongly-connected digraph.
	TableRouting
	// ShiftRouting routes by the de Bruijn congruence left-shift rule
	// (DeBruijnRouter): O(D) state, one carried int32 per packet, O(D)
	// work when a packet enters and O(1) per hop. WithRouting selects it
	// only on a congruence-form B(d, D) — anything else fails eagerly; a
	// witness router (NewWitnessRouter) supplied through WithRouter
	// shift-routes any digraph certified isomorphic to B(d, D) and
	// reports it too.
	ShiftRouting
	// CustomRouting reports a caller-supplied Router (WithRouter). It is
	// not selectable via WithRouting.
	CustomRouting
)

// String renders the mode name.
func (m RoutingMode) String() string {
	switch m {
	case AutoRouting:
		return "auto"
	case TableRouting:
		return "table"
	case ShiftRouting:
		return "shift"
	case CustomRouting:
		return "custom"
	}
	return fmt.Sprintf("RoutingMode(%d)", int(m))
}

// autoShiftNodes is the AutoRouting crossover: at or below this many
// nodes the n² table still fits comfortably in cache-adjacent memory
// (4096² = 16 MB) and takes at most about half a second to build; above
// it the table-free shift router wins on footprint (and is the only
// option at million-node scale, where the table would need n² ≈ 1 TB).
// Per run the carried shift state costs 0.69–1.12× the table's one-load
// gather (plain permutation, median of 15 interleaved pairs, 2-vCPU
// Xeon, go1.24.0): table vs shift 39 vs 44 µs on B(2,8), 288 vs 313 µs
// on B(2,10), 525 vs 451 µs on B(3,7), 1962 vs 1622 µs on B(2,12) and
// 3821 vs 2653 µs on B(2,13). The table is faster only on the smallest
// graphs (a second set of 15 pairs read 1.22× on B(2,8) and 0.94× on
// B(2,10)), and building it takes 0.6 ms at B(2,8), 85 ms at B(3,7),
// 0.49 s at B(2,12) and 1.9 s at B(2,13), on top of 16 and 64 MiB at
// the last two. Both routers take the same decisions, so the crossover
// moves only time and memory. Per-run time alone would put it near
// 1024 nodes; it stays at 4096, the largest size whose table is still
// cheap to hold and build.
const autoShiftNodes = 4096

// netConfig is the option state of one NewNetwork call.
type netConfig struct {
	cfg       config
	hopSet    bool
	cyclesSet bool
	mode      RoutingMode
	modeSet   bool
	router    Router
	routerSet bool
	errs      []error
}

// fail records an eager option error, surfaced by NewNetwork.
func (c *netConfig) fail(option, format string, args ...any) {
	c.errs = append(c.errs, &OptionError{Option: option, Reason: fmt.Sprintf(format, args...)})
}

// NetworkOption configures one NewNetwork call: WithRouting, WithRouter,
// WithHopLatency or WithMaxCycles.
type NetworkOption func(*netConfig)

// WithRouting selects the routing mode. Only AutoRouting, TableRouting
// and ShiftRouting are selectable (CustomRouting is what WithRouter
// reports); ShiftRouting on a digraph that is not a congruence-form
// de Bruijn B(d, D) fails eagerly at NewNetwork. Duplicate WithRouting
// options conflict, as does combining WithRouting with WithRouter.
func WithRouting(mode RoutingMode) NetworkOption {
	return func(c *netConfig) {
		if c.modeSet {
			c.fail("WithRouting", "conflicting duplicate option (two routing modes on one network)")
			return
		}
		switch mode {
		case AutoRouting, TableRouting, ShiftRouting:
		case CustomRouting:
			c.fail("WithRouting", "CustomRouting is not selectable; pass the router itself via WithRouter")
			return
		default:
			c.fail("WithRouting", "unknown routing mode %d", int(mode))
			return
		}
		c.mode = mode
		c.modeSet = true
	}
}

// WithRouter supplies the Router directly, bypassing mode selection
// (Routing() reports the mode the router implies: TableRouting for a
// *TableRouter, ShiftRouting for a *DeBruijnRouter, CustomRouting
// otherwise). A nil router and duplicate WithRouter options fail
// eagerly, as does combining WithRouter with WithRouting.
func WithRouter(r Router) NetworkOption {
	return func(c *netConfig) {
		if c.routerSet {
			c.fail("WithRouter", "conflicting duplicate option (two routers on one network)")
			return
		}
		if r == nil {
			c.fail("WithRouter", "router must not be nil")
			return
		}
		c.router = r
		c.routerSet = true
	}
}

// WithHopLatency sets the wire time of one hop in cycles (default 1).
// Latencies below 1 fail eagerly.
func WithHopLatency(cycles int) NetworkOption {
	return func(c *netConfig) {
		if c.hopSet {
			c.fail("WithHopLatency", "conflicting duplicate option (two hop latencies on one network)")
			return
		}
		if cycles < 1 {
			c.fail("WithHopLatency", "hop latency must be >= 1 cycle, got %d", cycles)
			return
		}
		c.cfg.HopLatency = cycles
		c.hopSet = true
	}
}

// WithMaxCycles caps every run of the network at the given cycle budget
// (0 keeps the generous per-run default). Negative budgets fail eagerly.
func WithMaxCycles(cycles int) NetworkOption {
	return func(c *netConfig) {
		if c.cyclesSet {
			c.fail("WithMaxCycles", "conflicting duplicate option (two cycle budgets on one network)")
			return
		}
		if cycles < 0 {
			c.fail("WithMaxCycles", "cycle budget must be >= 0, got %d", cycles)
			return
		}
		c.cfg.MaxCycles = cycles
		c.cyclesSet = true
	}
}

// routingModeOf reports the mode a concrete router implies.
func routingModeOf(r Router) RoutingMode {
	switch r.(type) {
	case *TableRouter:
		return TableRouting
	case *DeBruijnRouter:
		return ShiftRouting
	}
	return CustomRouting
}

// NewNetwork creates a network simulation over g, configured by
// functional options. With no options it has unit hop latency and the
// generous default cycle budget, and routes by the shortest-path table
// (NewTableRouter) on small graphs and table-free on large
// congruence-form de Bruijn graphs (AutoRouting). All validation is
// eager: the first invalid option or combination is returned as an
// *OptionError before any routing table is built.
func NewNetwork(g *digraph.Digraph, opts ...NetworkOption) (*Network, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("simnet: empty digraph")
	}
	nc := netConfig{cfg: config{HopLatency: 1}}
	for _, o := range opts {
		o(&nc)
	}
	if nc.routerSet && nc.modeSet {
		nc.fail("WithRouter", "conflicts with WithRouting (the supplied router fixes the routing mode)")
	}
	if len(nc.errs) > 0 {
		return nil, nc.errs[0]
	}

	var router Router
	switch {
	case nc.routerSet:
		router = nc.router
	case nc.mode == TableRouting:
		router = NewTableRouter(g)
	case nc.mode == ShiftRouting:
		d, D, ok := debruijn.Recognize(g)
		if !ok {
			return nil, &OptionError{Option: "WithRouting(ShiftRouting)",
				Reason: "digraph is not a congruence-form de Bruijn B(d, D); shift routing reads congruence labels"}
		}
		router = NewDeBruijnRouter(d, D)
	default: // AutoRouting
		if d, D, ok := debruijn.Recognize(g); ok && g.N() > autoShiftNodes {
			router = NewDeBruijnRouter(d, D)
		} else {
			router = NewTableRouter(g)
		}
	}
	return newNetwork(g, router, nc.cfg), nil
}

// Routing reports the network's resolved routing mode: TableRouting or
// ShiftRouting for the built-in routers (however the network was
// constructed — AutoRouting resolves at NewNetwork and is never
// reported), CustomRouting for a caller-supplied Router.
func (nw *Network) Routing() RoutingMode { return routingModeOf(nw.router) }
