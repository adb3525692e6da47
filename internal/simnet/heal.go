package simnet

import (
	"fmt"

	"repro/internal/obs"
)

// Self-healing sessions. A fault run (WithFaults) hands its router the
// compiled FaultState — an oracle no real network has. A SelfHealing
// session runs the same cycle loop (faultLoop) with the oracle removed:
// the fault plan is consulted only as physical truth (does this
// transmission succeed? is this node alive?), never as routing input.
// Everything the control plane knows it learned the hard way:
//
//   - detect: a transmission onto a downed arc fails; the sender times
//     out (detectLatency cycles), bumps a per-arc suspicion counter,
//     and after suspectThreshold consecutive failures commits a
//     link-down event — local knowledge, at the tail only;
//   - disseminate: each committed event floods the network one
//     all-port round per cycle over the arcs that still work
//     (gossip.Flood), piggybacked on the cycle loop. Nodes at a stale
//     epoch keep routing into dead arcs and pay more timeouts;
//   - repair: a node at epoch e routes by shortest paths around the
//     believed-down set of its epoch, per destination on first use
//     (SelfHealing.route) — never an all-pairs table;
//   - recover: tails probe their believed-down out-arcs every
//     probeInterval cycles; a probe that succeeds commits a link-up
//     event that floods the same way.
//
// A HealMonitor (the machine layer's lens circuit breaker) can
// additionally quarantine arc groups: quarantined arcs are refused at
// departure without a physical attempt, and half-open probe results are
// fed back to the monitor.
//
// The session outlives a single Run: the clock, the event log and the
// epoch routing persist, so a second Run on the same session starts with
// everything the network already learned — the converged regime the
// claim tests compare against the omniscient router.

// HealMonitor observes per-arc transmission outcomes of a self-healing
// run and may quarantine arc groups (a circuit breaker). All calls are
// made from the run loop, single-threaded, with session-absolute
// cycles.
type HealMonitor interface {
	// ArcFailed reports a failed transmission attempt (NACK) on arc.
	ArcFailed(cycle int, arc Arc)
	// ArcOK reports a successful transmission on arc.
	ArcOK(cycle int, arc Arc)
	// Tick runs once per cycle before routing. Arcs in quarantine stop
	// carrying traffic until they appear in release; arcs in probe get
	// one half-open probe each, answered via ProbeResult.
	Tick(cycle int) (quarantine, release, probe []Arc)
	// ProbeResult answers a probe requested by Tick: ok reports whether
	// the arc is physically up.
	ProbeResult(cycle int, arc Arc, ok bool)
}

// HealConfig is what a self-healing session sets for itself: the queue
// bound and hold budget of its Runs, and an optional monitor. The zero
// value runs unbounded queues with no monitor; negative fields are
// invalid. Hop latency and the cycle budget of each Run come from the
// Network (WithHopLatency, WithMaxCycles), and the TTL, the retry
// ladder, detection and probing are fixed: a failed attempt times out
// for 2 cycles, 2 failures on an arc commit a link-down event, and tails
// probe believed-down arcs every 16 cycles.
type HealConfig struct {
	// QueueCapacity bounds each node's hold queue at QueueCapacity
	// packets per out-arc (0: unbounded). A full downstream node is not
	// forwarded to: the packet holds in place upstream (credit-based
	// backpressure) until space opens or its hold budget runs out.
	QueueCapacity int
	// HoldBudget is the lifetime number of hold-in-place cycles a packet
	// may spend against full downstream nodes before dropping as
	// DroppedQueueFull (0: 4·QueueCapacity+16).
	HoldBudget int
	// Monitor, when non-nil, is consulted every cycle and may
	// quarantine arc groups (see HealMonitor).
	Monitor HealMonitor
}

// The control plane's fixed timing: the timeout a sender pays for a
// failed transmission attempt before the packet may try again (the
// stand-in for a NACK round trip), how many failed attempts on an
// out-arc its tail accumulates before committing a link-down event, and
// how often (in cycles) tails probe believed-down out-arcs for
// recovery.
const (
	detectLatency    = 2
	suspectThreshold = 2
	probeInterval    = 16
)

// validate reports the first negative field of c as an *OptionError
// naming SelfHeal.
func (c HealConfig) validate() error {
	var reason string
	switch {
	case c.QueueCapacity < 0:
		reason = fmt.Sprintf("QueueCapacity must be >= 0, got %d", c.QueueCapacity)
	case c.HoldBudget < 0:
		reason = fmt.Sprintf("HoldBudget must be >= 0, got %d", c.HoldBudget)
	default:
		return nil
	}
	return &OptionError{Option: "SelfHeal", Reason: reason}
}

// HealResult extends FaultResult with the control-plane accounting of
// one Run. The FaultResult invariants hold unchanged: Delivered +
// Dropped == Offered on every run, including truncated ones.
type HealResult struct {
	FaultResult
	// Nacks counts failed transmission attempts (the detection signal).
	Nacks int
	// Detections counts link-down events committed by suspicion.
	Detections int
	// EventsCommitted counts all link-state events committed this Run,
	// down and recovery alike.
	EventsCommitted int
	// Repairs counts the epochs past 0 whose routing the session has
	// built so far: one per epoch, on its first routing use.
	Repairs int
	// Probes counts recovery and half-open probes sent this Run.
	Probes int
	// FinalEpoch is the session's committed event count after the Run.
	FinalEpoch int
	// Converged reports whether every committed event has finished
	// flooding — all nodes hold the latest epoch.
	Converged bool
	// ConvergedCycle is the session cycle the last flood completed (0
	// when no event was ever committed, -1 while still spreading).
	ConvergedCycle int
}

// String renders the headline numbers.
func (r HealResult) String() string {
	return fmt.Sprintf("%v nacks=%d detections=%d events=%d repairs=%d probes=%d epoch=%d converged=%v@%d",
		r.FaultResult, r.Nacks, r.Detections, r.EventsCommitted, r.Repairs, r.Probes,
		r.FinalEpoch, r.Converged, r.ConvergedCycle)
}

// SelfHealing is a live self-healing session over a network and a fault
// plan. Create one with Network.SelfHeal, then call Run one or more
// times; the session clock, event log, suspicion counters and epoch
// routing persist across Runs.
type SelfHealing struct {
	nw    *Network
	state *FaultState
	heal  *healState
	cfg   HealConfig
	clock int

	// faultFree ranks deflections by the router's fault-free distance;
	// the session owns it.
	faultFree distSource

	quarantined map[Arc]bool
}

// SelfHeal compiles the plan and opens a self-healing session. The
// plan is physical truth only — no routing decision ever reads it. A
// negative cfg field fails with an *OptionError before anything runs.
// The session records into the recorder attached with Observe.
func (nw *Network) SelfHeal(plan *FaultPlan, cfg HealConfig) (*SelfHealing, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	state, err := plan.compile(nw.g, nw.arcBase)
	if err != nil {
		return nil, err
	}
	return &SelfHealing{
		nw:          nw,
		state:       state,
		heal:        &healState{g: nw.g, suspicion: map[Arc]int{}},
		cfg:         cfg,
		faultFree:   distSource{g: nw.g, router: nw.router},
		quarantined: map[Arc]bool{},
	}, nil
}

// Cycle returns the session clock: the first cycle the next Run will
// simulate.
func (s *SelfHealing) Cycle() int { return s.clock }

// Epoch returns the number of committed link-state events.
func (s *SelfHealing) Epoch() int { return len(s.heal.events) }

// Converged reports whether every committed event has finished
// flooding.
func (s *SelfHealing) Converged() bool { return s.heal.converged() }

// BelievedDown returns the arcs the latest epoch holds down, sorted.
func (s *SelfHealing) BelievedDown() []Arc { return s.heal.downSet(len(s.heal.events)) }

// Quarantined returns the currently quarantined arcs, sorted.
func (s *SelfHealing) Quarantined() []Arc { return sortedArcs(s.quarantined) }

// Run simulates the workload under the session. Packet releases are
// relative to the session clock (a packet with Release 0 injects on the
// first cycle of this Run); Delivered cycles and latency aggregates are
// likewise Run-relative, while ConvergedCycle and monitor callbacks use
// session-absolute cycles. The fault plan's Start cycles are
// session-absolute.
func (s *SelfHealing) Run(packets []Packet) (HealResult, error) {
	if err := checkEndpoints(packets, s.nw.g.N()); err != nil {
		return HealResult{}, err
	}
	tun := runTuning{qcap: s.cfg.QueueCapacity, hold: s.cfg.HoldBudget}
	res, _, err := s.nw.faultLoop(packets, s.state, s, tun, s.nw.rec)
	if err != nil {
		return res, err
	}
	h := s.heal
	res.FinalEpoch = len(h.events)
	res.Repairs = h.repairs
	res.Converged = h.converged()
	res.ConvergedCycle = h.convergedCycle()
	if res.Converged && len(h.events) > 0 {
		s.nw.rec.ConvergeCycles(int64(res.ConvergedCycle - h.firstEventCycle()))
	}
	return res, nil
}

// tick runs the control plane at the top of session cycle abs, before
// any packet moves: circuit-breaker transitions and half-open probes,
// recovery probes (tails test their believed-down out-arcs; a probe that
// succeeds commits a link-up event), then one gossip round of every
// in-flight link-state flood.
func (s *SelfHealing) tick(abs int, res *HealResult, rec *obs.Recorder) error {
	h := s.heal
	if mon := s.cfg.Monitor; mon != nil {
		quarantine, release, probe := mon.Tick(abs)
		for _, a := range quarantine {
			s.quarantined[a] = true
		}
		for _, a := range release {
			delete(s.quarantined, a)
		}
		for _, a := range probe {
			res.Probes++
			rec.Probe()
			mon.ProbeResult(abs, a, !s.state.ArcDown(a.Tail, a.Index))
		}
	}
	if abs > 0 && abs%probeInterval == 0 {
		for _, a := range h.downSet(len(h.events)) {
			res.Probes++
			rec.Probe()
			if !s.state.ArcDown(a.Tail, a.Index) {
				if err := h.commit(a, true, abs); err != nil {
					return err
				}
				res.EventsCommitted++
				rec.HealEvent()
			}
		}
	}
	h.stepFloods(abs, s.gossipLive)
	return nil
}

// gossipLive reports physical arc liveness for flood steps: link-state
// updates travel only over arcs that actually work.
func (s *SelfHealing) gossipLive(tail, index int) bool { return !s.state.ArcDown(tail, index) }

// nack accounts a failed transmission on arc a at session cycle abs: the
// monitor hears of it, the tail's suspicion of the arc grows, and at
// suspectThreshold consecutive failures the tail commits a link-down
// event.
func (s *SelfHealing) nack(a Arc, abs int, res *HealResult, rec *obs.Recorder) error {
	h := s.heal
	res.Nacks++
	rec.Nack()
	if mon := s.cfg.Monitor; mon != nil {
		mon.ArcFailed(abs, a)
	}
	h.suspicion[a]++
	if h.suspicion[a] >= suspectThreshold && !h.activeDown(a) {
		if err := h.commit(a, false, abs); err != nil {
			return err
		}
		delete(h.suspicion, a)
		res.Detections++
		res.EventsCommitted++
		rec.Detect()
		rec.HealEvent()
	}
	return nil
}

// transmitted accounts a successful transmission on arc a at session
// cycle abs: the arc's suspicion resets and the monitor hears it is OK.
func (s *SelfHealing) transmitted(a Arc, abs int) {
	delete(s.heal.suspicion, a)
	if mon := s.cfg.Monitor; mon != nil {
		mon.ArcOK(abs, a)
	}
}

// routeArc is the self-healed routing decision at node u for dst: the
// routing of u's epoch, overridden by directly-observed failures and
// quarantines, with distance-ranked deflection as the fallback.
func (s *SelfHealing) routeArc(u, dst int, rec *obs.Recorder) int {
	h := s.heal
	usable := func(k int) bool {
		a := Arc{Tail: u, Index: k}
		return !s.quarantined[a] && !h.believedDown(u, a)
	}
	arc := s.route(h.knownEpoch(u), u, dst, rec)
	if arc >= 0 && usable(arc) {
		return arc
	}
	// The epoch's choice is believed dead or quarantined (or dst is
	// unreachable at this epoch): deflect onto the best usable out-arc
	// by fault-free distance, as the router answers it; the TTL and
	// retry budgets bound the dodge.
	return deflect(s.nw.g, u, arc, usable, func(v int) int32 { return s.faultFree.dist(v, dst) })
}

// route returns the arc node u ≠ dst forwards on toward dst at epoch e
// (-1: unreachable): the epoch's residual routing, or on a table-routed
// network at epoch 0 the table itself.
func (s *SelfHealing) route(e, u, dst int, rec *obs.Recorder) int {
	nw, h := s.nw, s.heal
	if tr, ok := nw.router.(*TableRouter); ok && e == 0 {
		return tr.NextArc(u, dst)
	}
	for len(h.epochs) <= e {
		h.epochs = append(h.epochs, nil)
	}
	if h.epochs[e] == nil {
		// Epoch i is dead once events 1..i+1 have reached every node.
		for i := 0; i < e && h.events[i].flood.Complete(); i++ {
			h.epochs[i] = nil
		}
		h.epochs[e] = newResidual(nw.g, nw.arcBase, h.downSet(e))
		if e > 0 {
			h.repairs++
			rec.RepairSlabBuild()
		}
	}
	return h.epochs[e].route(nw.shift, u, dst)
}
