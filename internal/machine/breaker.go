package machine

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Lens quarantine. In a free-space optical machine the physically
// likely failure is not one beam but one lens — a whole arc group dying
// together. The simnet self-healing layer detects and repairs per arc;
// the machine layer knows the correlation structure and can do better:
// a circuit breaker per lens that watches per-arc transmission failures
// roll up by lens, trips the whole group after Threshold failures
// inside a sliding Window, holds it quarantined with exponential
// backoff, and re-admits it through a half-open probe. While a lens is
// quarantined no packet attempts its arcs at all — the senders stop
// paying the detection timeout on every beam of a dead lens.

// BreakerState is a lens circuit breaker phase.
type BreakerState int

const (
	// BreakerClosed: the lens carries traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the lens is quarantined; no traffic, waiting out the
	// hold.
	BreakerOpen
	// BreakerHalfOpen: the hold expired; one probe decides between
	// closing and re-opening with a doubled hold.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig tunes the lens circuit breaker. The zero value selects
// defaults.
type BreakerConfig struct {
	// Threshold is how many arc failures within Window trip the lens
	// (0: 4).
	Threshold int
	// Window is the sliding failure window in cycles (0: 64).
	Window int
	// HoldBase is the first quarantine hold in cycles (0: 128); each
	// consecutive trip doubles it, up to HoldCap (0: 2048).
	HoldBase int
	HoldCap  int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold < 1 {
		c.Threshold = 4
	}
	if c.Window < 1 {
		c.Window = 64
	}
	if c.HoldBase < 1 {
		c.HoldBase = 128
	}
	if c.HoldCap < 1 {
		c.HoldCap = 2048
	}
	return c
}

// BreakerTransition is one state change of one lens breaker, for
// reporting and tests.
type BreakerTransition struct {
	Cycle int
	Lens  int
	From  BreakerState
	To    BreakerState
}

// LensBreakerStatus is the reportable state of one lens breaker.
type LensBreakerStatus struct {
	Lens      int
	Side      string // "tx" or "rx"
	State     BreakerState
	Trips     int
	HoldUntil int // meaningful while Open
}

// lensSlot is the mutable per-lens breaker state.
type lensSlot struct {
	state     BreakerState
	fails     []int // failure cycles inside the sliding window
	trips     int   // consecutive trips since the last close
	holdUntil int
}

// LensBreaker is a per-lens circuit breaker implementing
// simnet.HealMonitor over a machine's OTIS lens groups. Every arc
// failure is charged to both lenses it crosses (its transmitter- and
// receiver-side lens); the OTIS transpose spreads one lens's beams
// across all lenses of the other side, so only a lens that is actually
// dying accumulates failures fast enough to trip (with Threshold ≥ 2),
// while innocent lenses sharing single arcs with it stay below
// threshold.
type LensBreaker struct {
	cfg    BreakerConfig
	rec    *obs.Recorder
	p      int // transmitter-side lens count (side boundary)
	groups [][]simnet.Arc
	// lensesOf maps each arc to its [tx, rx] lens pair.
	lensesOf map[simnet.Arc][2]int
	slots    []lensSlot

	pendingQuarantine []simnet.Arc
	pendingRelease    []simnet.Arc
	transitions       []BreakerTransition
}

// NewLensBreaker builds a breaker over every lens of the machine. rec
// may be nil (uninstrumented); when set, trips, half-opens and closes
// are counted into the quarantine_* metrics.
func NewLensBreaker(m *Machine, cfg BreakerConfig, rec *obs.Recorder) (*LensBreaker, error) {
	lenses := m.Lenses()
	b := &LensBreaker{
		cfg:      cfg.withDefaults(),
		rec:      rec,
		p:        m.Layout.P(),
		groups:   make([][]simnet.Arc, lenses),
		lensesOf: map[simnet.Arc][2]int{},
		slots:    make([]lensSlot, lenses),
	}
	for lens := 0; lens < lenses; lens++ {
		arcs, err := m.Layout.LensArcs(lens)
		if err != nil {
			return nil, fmt.Errorf("machine: breaker: lens %d: %w", lens, err)
		}
		group := make([]simnet.Arc, len(arcs))
		for i, a := range arcs {
			arc := simnet.Arc{Tail: a[0], Index: a[1]}
			group[i] = arc
			pair := b.lensesOf[arc]
			if lens < b.p {
				pair[0] = lens
			} else {
				pair[1] = lens
			}
			b.lensesOf[arc] = pair
		}
		b.groups[lens] = group
	}
	return b, nil
}

// ArcFailed implements simnet.HealMonitor: charge the failure to both
// lenses the arc crosses and trip any that reach threshold.
func (b *LensBreaker) ArcFailed(cycle int, arc simnet.Arc) {
	pair, ok := b.lensesOf[arc]
	if !ok {
		return
	}
	for _, lens := range []int{pair[0], pair[1]} {
		slot := &b.slots[lens]
		if slot.state != BreakerClosed {
			continue
		}
		slot.fails = append(slot.fails, cycle)
		keep := slot.fails[:0]
		for _, c := range slot.fails {
			if c > cycle-b.cfg.Window {
				keep = append(keep, c)
			}
		}
		slot.fails = keep
		if len(slot.fails) >= b.cfg.Threshold {
			b.trip(cycle, lens)
		}
	}
}

// ArcOK implements simnet.HealMonitor. A success is no evidence about
// the rest of the lens's beams, so it only ages the window (which
// ArcFailed prunes anyway); nothing to do.
func (b *LensBreaker) ArcOK(cycle int, arc simnet.Arc) {}

// trip opens the lens: quarantine its whole group with an exponential
// hold.
func (b *LensBreaker) trip(cycle, lens int) {
	slot := &b.slots[lens]
	from := slot.state
	slot.state = BreakerOpen
	slot.trips++
	hold := b.cfg.HoldBase
	for i := 1; i < slot.trips && hold < b.cfg.HoldCap; i++ {
		//lint:ignore overflowguard hold < HoldCap on entry, so the product is ≤ 2·HoldCap and capped below
		hold *= 2
	}
	if hold > b.cfg.HoldCap {
		hold = b.cfg.HoldCap
	}
	slot.holdUntil = cycle + hold
	slot.fails = slot.fails[:0]
	b.pendingQuarantine = append(b.pendingQuarantine, b.groups[lens]...)
	b.transitions = append(b.transitions, BreakerTransition{Cycle: cycle, Lens: lens, From: from, To: BreakerOpen})
	b.rec.QuarantineTrip()
}

// Tick implements simnet.HealMonitor: deliver buffered quarantine and
// release requests, and move expired holds to half-open with one probe
// arc each.
func (b *LensBreaker) Tick(cycle int) (quarantine, release, probe []simnet.Arc) {
	quarantine = b.pendingQuarantine
	release = b.pendingRelease
	b.pendingQuarantine = nil
	b.pendingRelease = nil
	for lens := range b.slots {
		slot := &b.slots[lens]
		if slot.state == BreakerOpen && cycle >= slot.holdUntil {
			slot.state = BreakerHalfOpen
			probe = append(probe, b.groups[lens][0])
			b.transitions = append(b.transitions, BreakerTransition{Cycle: cycle, Lens: lens, From: BreakerOpen, To: BreakerHalfOpen})
			b.rec.QuarantineHalfOpen()
		}
	}
	return quarantine, release, probe
}

// ProbeResult implements simnet.HealMonitor: a half-open probe closes
// the lens (releasing its group) or re-opens it with a doubled hold.
func (b *LensBreaker) ProbeResult(cycle int, arc simnet.Arc, ok bool) {
	for lens := range b.slots {
		slot := &b.slots[lens]
		if slot.state != BreakerHalfOpen || b.groups[lens][0] != arc {
			continue
		}
		if ok {
			slot.state = BreakerClosed
			slot.trips = 0
			b.pendingRelease = append(b.pendingRelease, b.groups[lens]...)
			b.transitions = append(b.transitions, BreakerTransition{Cycle: cycle, Lens: lens, From: BreakerHalfOpen, To: BreakerClosed})
			b.rec.QuarantineClose()
			continue
		}
		b.trip(cycle, lens)
	}
}

// States returns the reportable state of every lens breaker.
func (b *LensBreaker) States() []LensBreakerStatus {
	out := make([]LensBreakerStatus, len(b.slots))
	for lens := range b.slots {
		slot := &b.slots[lens]
		side := "tx"
		if lens >= b.p {
			side = "rx"
		}
		out[lens] = LensBreakerStatus{
			Lens: lens, Side: side, State: slot.state,
			Trips: slot.trips, HoldUntil: slot.holdUntil,
		}
	}
	return out
}

// Transitions returns the state-change log in order.
func (b *LensBreaker) Transitions() []BreakerTransition {
	out := make([]BreakerTransition, len(b.transitions))
	copy(out, b.transitions)
	return out
}

// SelfHeal opens a self-healing session on the machine's simulator: the
// plan is physical truth only, and routing recovers by detection,
// gossip and per-epoch route repair (see simnet.SelfHealing). Wire a
// LensBreaker in via cfg.Monitor for lens quarantine.
func (m *Machine) SelfHeal(plan *simnet.FaultPlan, cfg simnet.HealConfig) (*simnet.SelfHealing, error) {
	return m.net.SelfHeal(plan, cfg)
}
