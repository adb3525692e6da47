package machine

import (
	"testing"

	"repro/internal/optics"
	"repro/internal/simnet"
)

// Lens quarantine: a dead lens's failures concentrate on its breaker
// and trip it, while innocent lenses sharing single beams with it stay
// closed; a transient lens fault walks the breaker through the full
// open → half-open → closed hysteresis loop.

func breakerWorkload(n, waves, stride int) []simnet.Packet {
	var pkts []simnet.Packet
	id := 0
	for w := 0; w < waves; w++ {
		for s := 0; s < n; s += stride {
			for d := 0; d < n; d += stride {
				if s == d {
					continue
				}
				pkts = append(pkts, simnet.Packet{ID: id, Src: s, Dst: d, Release: w * 8})
				id++
			}
		}
	}
	return pkts
}

func TestLensBreakerTripsOnlyTheDeadLens(t *testing.T) {
	m, err := Build(3, 4, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	const deadLens = 2
	plan, err := m.LensFaultPlan(0, 0, deadLens) // permanent
	if err != nil {
		t.Fatal(err)
	}
	breaker, err := NewLensBreaker(m, BreakerConfig{Threshold: 4, Window: 64, HoldBase: 512, HoldCap: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	session, err := m.SelfHeal(plan, simnet.HealConfig{Monitor: breaker})
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(breakerWorkload(m.Nodes(), 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Nacks == 0 {
		t.Fatalf("no NACKs on a permanent lens fault: %v", res)
	}
	states := breaker.States()
	if states[deadLens].State == BreakerClosed {
		t.Fatalf("dead lens %d breaker still closed after %d NACKs", deadLens, res.Nacks)
	}
	for _, st := range states {
		if st.Lens != deadLens && st.State != BreakerClosed {
			t.Fatalf("innocent lens %d (%s) tripped: %+v", st.Lens, st.Side, st)
		}
	}
	trips := breaker.Transitions()
	if len(trips) == 0 || trips[0].Lens != deadLens || trips[0].To != BreakerOpen {
		t.Fatalf("first transition %+v, want lens %d tripping open", trips, deadLens)
	}
}

func TestLensBreakerHalfOpenClosesAfterRecovery(t *testing.T) {
	m, err := Build(3, 4, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	const deadLens = 1
	plan, err := m.LensFaultPlan(0, 120, deadLens) // transient: heals at cycle 120
	if err != nil {
		t.Fatal(err)
	}
	breaker, err := NewLensBreaker(m, BreakerConfig{Threshold: 3, Window: 32, HoldBase: 48, HoldCap: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	session, err := m.SelfHeal(plan, simnet.HealConfig{Monitor: breaker})
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(breakerWorkload(m.Nodes(), 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped != len(res.Packets) {
		t.Fatalf("accounting: delivered %d + dropped %d != offered %d", res.Delivered, res.Dropped, len(res.Packets))
	}
	if breaker.States()[deadLens].State != BreakerClosed {
		t.Fatalf("lens %d breaker %v at end, want closed after the fault healed (transitions %+v)",
			deadLens, breaker.States()[deadLens].State, breaker.Transitions())
	}
	var sawHalfOpen, sawClose bool
	for _, tr := range breaker.Transitions() {
		if tr.Lens != deadLens {
			continue
		}
		if tr.From == BreakerOpen && tr.To == BreakerHalfOpen {
			sawHalfOpen = true
		}
		if tr.From == BreakerHalfOpen && tr.To == BreakerClosed {
			sawClose = true
		}
	}
	if !sawHalfOpen || !sawClose {
		t.Fatalf("hysteresis loop incomplete (halfOpen=%v close=%v): %+v", sawHalfOpen, sawClose, breaker.Transitions())
	}
	if got := session.Quarantined(); len(got) != 0 {
		t.Fatalf("arcs still quarantined after close: %v", got)
	}
}

func TestLensBreakerExponentialHold(t *testing.T) {
	m, err := Build(3, 4, optics.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	breaker, err := NewLensBreaker(m, BreakerConfig{Threshold: 2, Window: 16, HoldBase: 10, HoldCap: 35}, nil)
	if err != nil {
		t.Fatal(err)
	}
	arc, err := m.Layout.LensArcs(0)
	if err != nil {
		t.Fatal(err)
	}
	a := simnet.Arc{Tail: arc[0][0], Index: arc[0][1]}
	// Trip 1 at cycle 0: hold 10.
	breaker.ArcFailed(0, a)
	breaker.ArcFailed(0, a)
	if got := breaker.States()[0]; got.State != BreakerOpen || got.HoldUntil != 10 {
		t.Fatalf("after trip 1: %+v, want open until 10", got)
	}
	// Failed probe re-trips: hold doubles (20), then caps at 35.
	breaker.Tick(10) // open → half-open, emits probe
	breaker.ProbeResult(10, a, false)
	if got := breaker.States()[0]; got.State != BreakerOpen || got.HoldUntil != 10+20 {
		t.Fatalf("after trip 2: %+v, want open until 30", got)
	}
	breaker.Tick(30)
	breaker.ProbeResult(30, a, false)
	if got := breaker.States()[0]; got.State != BreakerOpen || got.HoldUntil != 30+35 {
		t.Fatalf("after trip 3: %+v, want hold capped at 35", got)
	}
	// A successful probe closes and resets the ladder.
	breaker.Tick(65)
	breaker.ProbeResult(65, a, true)
	if got := breaker.States()[0]; got.State != BreakerClosed || got.Trips != 0 {
		t.Fatalf("after successful probe: %+v, want closed with trips reset", got)
	}
}
