package simnet

import (
	"fmt"
	"sort"

	"repro/internal/digraph"
	"repro/internal/gossip"
)

// Distributed failure knowledge. The fault-aware router of faultroute.go
// is omniscient: it reads the FaultState — the ground truth of the fault
// plan — directly. The self-healing layer removes that oracle. Nodes
// learn of a downed out-arc only by attempting it and timing out
// (detect), tell the rest of the network by flooding a link-state event
// over whatever arcs still work (disseminate), and route around what
// they have heard (repair). healState is the knowledge side of that
// machinery: who has heard which event.
//
// Knowledge is epoch-structured. Committed events are numbered 1, 2, …
// in commit order, and a node's epoch is the longest contiguous prefix
// of events it has heard (a later event heard out of order does not
// advance the epoch, but does feed the believedDown override so the
// node still avoids the arc). Every node at an epoch routes by the
// residual routing (column.go) of the believed-down set after that
// prefix.

// linkEvent is one committed link-state update: an arc observed down
// (or recovered) by its tail, spreading through the network by flood.
type linkEvent struct {
	arc   Arc
	up    bool
	cycle int // commit cycle (session-absolute)
	// flood tracks which nodes have heard the event; its origin is the
	// observing tail.
	flood *gossip.Flood
	// doneAt is the session cycle the flood completed, -1 while it is
	// still spreading.
	doneAt int
}

// healState holds the distributed knowledge of one self-healing
// session: the committed event log, per-arc suspicion counters, and the
// per-epoch residual routing.
type healState struct {
	g *digraph.Digraph

	events    []linkEvent
	suspicion map[Arc]int

	// epochs[e] is epoch e's residual routing, built on its first
	// routing use (a repair, for e ≥ 1). Epochs are prefix-indexed, so a
	// new event never invalidates an older epoch.
	epochs  []*residual
	repairs int
}

// commit appends a link-state event and starts its flood at the
// observing tail.
func (h *healState) commit(a Arc, up bool, cycle int) error {
	fl, err := gossip.NewFlood(h.g, a.Tail)
	if err != nil {
		return fmt.Errorf("simnet: heal: commit event for arc (%d#%d): %w", a.Tail, a.Index, err)
	}
	ev := linkEvent{arc: a, up: up, cycle: cycle, flood: fl, doneAt: -1}
	if fl.Complete() { // single-node digraph: nothing to spread
		ev.doneAt = cycle
	}
	h.events = append(h.events, ev)
	return nil
}

// stepFloods advances every incomplete flood by one round; live reports
// whether the arc at (tail, index) can carry gossip this cycle.
func (h *healState) stepFloods(cycle int, live func(tail, index int) bool) {
	for i := range h.events {
		ev := &h.events[i]
		if ev.flood.Complete() {
			continue
		}
		ev.flood.Step(live)
		if ev.flood.Complete() && ev.doneAt < 0 {
			ev.doneAt = cycle
		}
	}
}

// heard reports whether node u has heard of any committed event.
func (h *healState) heard(u int) bool {
	for i := range h.events {
		if h.events[i].flood.Informed(u) {
			return true
		}
	}
	return false
}

// knownEpoch returns node u's epoch: the longest contiguous prefix of
// committed events u has heard.
func (h *healState) knownEpoch(u int) int {
	e := 0
	for i := range h.events {
		if !h.events[i].flood.Informed(u) {
			break
		}
		e++
	}
	return e
}

// believedDown reports whether node u currently believes the arc is
// down, judging by the events u has heard (in commit order, the last
// heard event about the arc wins). This is the override that lets a
// node act on knowledge beyond its contiguous epoch — most importantly
// an arc failure it detected itself.
func (h *healState) believedDown(u int, a Arc) bool {
	down := false
	for i := range h.events {
		ev := &h.events[i]
		if ev.arc == a && ev.flood.Informed(u) {
			down = !ev.up
		}
	}
	return down
}

// activeDown reports whether the committed event log, taken in full,
// leaves the arc down — the view a node at the latest epoch holds.
func (h *healState) activeDown(a Arc) bool {
	down := false
	for i := range h.events {
		if h.events[i].arc == a {
			down = !h.events[i].up
		}
	}
	return down
}

// downSet returns the believed-down arcs after the first e events,
// sorted.
func (h *healState) downSet(e int) []Arc {
	down := map[Arc]bool{}
	for i := range h.events[:e] {
		if h.events[i].up {
			delete(down, h.events[i].arc)
		} else {
			down[h.events[i].arc] = true
		}
	}
	return sortedArcs(down)
}

// sortedArcs returns the arcs of a set in (Tail, Index) order.
func sortedArcs(set map[Arc]bool) []Arc {
	out := make([]Arc, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tail != out[j].Tail {
			return out[i].Tail < out[j].Tail
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// converged reports whether every committed event has finished
// flooding: all nodes share the latest epoch.
func (h *healState) converged() bool {
	for i := range h.events {
		if !h.events[i].flood.Complete() {
			return false
		}
	}
	return true
}

// convergedCycle returns the session cycle at which the last flood
// completed (0 when no event was ever committed, -1 when a flood is
// still spreading).
func (h *healState) convergedCycle() int {
	at := 0
	for i := range h.events {
		if h.events[i].doneAt < 0 {
			return -1
		}
		if h.events[i].doneAt > at {
			at = h.events[i].doneAt
		}
	}
	return at
}

// firstEventCycle returns the commit cycle of the first event, or -1.
func (h *healState) firstEventCycle() int {
	if len(h.events) == 0 {
		return -1
	}
	return h.events[0].cycle
}
