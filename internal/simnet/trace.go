package simnet

import (
	"fmt"

	"repro/internal/digraph"
)

// Event tracing: an instrumented run that records every packet movement,
// for debugging routing policies and for verifying that the simulator's
// behaviour matches the declared semantics (tests replay traces against
// the digraph and the router).

// EventKind classifies trace events.
type EventKind int

const (
	// EventInject marks a packet entering its source node's queue.
	EventInject EventKind = iota
	// EventDepart marks a packet leaving a node on a link.
	EventDepart
	// EventArrive marks a packet arriving at a node.
	EventArrive
	// EventDeliver marks final delivery.
	EventDeliver
	// EventReroute marks a forward on an arc other than the primary
	// router's choice (fault-aware runs only); the matching EventDepart
	// follows with the same cycle and peer.
	EventReroute
	// EventDrop marks a packet leaving the simulation undelivered (TTL
	// exhausted, retries exhausted, or lost to a node fault).
	EventDrop
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventInject:
		return "inject"
	case EventDepart:
		return "depart"
	case EventArrive:
		return "arrive"
	case EventDeliver:
		return "deliver"
	case EventReroute:
		return "reroute"
	case EventDrop:
		return "drop"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one trace record.
type Event struct {
	Cycle  int
	Kind   EventKind
	Packet int
	Node   int // location (tail for departures)
	Peer   int // head for departures/arrivals; -1 otherwise
}

// String renders "c=12 depart pkt=3 5→11".
func (e Event) String() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("c=%d %s pkt=%d %d→%d", e.Cycle, e.Kind, e.Packet, e.Node, e.Peer)
	}
	return fmt.Sprintf("c=%d %s pkt=%d @%d", e.Cycle, e.Kind, e.Packet, e.Node)
}

// VerifyTrace checks a trace against the digraph: every depart/arrive
// pair follows an arc, each packet's walk is connected from source to
// destination, reroutes announce a real arc at the packet's position,
// and a dropped packet never moves (or delivers) afterwards. It also
// checks causality: a packet's event cycles never decrease, and each
// arrive is later than the depart before it. The event log of every
// traced run (RunOpts with WithTrace, with or without WithFaults)
// satisfies it.
func VerifyTrace(g *digraph.Digraph, packets []Packet, events []Event) error {
	byPacket := map[int][]Event{}
	for _, e := range events {
		byPacket[e.Packet] = append(byPacket[e.Packet], e)
	}
	for _, p := range packets {
		evs := byPacket[p.ID]
		if len(evs) == 0 {
			continue // dropped or self-delivered without movement
		}
		at := -1
		dropped := false
		last, departed := evs[0].Cycle, -1
		for _, e := range evs {
			if dropped {
				return fmt.Errorf("simnet: packet %d has %v after its drop", p.ID, e.Kind)
			}
			if e.Cycle < last {
				return fmt.Errorf("simnet: packet %d has %v at cycle %d after an event at cycle %d", p.ID, e.Kind, e.Cycle, last)
			}
			last = e.Cycle
			switch e.Kind {
			case EventInject:
				if e.Node != p.Src {
					return fmt.Errorf("simnet: packet %d injected at %d, src %d", p.ID, e.Node, p.Src)
				}
				at = e.Node
			case EventDepart, EventReroute:
				if e.Node != at {
					return fmt.Errorf("simnet: packet %d %vs %d but is at %d", p.ID, e.Kind, e.Node, at)
				}
				if !g.HasArc(e.Node, e.Peer) {
					return fmt.Errorf("simnet: packet %d uses missing arc (%d,%d)", p.ID, e.Node, e.Peer)
				}
				departed = e.Cycle
			case EventArrive:
				if e.Cycle <= departed {
					return fmt.Errorf("simnet: packet %d arrives at cycle %d, not after its depart at %d", p.ID, e.Cycle, departed)
				}
				at = e.Node
			case EventDeliver:
				if e.Node != p.Dst || at != p.Dst {
					return fmt.Errorf("simnet: packet %d delivered at %d (at=%d), dst %d", p.ID, e.Node, at, p.Dst)
				}
			case EventDrop:
				// at == -1 with a drop at the source is a source-side
				// loss: a horizon drop (release beyond the cycle
				// budget), an admission shed, or a queue-full drop of a
				// packet that never won injection capacity. All three
				// leave the packet where it would have entered.
				if e.Node != at && !(at == -1 && e.Node == p.Src) {
					return fmt.Errorf("simnet: packet %d dropped at %d but is at %d", p.ID, e.Node, at)
				}
				dropped = true
			}
		}
	}
	return nil
}
