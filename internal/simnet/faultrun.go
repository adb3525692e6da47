package simnet

import (
	"fmt"

	"repro/internal/obs"
)

// The fault-aware run loop, shared by fault runs (RunOpts with
// WithFaults) and self-healing sessions. Structurally a
// store-and-forward simulation like a plain run, with three changes that
// make it survive a hostile fault schedule instead of deadlocking:
//
//   - routing decisions are re-taken at departure time (not enqueue
//     time) — by a FaultAwareRouter, or by a session's epoch routing — so
//     a packet never commits to a link that has died while it was
//     queued;
//   - a packet that finds no live useful out-arc is requeued with
//     exponential backoff a bounded number of times (transient faults
//     heal; permanent ones eventually exhaust the retries) and then
//     dropped with explicit accounting;
//   - every packet carries a TTL (hop budget) so deflections under heavy
//     transient faulting cannot loop forever.
//
// Every loss path increments a named counter, and the exit path drains
// whatever the cycle budget stranded (queued, in flight on a link, or
// never injected because its release lay beyond the horizon), so
// Delivered + Dropped == Offered holds unconditionally — the invariant
// the property tests exercise with adversarial release schedules.

// FaultConfig tunes a fault run (WithFaultConfig). The zero value
// selects defaults; negative fields are invalid (validate).
type FaultConfig struct {
	// HopLatency is the wire time of one hop in cycles (0: the
	// Network's, WithHopLatency).
	HopLatency int
	// MaxCycles aborts the run (0: the Network's, WithMaxCycles, and
	// when that is 0 too, a generous bound).
	MaxCycles int
	// TTL is the per-packet hop budget (0: 4·diameter+8, or 2n when the
	// digraph is not strongly connected).
	TTL int
	// MaxRetries bounds how often a packet with no live out-arc is
	// requeued before it is dropped (0: 8).
	MaxRetries int
	// BackoffBase is the first retry delay in cycles (0: 1); successive
	// retries double it up to BackoffCap (0: 64).
	BackoffBase int
	BackoffCap  int
	// BackoffJitterSeed decorrelates the retry ladder with deterministic
	// per-(packet, attempt) jitter over [delay/2, delay] (0: no jitter —
	// the exact historical ladder).
	BackoffJitterSeed int64
	// QueueCapacity bounds each node's hold queue at QueueCapacity
	// packets per out-arc (0: unbounded; a per-run WithQueueCapacity
	// wins). A full downstream node is not forwarded to: the packet holds
	// in place upstream (credit-based backpressure) until space opens or
	// its hold budget runs out.
	QueueCapacity int
	// HoldBudget is the lifetime number of hold-in-place cycles a packet
	// may spend against full downstream nodes before dropping as
	// DroppedQueueFull (0: 4·QueueCapacity+16, from the bound the run
	// takes; a per-run WithHoldBudget wins).
	HoldBudget int
}

// validate reports the first negative field of c as an *OptionError
// naming option; zero fields select their documented defaults.
func (c FaultConfig) validate(option string) error {
	var reason string
	switch {
	case c.HopLatency < 0:
		reason = fmt.Sprintf("HopLatency must be >= 0, got %d", c.HopLatency)
	case c.MaxCycles < 0:
		reason = fmt.Sprintf("MaxCycles must be >= 0, got %d", c.MaxCycles)
	case c.TTL < 0:
		reason = fmt.Sprintf("TTL must be >= 0 (0 selects the default), got %d", c.TTL)
	case c.MaxRetries < 0:
		reason = fmt.Sprintf("MaxRetries must be >= 0, got %d", c.MaxRetries)
	case c.BackoffBase < 0 || c.BackoffCap < 0:
		reason = fmt.Sprintf("backoff base/cap must be >= 0, got %d/%d", c.BackoffBase, c.BackoffCap)
	case c.QueueCapacity < 0:
		reason = fmt.Sprintf("QueueCapacity must be >= 0, got %d", c.QueueCapacity)
	case c.HoldBudget < 0:
		reason = fmt.Sprintf("HoldBudget must be >= 0, got %d", c.HoldBudget)
	default:
		return nil
	}
	return &OptionError{Option: option, Reason: reason}
}

// faultConfig resolves the tuning of a fault run or a self-healing
// session on nw: a field c sets explicitly wins, a zero HopLatency or
// MaxCycles takes the Network's, and withDefaults fills the rest.
func (nw *Network) faultConfig(c FaultConfig, diameter int) FaultConfig {
	if c.HopLatency < 1 {
		c.HopLatency = nw.cfg.HopLatency
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = nw.cfg.MaxCycles
	}
	return c.withDefaults(nw.g.N(), diameter)
}

func (c FaultConfig) withDefaults(n, diameter int) FaultConfig {
	if c.HopLatency < 1 {
		c.HopLatency = 1
	}
	if c.TTL < 1 {
		if diameter >= 0 {
			c.TTL = 4*diameter + 8
		} else {
			c.TTL = 2 * n
		}
	}
	if c.MaxRetries < 1 {
		c.MaxRetries = 8
	}
	if c.BackoffBase < 1 {
		c.BackoffBase = 1
	}
	if c.BackoffCap < 1 {
		c.BackoffCap = 64
	}
	if c.QueueCapacity > 0 && c.HoldBudget < 1 {
		c.HoldBudget = 4*c.QueueCapacity + 16
	}
	return c
}

// FaultResult extends Result with the fault-path accounting. Dropped is
// the sum of every Dropped* bucket (including the embedded Result's
// DroppedQueueFull) plus Stuck, and Delivered + Dropped + Shed equals
// the offered packet count on every run, even one cut short by
// MaxCycles.
type FaultResult struct {
	Result
	// Reroutes counts forwards on an arc other than the primary
	// router's choice (residual reroutes and deflections).
	Reroutes int
	// Retries counts backoff requeues of packets that found no live
	// useful out-arc.
	Retries int
	// DroppedTTL, DroppedNoRoute and DroppedFault break Dropped down:
	// hop budget exhausted; retries exhausted with no live route; lost
	// in flight to a node fault at the arrival end.
	DroppedTTL     int
	DroppedNoRoute int
	DroppedFault   int
	// DroppedHorizon counts packets whose Release lay beyond the cycle
	// budget: never injected, dropped at their source when the run ends.
	// (Historically these leaked from the accounting entirely.)
	DroppedHorizon int
	// Stuck counts packets stranded in a queue or on a link when
	// MaxCycles ran out (0 on any completed run). Stuck packets are
	// dropped at exit and included in Dropped.
	Stuck int
}

// String renders the headline numbers; safe when nothing was delivered.
func (r FaultResult) String() string {
	return fmt.Sprintf("%v reroutes=%d retries=%d dropTTL=%d dropNoRoute=%d dropFault=%d dropHorizon=%d dropQueueFull=%d shed=%d stuck=%d",
		r.Result, r.Reroutes, r.Retries, r.DroppedTTL, r.DroppedNoRoute, r.DroppedFault, r.DroppedHorizon, r.DroppedQueueFull, r.Shed, r.Stuck)
}

// DeliveredFraction returns Delivered over the offered packet count, 0
// when nothing was offered (never NaN). Since every packet is either
// delivered, dropped or shed, the offered count is their sum.
func (r FaultResult) DeliveredFraction() float64 {
	offered := r.Delivered + r.Dropped + r.Shed
	if offered == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(offered)
}

// pktMeta is the per-packet run bookkeeping: the retry budget state and
// the hold-in-place budget spent against full bounded queues.
type pktMeta struct {
	retries int
	readyAt int
	holds   int
}

// runWithFaults runs the fault loop under the oracle routing policy.
func (nw *Network) runWithFaults(packets []Packet, plan *FaultPlan, cfg FaultConfig, traced bool, admit *admitState, rec *obs.Recorder) (FaultResult, []Event, error) {
	state, err := plan.Compile(nw.g)
	if err != nil {
		return FaultResult{}, nil, err
	}
	cfg = nw.faultConfig(cfg, nw.diameter())
	res, events, err := nw.faultLoop(packets, state, nil, cfg, traced, admit, rec)
	return res.FaultResult, events, err
}

// faultLoop is the cycle loop of both the fault engine and self-healing
// sessions; cfg is already defaulted. The routing policy is chosen by s:
//
//   - s == nil is the oracle. Departures route by a FaultAwareRouter over
//     the compiled FaultState, which never picks a downed arc, so every
//     transmission succeeds.
//   - s != nil is a self-healing session. The FaultState is physical
//     truth only: each cycle opens with the session's control-plane tick
//     (monitor, recovery probes, gossip), departures route by the epoch
//     of the node's knowledge (routeArc), and a transmission onto a
//     physically-down arc fails as a NACK that feeds detection. Cycles
//     are session-absolute (the Run's cycle plus s.clock) wherever the
//     fault plan or the control plane reads them, and the loop advances
//     s.clock past the Run.
//
// A session's control-plane counters go straight to rec; per-hop
// telemetry goes through the run-local tally under both policies.
func (nw *Network) faultLoop(packets []Packet, state *FaultState, s *SelfHealing, cfg FaultConfig, traced bool, admit *admitState, rec *obs.Recorder) (HealResult, []Event, error) {
	var oracle *FaultAwareRouter
	start := 0
	if s == nil {
		oracle = NewFaultAwareRouter(nw.g, nw.router, state)
	} else {
		start = s.clock
	}

	n := nw.g.N()
	m := int(nw.arcBase[n])
	guardIndexInt32(len(packets), "packets")
	policy := newRetryPolicy(cfg)
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = nw.defaultBudget(len(packets), cfg.HopLatency)
		// Room for every retry of the backoff ladder to play out.
		maxCycles += cfg.MaxRetries * cfg.BackoffCap
		if admit != nil {
			// Room for the regulator to trickle the whole workload in.
			maxCycles += int(float64(len(packets))/admit.rate) + admit.maxDelay
		}
	}
	// Pipe ready cycles are narrowed into an int32 slab; one guard at
	// entry dominates every stamp below.
	guardIndexInt32(maxCycles+cfg.HopLatency+2, "cycles")

	pkts := make([]Packet, len(packets))
	copy(pkts, packets)

	ar, reused := nw.getArena()
	defer nw.putArena(ar)
	tl := ar.tallyFor(rec, m)
	if tl != nil {
		tl.Arena(reused)
	}
	meta := ar.metaFor(len(pkts))
	// Each packet's primary (fault-blind) arc is gathered once, when the
	// packet enters a node: entPkt and entNode collect this cycle's
	// injections and arrivals with their nodes, and one batched pass
	// after the arrival sweep fills prim (indexed by packet) before any
	// departure reads it.
	entPkt, entNode, prim := ar.arrivalBatch(len(pkts))
	var tArcs []int8
	tN := 0
	if tr, ok := nw.router.(*TableRouter); ok {
		tArcs, tN = tr.arcs, tr.n // nil (interface dispatch) on a wide table
	}
	// Under shift routing the gather steps each packet's carried state
	// (see gatherPrimary). Every state starts stale, so the gather at the
	// source computes it.
	var carry []int32
	if nw.shift != nil {
		carry = ar.carrySlab(len(pkts))
		for i := range carry {
			carry[i] = staleCarry
		}
	}
	// waiting[u] is the FIFO of packet indices held at node u. Links are
	// the general plain path's SoA pipe segments: one departure per arc
	// per cycle, each in flight exactly HopLatency cycles, so HopLatency
	// slots per arc suffice. (Not the lane kernel's departure ring: packets
	// leave a node in FIFO order, not ascending arc order, and arrivals
	// must be swept in arc order.) nodeBits (bit u ⇔ waiting[u]
	// non-empty) and aBits (bit a ⇔ arc a has packets in flight) let the
	// per-cycle sweeps walk only active nodes and arcs, in the same
	// ascending order as the historical full scans.
	waiting := ar.waiting
	segCap := cfg.HopLatency
	hopLat := int32(cfg.HopLatency)
	pipePkt, pipeReady, pipeLen := ar.pipeSegments(m, segCap)
	nodeBits, aBits := ar.nodeBits, ar.aBits

	var events []Event
	emit := func(e Event) {
		if traced {
			events = append(events, e)
		}
	}

	res := HealResult{}
	drop := func(i, cycle, node int, bucket *int, cause obs.DropCause) {
		*bucket++
		res.Dropped++
		if tl != nil {
			tl.Drop(cause)
		}
		emit(Event{Cycle: cycle, Kind: EventDrop, Packet: pkts[i].ID, Node: node, Peer: -1})
	}

	remaining := 0
	order := ar.order[:0]
	for i := range pkts {
		pkts[i].Delivered = -1
		pkts[i].Hops = 0
		if pkts[i].Src == pkts[i].Dst {
			pkts[i].Delivered = pkts[i].Release
			res.Delivered++
			continue
		}
		order = append(order, int32(i))
		remaining++
	}
	sortByRelease(order, pkts)
	ar.order = order
	cursor := 0

	// Overload protection: nodeFull bounds each node's hold queue at
	// QueueCapacity packets per out-arc; hold charges one hold-in-place
	// cycle to a packet's lifetime budget (false: exhausted, caller
	// drops); enter/resident track the peak in-network buffer occupancy.
	qcap := cfg.QueueCapacity
	nodeFull := func(v int) bool {
		return qcap > 0 && len(waiting[v]) >= qcap*int(nw.arcBase[v+1]-nw.arcBase[v])
	}
	hold := func(i, depth int) bool {
		meta[i].holds++
		if meta[i].holds > cfg.HoldBudget {
			return false
		}
		res.Holds++
		if tl != nil {
			tl.Hold(depth)
		}
		return true
	}
	resident := 0
	enter := func() {
		resident++
		if resident > res.PeakResident {
			res.PeakResident = resident
		}
	}
	holdq := ar.holdq[:0]
	heldLast := false // congestion signal: a hold happened last cycle
	entered := 0      // packets that entered a node this cycle (entPkt/entNode)

	// inject offers packet i to its source at cycle. A full source holds
	// it outside the network against its hold budget (true) or, once the
	// budget runs out, drops it.
	inject := func(i32 int32, cycle int) (held bool) {
		i := int(i32)
		src := pkts[i].Src
		if nodeFull(src) {
			if hold(i, len(waiting[src])) {
				return true
			}
			drop(i, cycle, src, &res.DroppedQueueFull, obs.DropQueueFull)
			remaining--
			return false
		}
		waiting[src] = append(waiting[src], i32)
		nodeBits[src>>6] |= 1 << (uint(src) & 63)
		entPkt[entered], entNode[entered] = i32, int32(src)
		entered++
		enter()
		emit(Event{Cycle: cycle, Kind: EventInject, Packet: pkts[i].ID, Node: src, Peer: -1})
		return false
	}

	var cycle int
	for cycle = 0; remaining > 0 && cycle <= maxCycles; cycle++ {
		cycle32 := int32(cycle)
		state.Advance(start + cycle)
		if s != nil {
			if err := s.tick(start+cycle, &res, rec); err != nil {
				return res, nil, err
			}
		}
		holdsBefore := res.Holds
		entered = 0
		if admit != nil {
			admit.refill(heldLast)
		}

		// Inject: source-held packets (admitted earlier, source full)
		// retry first, then the release cursor drains through the
		// admission regulator.
		if len(holdq) > 0 {
			nh := holdq[:0]
			for _, i32 := range holdq {
				if inject(i32, cycle) {
					nh = append(nh, i32)
				}
			}
			holdq = nh
		}
		for cursor < len(order) && pkts[order[cursor]].Release <= cycle {
			i := int(order[cursor])
			if admit != nil {
				if cycle-pkts[i].Release > admit.maxDelay {
					cursor++
					res.Shed++
					if tl != nil {
						tl.Shed()
					}
					emit(Event{Cycle: cycle, Kind: EventDrop, Packet: pkts[i].ID, Node: pkts[i].Src, Peer: -1})
					remaining--
					continue
				}
				if !admit.take() {
					break // out of tokens: the head waits in release order
				}
			}
			cursor++
			if inject(int32(i), cycle) {
				holdq = append(holdq, int32(i))
			}
		}

		// Arrivals: wire time completes; a downed node loses the packet.
		// Swept over the in-flight bitmap in ascending flat-arc order —
		// identical to the historical nested (node, arc) scan — and
		// compacted in place in each arc's segment.
		for w := range aBits {
			bits := aBits[w]
			for bits != 0 {
				a := w<<6 + trailingZeros64(bits)
				bits &= bits - 1
				base := a * segCap
				cnt := int(pipeLen[a])
				u := int(nw.arcTail[a])
				v := int(nw.arcHead[a])
				keep := 0
				for j := 0; j < cnt; j++ {
					pk, rdy := pipePkt[base+j], pipeReady[base+j]
					if rdy > cycle32 {
						pipePkt[base+keep], pipeReady[base+keep] = pk, rdy
						keep++
						continue
					}
					i := int(pk)
					p := &pkts[i]
					p.Hops++
					if tl != nil {
						tl.ArcTraverse(a)
					}
					emit(Event{Cycle: cycle, Kind: EventArrive, Packet: p.ID, Node: v, Peer: u})
					if state.NodeDown(v) {
						drop(i, cycle, v, &res.DroppedFault, obs.DropFault)
						remaining--
						resident--
						continue
					}
					if v == p.Dst {
						p.Delivered = cycle
						res.Delivered++
						remaining--
						resident--
						if cycle > res.Cycles {
							res.Cycles = cycle
						}
						if tl != nil {
							tl.Deliver(cycle-p.Release, p.Hops)
						}
						emit(Event{Cycle: cycle, Kind: EventDeliver, Packet: p.ID, Node: v, Peer: -1})
						continue
					}
					waiting[v] = append(waiting[v], pk)
					nodeBits[v>>6] |= 1 << (uint(v) & 63)
					entPkt[entered], entNode[entered] = pk, int32(v)
					entered++
				}
				pipeLen[a] = int32(keep)
				if keep == 0 {
					aBits[w] &^= 1 << (uint(a) & 63)
				}
			}
		}

		nw.gatherPrimary(entPkt[:entered], entNode[:entered], pkts, prim, carry, tArcs, tN)

		// Departures: each node forwards its waiting packets in FIFO
		// order; each arc accepts one attempt per cycle. busy marks are
		// invalidated per node by bumping the arena's stamp token. Swept
		// over the waiting-node bitmap in ascending node order —
		// identical to the historical 0..n-1 scan over all nodes.
		for w := range nodeBits {
			wbits := nodeBits[w]
			for wbits != 0 {
				u := w<<6 + trailingZeros64(wbits)
				wbits &= wbits - 1
				depth := len(waiting[u]) // MaxQueue is node-FIFO depth here
				if depth > res.MaxQueue {
					res.MaxQueue = depth
					res.HotNode = u
				}
				if tl != nil {
					tl.NodeQueueDepth(depth)
				}
				ar.busyToken++
				token := ar.busyToken
				busy := ar.busy
				keep := waiting[u][:0]
				for _, i32 := range waiting[u] {
					i := int(i32)
					p := &pkts[i]
					if meta[i].readyAt > cycle {
						keep = append(keep, i32)
						continue
					}
					if p.Hops >= cfg.TTL {
						drop(i, cycle, u, &res.DroppedTTL, obs.DropTTL)
						remaining--
						resident--
						continue
					}
					primary := int(prim[i])
					var arc int
					if s == nil {
						arc = oracle.fromPrimary(u, p.Dst, primary)
					} else {
						arc = s.routeArc(u, p.Dst, rec)
					}
					if arc < 0 {
						if !policy.charge(&meta[i], cycle, p.ID) {
							drop(i, cycle, u, &res.DroppedNoRoute, obs.DropNoRoute)
							remaining--
							resident--
							continue
						}
						res.Retries++
						if tl != nil {
							tl.Retry()
						}
						keep = append(keep, i32)
						continue
					}
					if busy[arc] == token {
						keep = append(keep, i32) // link occupied this cycle: queue
						continue
					}
					flat := int(nw.arcBase[u]) + arc
					next := int(nw.arcHead[flat])
					if next != p.Dst && nodeFull(next) {
						// Credit-based backpressure: the downstream node is
						// full (delivery always absorbs), so the packet holds
						// in place instead of deepening next's queue.
						if !hold(i, len(waiting[next])) {
							drop(i, cycle, u, &res.DroppedQueueFull, obs.DropQueueFull)
							remaining--
							resident--
							continue
						}
						keep = append(keep, i32)
						continue
					}
					busy[arc] = token
					if s != nil {
						// The attempt consumed the link slot. Onto a
						// physically-down arc it fails: the packet stays
						// queued for DetectLatency cycles while its NACK
						// feeds the tail's suspicion — the only way the
						// control plane ever learns of a fault.
						a := Arc{Tail: u, Index: arc}
						if state.ArcDown(u, arc) {
							if err := s.nack(a, start+cycle, &res, rec); err != nil {
								return res, nil, err
							}
							meta[i].readyAt = cycle + s.cfg.DetectLatency
							keep = append(keep, i32)
							continue
						}
						s.transmitted(a, start+cycle)
					}
					if primary != arc {
						if carry != nil {
							// Off the primary arc the packet leaves the
							// shortest path its state describes: the
							// next gather recomputes it.
							carry[i] = staleCarry
						}
						res.Reroutes++
						if tl != nil {
							tl.Reroute()
						}
						emit(Event{Cycle: cycle, Kind: EventReroute, Packet: p.ID, Node: u, Peer: next})
					}
					emit(Event{Cycle: cycle, Kind: EventDepart, Packet: p.ID, Node: u, Peer: next})
					slot := flat*segCap + int(pipeLen[flat])
					pipePkt[slot], pipeReady[slot] = i32, cycle32+hopLat
					pipeLen[flat]++
					aBits[flat>>6] |= 1 << (uint(flat) & 63)
				}
				waiting[u] = keep
				if len(keep) == 0 {
					nodeBits[w] &^= 1 << (uint(u) & 63)
				}
			}
		}

		heldLast = res.Holds > holdsBefore
	}
	if s != nil {
		s.clock = start + cycle
	}

	// Exit drain: the cycle budget ran out with work outstanding. Every
	// survivor is dropped with a cause so Delivered + Dropped == Offered
	// holds on truncated runs too. Order is deterministic: node queues,
	// then link pipelines (at their tails), then never-injected packets.
	if remaining > 0 {
		for u := 0; u < n; u++ {
			for _, i32 := range waiting[u] {
				drop(int(i32), cycle, u, &res.Stuck, obs.DropStuck)
			}
			waiting[u] = waiting[u][:0]
		}
		for a := 0; a < m; a++ {
			for _, pk := range pipePkt[a*segCap : a*segCap+int(pipeLen[a])] {
				drop(int(pk), cycle, int(nw.arcTail[a]), &res.Stuck, obs.DropStuck)
			}
			pipeLen[a] = 0
		}
		// Source-held packets (admitted but never accepted by their full
		// source) drain under the queue-full bucket, distinct from Stuck.
		for _, i32 := range holdq {
			i := int(i32)
			drop(i, cycle, pkts[i].Src, &res.DroppedQueueFull, obs.DropQueueFull)
		}
		holdq = holdq[:0]
		// Packets whose Release exceeded the horizon were never injected:
		// drop them at their source under their own bucket.
		for ; cursor < len(order); cursor++ {
			i := int(order[cursor])
			drop(i, cycle, pkts[i].Src, &res.DroppedHorizon, obs.DropHorizon)
		}
	}
	ar.holdq = holdq

	res.aggregate(pkts, cfg.HopLatency)
	rec.Merge(tl)
	return res, events, nil
}

// staleCarry marks a carried shift state the fault loop must recompute:
// the packet has not been gathered yet, or left its shortest path.
const staleCarry int32 = -1

// gatherPrimary caches the primary router's arc for every packet that
// entered a node this cycle: prim[pkt[k]] is the fault-blind arc out of
// node[k] toward the packet's destination. Under table routing it is one
// dense pass of independent slab loads, like the lane kernel's routing
// pass; the departure sweep then starts each decision from the cached
// arc instead of re-reading the slab on every attempt. Under shift
// routing it steps the packet's carried state — recomputing it first
// (the one O(D) call) only when stale — and leaves carry holding the
// state after the primary hop, which a departure on the primary arc
// keeps and any other departure marks stale.
//
//lint:hotpath
func (nw *Network) gatherPrimary(pkt, node []int32, pkts []Packet, prim, carry []int32, tArcs []int8, tN int) {
	if tArcs != nil {
		for k, p := range pkt {
			prim[p] = int32(tArcs[int(node[k])*tN+pkts[p].Dst])
		}
		return
	}
	if carry != nil {
		shift := nw.shift
		for k, p := range pkt {
			at := int(node[k])
			t := carry[p]
			if t == staleCarry {
				t = shift.start(at, pkts[p].Dst)
			}
			arc, next := shift.step(at, t)
			//lint:ignore slabindex an arc index is below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
			prim[p], carry[p] = int32(arc), next
		}
		return
	}
	for k, p := range pkt {
		//lint:ignore slabindex an arc index is below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
		prim[p] = int32(nw.router.NextArc(int(node[k]), pkts[p].Dst))
	}
}
