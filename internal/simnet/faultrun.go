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

// runWithFaults runs the fault loop under the oracle routing policy.
func (nw *Network) runWithFaults(packets []Packet, plan *FaultPlan, tun runTuning, rec *obs.Recorder) (FaultResult, []Event, error) {
	state, err := plan.Compile(nw.g)
	if err != nil {
		return FaultResult{}, nil, err
	}
	res, events, err := nw.faultLoop(packets, state, nil, tun, rec)
	return res.FaultResult, events, err
}

// faultLoop is the cycle loop of both the fault engine and self-healing
// sessions. The routing policy is chosen by s:
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
// A cycle is three phase sweeps over flat slabs, like the lane kernel's:
// inject (source-held packets, then the release cursor through the
// admission regulator), arrive (the in-flight bitmap in ascending arc
// order) and depart (the waiting-node bitmap in ascending node order,
// each node's FIFO in order). Every run mode goes through these same
// functions: the routing policy (s), bounded queues (qcap > 0),
// admission (admit), the event log (traced) and telemetry (tl) are
// per-run flags each phase tests, not copies of the cycle. A packet's
// per-hop state is one faultPkt record; its primary (fault-blind) arc is
// gathered once, when it enters a node, and a departure takes it after
// one bit test of the FaultState's per-cycle view unless that arc is
// down now or absent, or a permanent fault is active — only then does it
// ask the FaultAwareRouter (fromPrimary).
//
// A session's control-plane counters go straight to rec; per-hop
// telemetry goes through the run-local tally under both policies.
func (nw *Network) faultLoop(packets []Packet, state *FaultState, s *SelfHealing, tun runTuning, rec *obs.Recorder) (HealResult, []Event, error) {
	start := 0
	if s != nil {
		start = s.clock
	}
	pkts := make([]Packet, len(packets))
	copy(pkts, packets)

	ar, reused := nw.getArena()
	defer nw.putArena(ar)
	tl := ar.tallyFor(rec, int(nw.arcBase[nw.g.N()]))
	if tl != nil {
		tl.Arena(reused)
	}
	fr := &ar.fault
	maxCycles := fr.setup(nw, ar, pkts, tun)
	fr.state, fr.s, fr.rec, fr.tl = state, s, rec, tl
	if s == nil {
		fr.oracle = NewFaultAwareRouter(nw.g, nw.router, state)
	}
	defer fr.release(ar)

	var cycle int
	heldLast := false // congestion signal: a hold happened last cycle
	for cycle = 0; fr.remaining > 0 && cycle <= maxCycles; cycle++ {
		state.Advance(start + cycle)
		if s != nil {
			if err := s.tick(start+cycle, &fr.res, rec); err != nil {
				return fr.res, nil, err
			}
		}
		holdsBefore := fr.res.Holds
		if fr.admit != nil {
			fr.admit.refill(heldLast)
		}
		fr.inject(cycle)
		fr.arrive(cycle)
		if err := fr.depart(cycle, start); err != nil {
			return fr.res, nil, err
		}
		heldLast = fr.res.Holds > holdsBefore
	}
	if s != nil {
		s.clock = start + cycle
	}
	fr.drain(cycle)

	// Scatter the per-hop records into the packet table. Deliveries are
	// tallied here rather than in the arrival sweep: the same (latency,
	// hops) observations, read once in order.
	for _, i := range fr.order {
		p := &pkts[i]
		p.Hops = int(fr.hot[i].hops)
		if tl != nil && p.Delivered >= 0 {
			tl.Deliver(p.Delivered-p.Release, p.Hops)
		}
	}
	res, events := fr.res, fr.events
	res.aggregate(pkts, nw.cfg.HopLatency)
	rec.Merge(tl)
	return res, events, nil
}

// staleCarry marks a carried shift state the fault loop must recompute:
// the packet has not been routed yet, or left its shortest path.
const staleCarry int32 = -1

// faultPkt is a packet's state in the fault loop: every field a hop
// reads or writes, in one 32-byte record, so a departure decision loads
// one record per packet.
type faultPkt struct {
	dst  int32
	hops int32
	// readyAt is the first cycle the packet may try to leave again
	// (retry backoff, NACK timeout), clamped to the run's horizon.
	readyAt int32
	// prim is the primary router's fault-blind arc out of the packet's
	// node, gathered when it entered the node.
	prim int32
	// carry is the shift state after the primary hop (staleCarry:
	// recompute at the next node); unused unless the run is shift-routed.
	carry int32
	// link is the packet's successor in its node FIFO.
	link int32
	// retries and holds count the retries and hold-in-place cycles the
	// packet has spent (rarely touched; they pad the record to 32 bytes,
	// so no record straddles a cache line).
	retries, holds int32
}

// nodeFIFO is one node's hold queue of n packets, threaded through their
// faultPkt links from head to tail.
type nodeFIFO struct{ head, tail, n int32 }

// faultRun is the state of one fault-loop run, kept in the run's arena
// so its slabs are reused across runs. The links are the general path's
// SoA pipe segments: one departure per arc per cycle, each in flight
// exactly HopLatency cycles, so HopLatency slots per arc suffice (not
// the lane kernel's departure ring: packets leave a node in FIFO order,
// not ascending arc order, and arrivals must be swept in arc order).
// nodeBits (bit u ⇔ node u's FIFO is non-empty) and aBits (bit a ⇔ arc a
// has packets in flight) let the sweeps walk only active nodes and arcs.
type faultRun struct {
	nw     *Network
	state  *FaultState
	oracle *FaultAwareRouter // the routing policy of an oracle run
	s      *SelfHealing      // the routing policy of a session (nil: oracle)
	admit  *admitState       // nil: no admission control
	rec    *obs.Recorder
	tl     *obs.Tally // nil: the run records nothing
	traced bool
	events []Event

	ttl, hopLat, horizon     int32
	segCap, qcap, holdBudget int

	// Devirtualized primary routing, as in runState.
	tArcs []int8
	tN    int
	shift *DeBruijnRouter

	pkts []Packet // the run's packet table: IDs, sources, releases, deliveries
	hot  []faultPkt
	fifo []nodeFIFO

	pipePkt, pipeReady, pipeLen []int32
	aBits, nodeBits             []uint64

	// busy marks out-arcs already used this (node, cycle): busy[k] equals
	// the current busyToken. Bumping the token invalidates every mark in
	// O(1).
	busy      []int64
	busyToken int64

	order  []int32 // routed packets by (Release, index)
	cursor int     // next packet of order to release
	holdq  []int32 // source-held packets (bounded-queue backpressure)

	res                 HealResult
	remaining, resident int
}

// setup prepares fr for a run of pkts on nw and returns its cycle
// budget: resolves the per-run constants, sizes and resets the slabs,
// settles self-addressed packets and orders the rest by release.
func (fr *faultRun) setup(nw *Network, ar *arena, pkts []Packet, tun runTuning) (maxCycles int) {
	n := nw.g.N()
	m := int(nw.arcBase[n])
	p := len(pkts)
	guardIndexInt32(p, "packets")
	tun = tun.withDefaults()
	maxCycles = nw.cycleBudget(tun, p, true)
	hopLat := nw.cfg.HopLatency
	// Pipe ready cycles and retry-ready cycles are narrowed into int32
	// slabs; this guard dominates every stamp, and a packet past the
	// horizon (maxCycles+1) can no longer move, so ready cycles clamp to
	// it and a TTL above it is never reached.
	guardIndexInt32(maxCycles+hopLat+2, "cycles")
	fr.nw, fr.pkts, fr.admit, fr.traced = nw, pkts, tun.admit, tun.trace
	fr.ttl, fr.hopLat, fr.horizon = int32(min(nw.ttl(), maxCycles+1)), int32(hopLat), int32(maxCycles+1)
	fr.segCap, fr.qcap, fr.holdBudget = hopLat, tun.qcap, tun.hold
	fr.tArcs, fr.tN, fr.shift = nil, 0, nw.shift
	if tr, ok := nw.router.(*TableRouter); ok {
		fr.tArcs, fr.tN = tr.arcs, tr.n // nil (interface dispatch) on a wide table
	}
	if cap(fr.hot) < p {
		fr.hot = make([]faultPkt, p)
	}
	fr.hot = fr.hot[:p]
	if len(fr.fifo) != n {
		fr.fifo, fr.nodeBits, fr.busy = make([]nodeFIFO, n), make([]uint64, (n+63)/64), make([]int64, nw.maxDeg)
	}
	// A run cut short by an error leaves FIFOs and bits behind; busy
	// stays valid because the token only ever grows.
	clear(fr.fifo)
	clearBits(fr.nodeBits)
	fr.pipePkt, fr.pipeReady, fr.pipeLen = ar.pipeSegments(m, fr.segCap)
	fr.aBits = ar.aBits
	fr.holdq = ar.holdq[:0]
	fr.res, fr.events, fr.remaining, fr.resident, fr.cursor = HealResult{}, nil, 0, 0, 0

	order := ar.order[:0]
	for i := range pkts {
		pk := &pkts[i]
		pk.Delivered = -1
		pk.Hops = 0
		if pk.Src == pk.Dst {
			pk.Delivered = pk.Release
			fr.res.Delivered++
			continue
		}
		fr.hot[i] = faultPkt{dst: int32(pk.Dst), carry: staleCarry}
		order = append(order, int32(i))
	}
	sortByRelease(order, pkts)
	ar.order, fr.order = order, order
	fr.remaining = len(order)
	return maxCycles
}

// release detaches the run from fr, so the pooled arena keeps its slabs
// but nothing of the run: not the packet table (the Result's), the event
// log, the fault state or the session.
func (fr *faultRun) release(ar *arena) {
	ar.holdq = fr.holdq
	fr.nw, fr.state, fr.oracle, fr.s, fr.admit, fr.rec, fr.tl = nil, nil, nil, nil, nil, nil, nil
	fr.pkts, fr.events, fr.order = nil, nil, nil
}

// inject is the cycle's injection phase: source-held packets retry
// first, then the release cursor drains through the admission regulator.
//
//lint:hotpath
func (fr *faultRun) inject(cycle int) {
	if len(fr.holdq) > 0 {
		nh := fr.holdq[:0]
		for _, i := range fr.holdq {
			if fr.offer(i, cycle) {
				nh = append(nh, i)
			}
		}
		fr.holdq = nh
	}
	order, pkts, admit := fr.order, fr.pkts, fr.admit
	for fr.cursor < len(order) && pkts[order[fr.cursor]].Release <= cycle {
		i := order[fr.cursor]
		if admit != nil {
			if cycle-pkts[i].Release > admit.maxDelay {
				fr.cursor++
				fr.res.Shed++
				if fr.tl != nil {
					fr.tl.Shed()
				}
				if fr.traced {
					fr.emit(cycle, EventDrop, i, pkts[i].Src, -1)
				}
				fr.remaining--
				continue
			}
			if !admit.take() {
				break // out of tokens: the head waits in release order
			}
		}
		fr.cursor++
		if fr.offer(i, cycle) {
			fr.holdq = append(fr.holdq, i)
		}
	}
}

// offer hands packet i to its source at cycle. A full source holds it
// outside the network against its hold budget (true) or, once the budget
// runs out, drops it.
func (fr *faultRun) offer(i int32, cycle int) (held bool) {
	src := fr.pkts[i].Src
	if fr.full(src) {
		if fr.holdIn(i, int(fr.fifo[src].n)) {
			return true
		}
		fr.drop(i, cycle, src, &fr.res.DroppedQueueFull, obs.DropQueueFull)
		fr.remaining--
		return false
	}
	//lint:ignore slabindex a node id, below n, which newNetwork's guardIndexInt32 bounds
	fr.enter(i, int32(src))
	fr.resident++
	fr.res.PeakResident = max(fr.res.PeakResident, fr.resident)
	if fr.traced {
		fr.emit(cycle, EventInject, i, src, -1)
	}
	return false
}

// enter appends packet pk to node v's FIFO and gathers its primary arc
// out of v: under table routing one slab load, under shift routing one
// step of its carried state (recomputed first, the one O(D) call, only
// when stale), leaving carry at the state after the primary hop, which a
// departure on the primary arc keeps and any other marks stale.
//
//lint:hotpath
func (fr *faultRun) enter(pk, v int32) {
	f := &fr.fifo[v]
	if f.n == 0 {
		f.head = pk
		fr.nodeBits[v>>6] |= 1 << (uint32(v) & 63)
	} else {
		fr.hot[f.tail].link = pk
	}
	f.tail = pk
	f.n++
	h := &fr.hot[pk]
	switch {
	case fr.tArcs != nil:
		h.prim = int32(fr.tArcs[int(v)*fr.tN+int(h.dst)])
	case fr.shift != nil:
		t := h.carry
		if t == staleCarry {
			t = fr.shift.start(int(v), int(h.dst))
		}
		arc, next := fr.shift.step(int(v), t)
		//lint:ignore slabindex an arc index is below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
		h.prim, h.carry = int32(arc), next
	default:
		//lint:ignore slabindex an arc index is −1 or below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
		h.prim = int32(fr.nw.router.NextArc(int(v), int(h.dst)))
	}
}

// arrive is the cycle's arrival phase: wire time completes, swept over
// the in-flight bitmap in ascending arc order, each arc's segment
// compacted in place. Each hop is counted; a downed node loses the
// packet, its destination absorbs it, any other node queues it and
// gathers its primary arc (enter).
//
//lint:hotpath
func (fr *faultRun) arrive(cycle int) {
	//lint:ignore slabindex cycle ≤ maxCycles, dominated by setup's guardIndexInt32
	cycle32 := int32(cycle)
	pipePkt, pipeReady, pipeLen, aBits := fr.pipePkt, fr.pipeReady, fr.pipeLen, fr.aBits
	arcTail, arcHead := fr.nw.arcTail, fr.nw.arcHead
	hot, pkts, fifo, nodeBits := fr.hot, fr.pkts, fr.fifo, fr.nodeBits
	tl, segCap, traced := fr.tl, fr.segCap, fr.traced
	tArcs, tN, shift, router := fr.tArcs, fr.tN, fr.shift, fr.nw.router
	state := fr.state
	nodeFaults := state.nodeDown != nil
	delivered := 0
	for w := range aBits {
		bits := aBits[w]
		for bits != 0 {
			a := w<<6 + trailingZeros64(bits)
			bits &= bits - 1
			base := a * segCap
			cnt := int(pipeLen[a])
			v := arcHead[a]
			keep := 0
			for j := 0; j < cnt; j++ {
				pk, rdy := pipePkt[base+j], pipeReady[base+j]
				if rdy > cycle32 {
					pipePkt[base+keep], pipeReady[base+keep] = pk, rdy
					keep++
					continue
				}
				h := &hot[pk]
				h.hops++
				if tl != nil {
					tl.ArcTraverse(a)
				}
				if traced {
					fr.emit(cycle, EventArrive, pk, int(v), int(arcTail[a]))
				}
				if nodeFaults && state.NodeDown(int(v)) {
					fr.drop(pk, cycle, int(v), &fr.res.DroppedFault, obs.DropFault)
					fr.remaining--
					fr.resident--
					continue
				}
				if v == h.dst {
					pkts[pk].Delivered = cycle
					delivered++
					if traced {
						fr.emit(cycle, EventDeliver, pk, int(v), -1)
					}
					continue
				}
				// enter, inlined with its slabs hoisted: as a call it
				// costs 3–4% of a lens-faulted run.
				f := &fifo[v]
				if f.n == 0 {
					f.head = pk
					nodeBits[v>>6] |= 1 << (uint32(v) & 63)
				} else {
					hot[f.tail].link = pk
				}
				f.tail = pk
				f.n++
				switch {
				case tArcs != nil:
					h.prim = int32(tArcs[int(v)*tN+int(h.dst)])
				case shift != nil:
					t := h.carry
					if t == staleCarry {
						t = shift.start(int(v), int(h.dst))
					}
					arc, next := shift.step(int(v), t)
					//lint:ignore slabindex an arc index is below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
					h.prim, h.carry = int32(arc), next
				default:
					//lint:ignore slabindex an arc index is −1 or below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
					h.prim = int32(router.NextArc(int(v), int(h.dst)))
				}
			}
			//lint:ignore slabindex keep ≤ pipeLen[a], an int32
			pipeLen[a] = int32(keep)
			if keep == 0 {
				aBits[w] &^= 1 << (uint(a) & 63)
			}
		}
	}
	if delivered > 0 {
		fr.res.Delivered += delivered
		fr.remaining -= delivered
		fr.resident -= delivered
		fr.res.Cycles = cycle
	}
}

// depart is the cycle's departure phase: each node forwards its waiting
// packets in FIFO order, each out-arc accepting one attempt per cycle,
// swept over the waiting-node bitmap in ascending node order. Packets
// that stay are relinked in order; MaxQueue is the deepest node FIFO.
// start is the session clock at the Run's cycle 0.
//
//lint:hotpath
func (fr *faultRun) depart(cycle, start int) error {
	//lint:ignore slabindex cycle ≤ maxCycles, dominated by setup's guardIndexInt32
	cycle32 := int32(cycle)
	ready := cycle32 + fr.hopLat
	nw, s, oracle, tl := fr.nw, fr.s, fr.oracle, fr.tl
	arcBase, arcHead := nw.arcBase, nw.arcHead
	hot, fifo, nodeBits, busy := fr.hot, fr.fifo, fr.nodeBits, fr.busy
	pipePkt, pipeReady, pipeLen, aBits := fr.pipePkt, fr.pipeReady, fr.pipeLen, fr.aBits
	segCap, ttl, qcap, traced := fr.segCap, fr.ttl, fr.qcap, fr.traced
	down, permanent := fr.state.arcDown, fr.state.version > 0
	for w := range nodeBits {
		wbits := nodeBits[w]
		for wbits != 0 {
			u := w<<6 + trailingZeros64(wbits)
			wbits &= wbits - 1
			f := &fifo[u]
			depth := f.n
			if int(depth) > fr.res.MaxQueue {
				fr.res.MaxQueue, fr.res.HotNode = int(depth), u
			}
			if tl != nil {
				tl.NodeQueueDepth(int(depth))
			}
			fr.busyToken++
			token := fr.busyToken
			base := arcBase[u]
			var head, tail, kept int32
			next := f.head
			for j := int32(0); j < depth; j++ {
				i := next
				h := &hot[i]
				next = h.link
				if h.readyAt <= cycle32 {
					if h.hops >= ttl {
						fr.drop(i, cycle, u, &fr.res.DroppedTTL, obs.DropTTL)
						fr.remaining--
						fr.resident--
						continue
					}
					arc := h.prim
					if s != nil {
						//lint:ignore slabindex an arc index is −1 or below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
						arc = int32(s.routeArc(u, int(h.dst), fr.rec))
					} else if arc < 0 || permanent || (down != nil && down[(base+arc)>>6]&(1<<(uint32(base+arc)&63)) != 0) {
						// fromPrimary's first branch — the primary arc when it
						// is up and no permanent fault is active — is the bit
						// test above; anything else takes the cascade.
						//lint:ignore slabindex an arc index is −1 or below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
						arc = int32(oracle.fromPrimary(u, int(h.dst), int(arc)))
					}
					if arc < 0 {
						if !fr.retry(i, cycle) {
							fr.drop(i, cycle, u, &fr.res.DroppedNoRoute, obs.DropNoRoute)
							fr.remaining--
							fr.resident--
							continue
						}
					} else if busy[arc] != token {
						flat := base + arc
						to := arcHead[flat]
						sent := false
						switch {
						case qcap > 0 && to != h.dst && fr.full(int(to)):
							// Credit-based backpressure: the downstream node is
							// full (delivery always absorbs), so the packet holds
							// in place instead of deepening to's queue.
							if !fr.holdIn(i, int(fifo[to].n)) {
								fr.drop(i, cycle, u, &fr.res.DroppedQueueFull, obs.DropQueueFull)
								fr.remaining--
								fr.resident--
								continue
							}
						case s != nil:
							busy[arc] = token
							var err error
							if sent, err = fr.attempt(i, u, int(arc), cycle, start); err != nil {
								return err
							}
						default:
							busy[arc] = token
							sent = true
						}
						if sent {
							if arc != h.prim {
								// Off the primary arc the packet leaves the
								// shortest path its carried state describes:
								// the next node recomputes it.
								h.carry = staleCarry
								fr.res.Reroutes++
								if tl != nil {
									tl.Reroute()
								}
								if traced {
									fr.emit(cycle, EventReroute, i, u, int(to))
								}
							}
							if traced {
								fr.emit(cycle, EventDepart, i, u, int(to))
							}
							slot := int(flat)*segCap + int(pipeLen[flat])
							pipePkt[slot], pipeReady[slot] = i, ready
							pipeLen[flat]++
							aBits[flat>>6] |= 1 << (uint32(flat) & 63)
							continue
						}
					}
				}
				// i stays queued: relink it behind the packets kept so far.
				if kept == 0 {
					head = i
				} else {
					hot[tail].link = i
				}
				tail = i
				kept++
			}
			f.head, f.tail, f.n = head, tail, kept
			if kept == 0 {
				nodeBits[w] &^= 1 << (uint(u) & 63)
			}
		}
	}
	return nil
}

// attempt is a session's transmission of packet i on out-arc k of node
// u, which has consumed the link slot. Onto a physically-down arc it
// fails: the packet stays queued for detectLatency cycles while its NACK
// feeds the tail's suspicion — the only way the control plane ever
// learns of a fault.
func (fr *faultRun) attempt(i int32, u, k, cycle, start int) (sent bool, err error) {
	s := fr.s
	a := Arc{Tail: u, Index: k}
	if fr.state.ArcDown(u, k) {
		if err := s.nack(a, start+cycle, &fr.res, fr.rec); err != nil {
			return false, err
		}
		//lint:ignore slabindex clamped to the horizon, dominated by setup's guardIndexInt32
		fr.hot[i].readyAt = int32(min(cycle+detectLatency, int(fr.horizon)))
		return false, nil
	}
	s.transmitted(a, start+cycle)
	return true, nil
}

// full reports whether node v's FIFO is at its bound of QueueCapacity
// packets per out-arc (never, with unbounded queues).
func (fr *faultRun) full(v int) bool {
	return fr.qcap > 0 && int(fr.fifo[v].n) >= fr.qcap*int(fr.nw.arcBase[v+1]-fr.nw.arcBase[v])
}

// holdIn charges one hold-in-place cycle to packet i's lifetime budget,
// recorded at the refusing FIFO's depth; false: the budget is exhausted
// and the caller drops the packet.
func (fr *faultRun) holdIn(i int32, depth int) bool {
	h := &fr.hot[i]
	h.holds++
	if int(h.holds) > fr.holdBudget {
		return false
	}
	fr.res.Holds++
	if fr.tl != nil {
		fr.tl.Hold(depth)
	}
	return true
}

// retry spends one retry of packet i, which found no live useful
// out-arc, and sets the cycle it may try again; false: the budget is
// exhausted and the caller drops the packet.
func (fr *faultRun) retry(i int32, cycle int) bool {
	h := &fr.hot[i]
	if h.retries >= maxRetries {
		return false
	}
	h.retries++
	//lint:ignore slabindex clamped to the horizon, dominated by setup's guardIndexInt32
	h.readyAt = int32(min(cycle+backoff(int(h.retries)), int(fr.horizon)))
	fr.res.Retries++
	if fr.tl != nil {
		fr.tl.Retry()
	}
	return true
}

// drop accounts packet i lost at node under bucket and cause.
func (fr *faultRun) drop(i int32, cycle, node int, bucket *int, cause obs.DropCause) {
	*bucket++
	fr.res.Dropped++
	if fr.tl != nil {
		fr.tl.Drop(cause)
	}
	if fr.traced {
		fr.emit(cycle, EventDrop, i, node, -1)
	}
}

// emit appends an event for packet index i to a traced run's log.
func (fr *faultRun) emit(cycle int, kind EventKind, i int32, node, peer int) {
	fr.events = append(fr.events, Event{Cycle: cycle, Kind: kind, Packet: fr.pkts[i].ID, Node: node, Peer: peer})
}

// drain is the exit path when the cycle budget ran out with work
// outstanding: every survivor is dropped with a cause, so Delivered +
// Dropped == Offered holds on truncated runs too. Order is
// deterministic: node FIFOs, then link pipelines (at their tails), then
// source-held packets, then never-injected ones.
func (fr *faultRun) drain(cycle int) {
	if fr.remaining == 0 {
		return
	}
	for u := range fr.fifo {
		f := &fr.fifo[u]
		i := f.head
		for j := int32(0); j < f.n; j++ {
			fr.drop(i, cycle, u, &fr.res.Stuck, obs.DropStuck)
			i = fr.hot[i].link
		}
		f.n = 0
	}
	for a := range fr.pipeLen {
		base := a * fr.segCap
		for _, i := range fr.pipePkt[base : base+int(fr.pipeLen[a])] {
			fr.drop(i, cycle, int(fr.nw.arcTail[a]), &fr.res.Stuck, obs.DropStuck)
		}
		fr.pipeLen[a] = 0
	}
	// Source-held packets (admitted but never accepted by their full
	// source) drain under the queue-full bucket, distinct from Stuck.
	for _, i := range fr.holdq {
		fr.drop(i, cycle, fr.pkts[i].Src, &fr.res.DroppedQueueFull, obs.DropQueueFull)
	}
	fr.holdq = fr.holdq[:0]
	// Packets whose Release exceeded the horizon were never injected:
	// drop them at their source under their own bucket.
	for ; fr.cursor < len(fr.order); fr.cursor++ {
		i := fr.order[fr.cursor]
		fr.drop(i, cycle, fr.pkts[i].Src, &fr.res.DroppedHorizon, obs.DropHorizon)
	}
}
