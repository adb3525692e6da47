package simnet

import (
	"cmp"
	"fmt"
	"slices"

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
	state, err := plan.compile(nw.g, nw.arcBase)
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
// A cycle is three phase sweeps over flat slabs, on the lane kernel's
// storage: inject (source-held packets, then the release cursor through
// the admission regulator), arrive (the departure ring's bucket, in
// ascending arc order) and depart. A packet's per-hop state is one
// faultPkt record. When it enters a node it gathers its primary
// (fault-blind) arc, takes the next entry stamp and waits in that arc's
// queue (arcQueues; a packet with no primary arc waits in the node's own
// queue). A node's FIFO is its packets in stamp order, and its depth a
// per-node count.
//
// At departure a node takes one of two paths. The pop path pops the head
// of each non-empty queue onto its arc, as the lane kernel does. A node
// takes it only where that is exactly what a walk of its FIFO would do:
// in a run with no queue bound and no trace, at a node with none of its
// out-arcs down in the FaultState's per-cycle view and no slow packet
// (faultRun.slowBits), and — on an oracle run — while no permanent fault
// is active, or — in a session with no monitor on a table- or
// shift-routed network — at a node that has heard of no link-state
// event, whose epoch-0 routing is its primary arc (poppable). Every
// other node walks its FIFO: every run mode goes through the same walk,
// the routing policy (s), bounded queues (qcap > 0), admission (admit),
// the event log (traced) and telemetry (tl) being per-run flags it
// tests, not copies of the cycle. A walking departure takes the cached
// primary arc after one bit test of the fault view unless that arc is
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
	_, table := nw.router.(*TableRouter)
	fr.poppable = fr.qcap == 0 && !fr.traced && (s == nil || (s.cfg.Monitor == nil && (table || nw.shift != nil)))
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
	nw.faultPops.Add(fr.pops)
	nw.faultWalks.Add(fr.walks)

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
	// node, gathered when it entered the node: the arc whose queue it
	// waits in.
	prim int32
	// carry is the shift state after the primary hop (staleCarry:
	// recompute at the next node); unused unless the run is shift-routed.
	carry int32
	// stamp orders the packet's entry into its node (faultRun.stamp):
	// the node's packets in stamp order are its FIFO.
	stamp int32
	// retries and holds count the retries and hold-in-place cycles the
	// packet has spent (rarely touched; they pad the record to 32 bytes,
	// so no record straddles a cache line).
	retries, holds int32
}

// faultRun is the state of one fault-loop run, kept in the run's arena
// so its slabs are reused across runs. The waiting packets sit in the
// lane kernel's arcQueues: queue a < M is flat arc a's, and queue M+u
// holds node u's packets with no primary arc. The links are the lane
// kernel's departure ring: one departure per arc per cycle, each in
// flight exactly HopLatency cycles, every bucket in ascending arc order,
// the order arrivals are swept in.
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

	ttl, hopLat, horizon int32
	m, qcap, holdBudget  int
	// poppable: nodes may take the pop path this run (see faultLoop).
	poppable bool

	// Devirtualized primary routing, as in runState.
	tArcs []int8
	tN    int
	shift *DeBruijnRouter

	pkts []Packet // the run's packet table: IDs, sources, releases, deliveries
	hot  []faultPkt
	q    arcQueues
	// stamp is the entry stamp the next packet to enter a node takes.
	// Stamps compare by their wrapping difference, which orders a node's
	// packets while fewer than 2³¹ entries happen during one packet's
	// wait there; a run has at most packets·(TTL+1) entries.
	stamp int32
	// depth[u] counts the packets waiting at node u: its queue depth,
	// which MaxQueue, the node-depth telemetry and the queue bound read.
	depth []int32
	// Activity bitmaps. qBits: arc a's queue is non-empty. nodeBits:
	// packets may wait at node u (set on entry, cleared by a walk or a
	// node sweep that leaves u empty). slowBits: u is slow — a packet
	// waits there that a pop could get wrong, with no primary arc, at
	// its TTL, or not ready to leave next cycle; an entry can add only
	// the first two kinds, and a slow node walks every cycle, so its
	// walk recomputes the mark. downBits: an out-arc of u is down in the
	// fault view [viewLo, viewHi) (downNodes).
	qBits, nodeBits, slowBits, downBits []uint64
	viewLo, viewHi                      int
	// ringPkt and ringArc are the departure ring, ringFill its bucket
	// fills.
	ringPkt, ringArc, ringFill []int32

	// busy marks out-arcs already used this (node, cycle) by a walk:
	// busy[k] equals the current busyToken. Bumping the token invalidates
	// every mark in O(1). leave[k] is the packet the walk sends on out-arc
	// k (−1: none), so the node's departures leave in arc order.
	busy      []int64
	busyToken int64
	leave     []int32
	fifo      []int32 // a walking node's packets in stamp order (gather)
	// heads and left are gather's merge cursors: each non-empty queue's
	// next packet and how many remain.
	heads, left []int32
	leaving     []departure // this cycle's walk departures, in arc order
	walked      []int32     // this cycle's walked nodes with packets left
	// batchPkt and batchNode hold the cycle's batch of packets entering a
	// node (arena.arrivalBatch), batched of them so far: its injections,
	// then its arrivals.
	batchPkt, batchNode []int32
	batched             int

	order  []int32 // routed packets by (Release, index)
	cursor int     // next packet of order to release
	holdq  []int32 // source-held packets (bounded-queue backpressure)

	res                 HealResult
	hotCycle            int // the cycle MaxQueue was first reached in
	remaining, resident int
	pops, walks         int64 // packets popped and nodes walked
}

// departure is a walk's departure: packet pkt leaves on flat arc arc.
type departure struct{ arc, pkt int32 }

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
	// Retry-ready cycles are narrowed into the int32 records; this guard
	// dominates every one, and a packet past the horizon (maxCycles+1)
	// can no longer move, so ready cycles clamp to it and a TTL above it
	// is never reached.
	guardIndexInt32(maxCycles+hopLat+2, "cycles")
	fr.nw, fr.pkts, fr.admit, fr.traced = nw, pkts, tun.admit, tun.trace
	fr.ttl, fr.hopLat, fr.horizon = int32(min(nw.ttl(), maxCycles+1)), int32(hopLat), int32(maxCycles+1)
	fr.m, fr.qcap, fr.holdBudget = m, tun.qcap, tun.hold
	fr.tArcs, fr.tN, fr.shift = nil, 0, nw.shift
	if tr, ok := nw.router.(*TableRouter); ok {
		fr.tArcs, fr.tN = tr.arcs, tr.n // nil (interface dispatch) on a wide table
	}
	if cap(fr.hot) < p {
		fr.hot = make([]faultPkt, p)
	}
	fr.hot = fr.hot[:p]
	if len(fr.depth) != n {
		words := (n + 63) / 64
		fr.depth = make([]int32, n)
		fr.nodeBits, fr.slowBits, fr.downBits = make([]uint64, words), make([]uint64, words), make([]uint64, words)
		fr.busy, fr.leave = make([]int64, nw.maxDeg), make([]int32, nw.maxDeg)
		fr.ringFill = make([]int32, hopLat)
	}
	// A run cut short by an error leaves its marks behind; busy stays
	// valid because the token only ever grows.
	clear(fr.depth)
	clearBits(fr.nodeBits)
	clearBits(fr.slowBits)
	clearBits(fr.downBits)
	clearInt32(fr.ringFill)
	for k := range fr.leave {
		fr.leave[k] = -1
	}
	fr.viewLo, fr.viewHi = 1, 0 // no view: downNodes rebuilds on first use
	fr.q = ar.queueLinks(m+n, p)
	fr.qBits = ar.qBits // zeroed at checkout
	fr.ringPkt, fr.ringArc = ar.departureRing(m, hopLat)
	fr.batchPkt, fr.batchNode, _ = ar.arrivalBatch(p)
	fr.holdq = ar.holdq[:0]
	fr.res, fr.events, fr.remaining, fr.resident, fr.cursor = HealResult{}, nil, 0, 0, 0
	fr.stamp, fr.hotCycle, fr.pops, fr.walks, fr.batched = 0, 0, 0, 0, 0

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
		if fr.holdIn(i, int(fr.depth[src])) {
			return true
		}
		fr.drop(i, cycle, src, &fr.res.DroppedQueueFull, obs.DropQueueFull)
		fr.remaining--
		return false
	}
	// With unbounded queues the packet joins the cycle's entering batch;
	// a bounded source must count it before the next offer.
	//lint:ignore slabindex a node id, below n, which newNetwork's guardIndexInt32 bounds
	fr.batchPkt[fr.batched], fr.batchNode[fr.batched] = i, int32(src)
	fr.batched++
	if fr.qcap > 0 {
		fr.enter(fr.batchPkt[:1], fr.batchNode, cycle)
		fr.batched = 0
	}
	fr.resident++
	fr.res.PeakResident = max(fr.res.PeakResident, fr.resident)
	if fr.traced {
		fr.emit(cycle, EventInject, i, src, -1)
	}
	return false
}

// enter queues packets pks[k] at nodes nodes[k], in order, at cycle —
// the cycle's batch, or one injection into a bounded queue — in two
// passes, as the lane kernel routes and pushes its batches. The first
// gathers each packet's primary arc out of its node: under table routing
// one slab load, under shift routing one step of its carried state
// (recomputed first, the one O(D) call, only when stale), leaving carry
// at the state after the primary hop, which a departure on the primary
// arc keeps and any other marks stale. The second stamps each packet,
// queues it under its primary arc (no arc: the node's own queue M+v),
// marks the node slow for a packet with no arc or at its TTL, and
// observes the node's depth for MaxQueue and HotNode. A node's depth
// only grows between its departures, so the maximum over entries is the
// maximum over departure-time depths, and the first node to reach it is
// the earliest cycle's, lowest node first: the node a departure sweep in
// node order would have named.
//
//lint:hotpath
func (fr *faultRun) enter(pks, nodes []int32, cycle int) {
	hot := fr.hot
	nodes = nodes[:len(pks)]
	switch tArcs, tN, shift := fr.tArcs, fr.tN, fr.shift; {
	case tArcs != nil:
		for k, pk := range pks {
			h := &hot[pk]
			h.prim = int32(tArcs[int(nodes[k])*tN+int(h.dst)])
		}
	case shift != nil:
		for k, pk := range pks {
			h := &hot[pk]
			t := h.carry
			if t == staleCarry {
				t = shift.start(int(nodes[k]), int(h.dst))
			}
			arc, next := shift.step(int(nodes[k]), t)
			//lint:ignore slabindex an arc index is below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
			h.prim, h.carry = int32(arc), next
		}
	default:
		for k, pk := range pks {
			h := &hot[pk]
			//lint:ignore slabindex an arc index is −1 or below the out-degree ≤ M, dominated by newNetwork's guardIndexInt32
			h.prim = int32(fr.nw.router.NextArc(int(nodes[k]), int(h.dst)))
		}
	}
	q, arcBase, qBits, nodeBits, slowBits, depth := fr.q, fr.nw.arcBase, fr.qBits, fr.nodeBits, fr.slowBits, fr.depth
	ttl, stamp, res := fr.ttl, fr.stamp, &fr.res
	//lint:ignore slabindex M, within queueLinks' guard
	own := int32(fr.m)
	for k, pk := range pks {
		v := nodes[k]
		h := &hot[pk]
		h.stamp = stamp
		stamp++
		bit := uint64(1) << (uint32(v) & 63)
		nodeBits[v>>6] |= bit
		if h.prim < 0 || h.hops >= ttl {
			slowBits[v>>6] |= bit
		}
		qa := arcBase[v] + h.prim
		if h.prim < 0 {
			qa = own + v
		} else {
			qBits[qa>>6] |= 1 << (uint32(qa) & 63)
		}
		q.push(qa, pk)
		depth[v]++
		if d := depth[v]; int(d) > res.MaxQueue || (int(d) == res.MaxQueue && cycle == fr.hotCycle && int(v) < res.HotNode) {
			res.MaxQueue, res.HotNode, fr.hotCycle = int(d), int(v), cycle
		}
	}
	fr.stamp = stamp
}

// arrive is the cycle's arrival phase: the packets sent HopLatency
// cycles ago, read from their ring bucket in ascending arc order. Each
// hop is counted; a downed node loses the packet, its destination
// absorbs it, and every other packet joins the cycle's entering batch
// behind its injections, which then enters.
//
//lint:hotpath
func (fr *faultRun) arrive(cycle int) {
	bucket := cycle % int(fr.hopLat)
	base := bucket * fr.m
	sentPkt := fr.ringPkt[base : base+int(fr.ringFill[bucket])]
	sentArc := fr.ringArc[base : base+len(sentPkt)]
	arcTail, arcHead := fr.nw.arcTail, fr.nw.arcHead
	hot, pkts, tl, traced := fr.hot, fr.pkts, fr.tl, fr.traced
	state := fr.state
	nodeFaults := state.nodeDown != nil
	bPkt, bNode := fr.batchPkt, fr.batchNode
	n, delivered := fr.batched, 0
	for k, pk := range sentPkt {
		a := sentArc[k]
		v := arcHead[a]
		h := &hot[pk]
		h.hops++
		if tl != nil {
			tl.ArcTraverse(int(a))
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
		bPkt[n], bNode[n] = pk, v
		n++
	}
	if delivered > 0 {
		fr.res.Delivered += delivered
		fr.remaining -= delivered
		fr.resident -= delivered
		fr.res.Cycles = cycle
	}
	fr.enter(bPkt[:n], bNode, cycle)
	fr.batched = 0
}

// depart is the cycle's departure phase. First the walks, in ascending
// node order: every waiting node's when no node may pop (see faultLoop);
// else, on an oracle run, the slow nodes' and those with an out-arc
// down, and in a session also those that have heard of a link-state
// event. A walk's departures join the leaving list, and its remaining
// packets stay out of the queued bitmap. Then the pop sweep: the head of
// every marked queue leaves, swept like the lane kernel's depart and
// merged with the walks' departures, so the ring bucket gets the cycle's
// departures in ascending arc order. Every waiting node's depth is
// observed once, by its walk or at its first popped arc. start is the
// session clock at the Run's cycle 0.
//
//lint:hotpath
func (fr *faultRun) depart(cycle, start int) error {
	s, depth, nodeBits, slowBits := fr.s, fr.depth, fr.nodeBits, fr.slowBits
	pop := fr.poppable && (s != nil || fr.state.version == 0)
	downBits := fr.downNodes()
	fr.leaving, fr.walked = fr.leaving[:0], fr.walked[:0]
	if s != nil || !pop {
		for w := range nodeBits {
			wbits := nodeBits[w]
			for wbits != 0 {
				u := w<<6 + trailingZeros64(wbits)
				wbits &= wbits - 1
				if depth[u] == 0 {
					nodeBits[w] &^= 1 << (uint(u) & 63)
					continue
				}
				// A session node that has heard of no event routes by
				// its epoch-0 routing, which is its primary arc.
				if pop && (slowBits[w]|downBits[w])&(1<<(uint(u)&63)) == 0 && !s.heal.heard(u) {
					continue
				}
				if err := fr.walk(u, cycle, start); err != nil {
					return err
				}
			}
		}
	} else {
		for w := range slowBits {
			wbits := slowBits[w] | downBits[w]
			for wbits != 0 {
				u := w<<6 + trailingZeros64(wbits)
				wbits &= wbits - 1
				if depth[u] > 0 {
					if err := fr.walk(u, cycle, start); err != nil {
						return err
					}
				}
			}
		}
	}

	bucket := cycle % int(fr.hopLat)
	base := bucket * fr.m
	f := base
	q, qBits, arcTail, tl := fr.q, fr.qBits, fr.nw.arcTail, fr.tl
	ringPkt, ringArc, leaving := fr.ringPkt, fr.ringArc, fr.leaving
	j, seen := 0, int32(-1)
	for w := range qBits {
		bits := qBits[w]
		for bits != 0 {
			tz := trailingZeros64(bits)
			bits &= bits - 1
			//lint:ignore slabindex a < M, dominated by newNetwork's guardIndexInt32
			a := int32(w<<6 + tz)
			for ; j < len(leaving) && leaving[j].arc < a; j++ {
				ringPkt[f], ringArc[f] = leaving[j].pkt, leaving[j].arc
				f++
			}
			pk, empty := q.pop(int(a))
			if empty {
				qBits[w] &^= 1 << uint(tz)
			}
			t := arcTail[a]
			if tl != nil && t != seen {
				tl.NodeQueueDepth(int(depth[t]))
				seen = t
			}
			if s != nil && len(s.heal.suspicion) > 0 {
				s.transmitted(Arc{Tail: int(t), Index: int(a - fr.nw.arcBase[t])}, start+cycle)
			}
			depth[t]--
			ringPkt[f], ringArc[f] = pk, a
			f++
		}
	}
	fr.pops += int64(f - base - j)
	for ; j < len(leaving); j++ {
		ringPkt[f], ringArc[f] = leaving[j].pkt, leaving[j].arc
		f++
	}
	//lint:ignore slabindex at most one departure per arc, below M
	fr.ringFill[bucket] = int32(f - base)
	// The walked nodes' remaining packets sat out the sweep; mark their
	// queues again.
	arcBase := fr.nw.arcBase
	for _, u := range fr.walked {
		for a := arcBase[u]; a < arcBase[u+1]; a++ {
			if q.ends[a].length > 0 {
				qBits[a>>6] |= 1 << (uint32(a) & 63)
			}
		}
	}
	return nil
}

// downNodes returns the nodes with an out-arc down in the fault view as
// a bitmap, rebuilt when the view changes (all clear when no arc fault
// is scheduled).
func (fr *faultRun) downNodes() []uint64 {
	st := fr.state
	if st.arcDown != nil && (fr.viewLo != st.viewLo || fr.viewHi != st.viewHi) {
		fr.viewLo, fr.viewHi = st.viewLo, st.viewHi
		clearBits(fr.downBits)
		for w, bits := range st.arcDown {
			for bits != 0 {
				t := fr.nw.arcTail[w<<6+trailingZeros64(bits)]
				bits &= bits - 1
				fr.downBits[t>>6] |= 1 << (uint32(t) & 63)
			}
		}
	}
	return fr.downBits
}

// walk is node u's departure by its FIFO (d packets): each packet in
// stamp order forwards if it can, each out-arc accepting one attempt per
// cycle, and the packets that stay are filed back under their primary
// arcs, which keeps every queue in stamp order. The departures join the
// cycle's leaving list in arc order.
func (fr *faultRun) walk(u, cycle, start int) error {
	fr.walks++
	//lint:ignore slabindex cycle ≤ maxCycles, dominated by setup's guardIndexInt32
	cycle32 := int32(cycle)
	nw, s, oracle, tl := fr.nw, fr.s, fr.oracle, fr.tl
	if tl != nil {
		tl.NodeQueueDepth(int(fr.depth[u]))
	}
	arcHead := nw.arcHead
	hot, busy, leave, q := fr.hot, fr.busy, fr.leave, fr.q
	ttl, qcap, traced := fr.ttl, fr.qcap, fr.traced
	down, permanent := fr.state.arcDown, fr.state.version > 0
	fr.busyToken++
	token := fr.busyToken
	base := nw.arcBase[u]
	//lint:ignore slabindex M+u < M+n, within queueLinks' guard
	own := int32(fr.m + u)
	var kept int32
	slow := false
	for _, i := range fr.gather(u) {
		h := &hot[i]
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
				// fromPrimary's first branch — the primary arc when it is
				// up and no permanent fault is active — is the bit test
				// above; anything else takes the cascade.
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
				to := arcHead[base+arc]
				sent := false
				switch {
				case qcap > 0 && to != h.dst && fr.full(int(to)):
					// Credit-based backpressure: the downstream node is
					// full (delivery always absorbs), so the packet holds
					// in place instead of deepening to's queue.
					if !fr.holdIn(i, int(fr.depth[to])) {
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
						// Off the primary arc the packet leaves the shortest
						// path its carried state describes: the next node
						// recomputes it.
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
					leave[arc] = i
					continue
				}
			}
		}
		// i stays, back in the queue it was gathered from, which the pop
		// sweep skips this cycle.
		if h.prim < 0 {
			q.push(own, i)
		} else {
			q.push(base+h.prim, i)
		}
		kept++
		slow = slow || h.prim < 0 || h.hops >= ttl || h.readyAt > cycle32+1
	}
	fr.depth[u] = kept
	bit := uint64(1) << (uint(u) & 63)
	if slow {
		fr.slowBits[u>>6] |= bit
	} else {
		fr.slowBits[u>>6] &^= bit
	}
	if kept == 0 {
		fr.nodeBits[u>>6] &^= bit
	} else {
		//lint:ignore slabindex a node id, below n, which newNetwork's guardIndexInt32 bounds
		fr.walked = append(fr.walked, int32(u))
	}
	for k, i := range leave[:nw.arcBase[u+1]-base] {
		if i >= 0 {
			//lint:ignore slabindex a flat arc index, below M
			fr.leaving = append(fr.leaving, departure{arc: base + int32(k), pkt: i})
			leave[k] = -1
		}
	}
	return nil
}

// gather empties node u's queues — its out-arcs' and its own — into the
// fifo buffer in stamp order and returns it: the node's FIFO. Each queue
// is already in stamp order, so this is a merge of at most out-degree+1
// lists, read in place through their links.
func (fr *faultRun) gather(u int) []int32 {
	q, hot, qBits := fr.q, fr.hot, fr.qBits
	lo, hi := fr.nw.arcBase[u], fr.nw.arcBase[u+1]
	//lint:ignore slabindex M+u < M+n, within queueLinks' guard
	own := int32(fr.m + u)
	heads, left := fr.heads[:0], fr.left[:0]
	for a := lo; a <= hi; a++ {
		qa := a
		if a == hi {
			qa = own
		} else {
			qBits[a>>6] &^= 1 << (uint32(a) & 63)
		}
		if n := q.ends[qa].length; n > 0 {
			heads, left = append(heads, q.peek(qa)), append(left, n)
			q.ends[qa] = queueEnds{tail: q.head + qa}
		}
	}
	fifo := fr.fifo[:0]
	for len(heads) > 0 {
		j := 0
		for k := 1; k < len(heads); k++ {
			if hot[heads[k]].stamp-hot[heads[j]].stamp < 0 {
				j = k
			}
		}
		fifo = append(fifo, heads[j])
		if left[j]--; left[j] > 0 {
			heads[j] = q.link[heads[j]]
		} else {
			last := len(heads) - 1
			heads[j], left[j] = heads[last], left[last]
			heads, left = heads[:last], left[:last]
		}
	}
	fr.heads, fr.left, fr.fifo = heads, left, fifo
	return fifo
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

// full reports whether node v is at its bound of QueueCapacity packets
// per out-arc (never, with unbounded queues).
func (fr *faultRun) full(v int) bool {
	return fr.qcap > 0 && int(fr.depth[v]) >= fr.qcap*int(fr.nw.arcBase[v+1]-fr.nw.arcBase[v])
}

// holdIn charges one hold-in-place cycle to packet i's lifetime budget,
// recorded at the refusing node's depth; false: the budget is exhausted
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
// deterministic: node FIFOs, then the links by arc and departure cycle
// (at their tails), then source-held packets, then never-injected ones.
func (fr *faultRun) drain(cycle int) {
	if fr.remaining == 0 {
		return
	}
	for w, bits := range fr.nodeBits {
		for bits != 0 {
			u := w<<6 + trailingZeros64(bits)
			bits &= bits - 1
			for _, i := range fr.gather(u) {
				fr.drop(i, cycle, u, &fr.res.Stuck, obs.DropStuck)
			}
		}
		fr.nodeBits[w] = 0
	}
	// In flight: the departures of the last HopLatency cycles, each
	// bucket in arc order, merged oldest first.
	var links []departure
	hopLat := int(fr.hopLat)
	for c := max(cycle-hopLat, 0); c < cycle; c++ {
		b := c % hopLat
		for e := b * fr.m; e < b*fr.m+int(fr.ringFill[b]); e++ {
			links = append(links, departure{arc: fr.ringArc[e], pkt: fr.ringPkt[e]})
		}
	}
	slices.SortStableFunc(links, func(x, y departure) int { return cmp.Compare(x.arc, y.arc) })
	for _, l := range links {
		fr.drop(l.pkt, cycle, int(fr.nw.arcTail[l.arc]), &fr.res.Stuck, obs.DropStuck)
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
