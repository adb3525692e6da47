package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The lane kernel runs every plain run with unbounded queues, no
// admission control and no trace: a sequential run is one lane, a
// sharded run (WithShards) S of them. A lane owns a contiguous node
// range (a word prefix of de Bruijn congruence labels) and with it the
// queues, departure-ring entries and queued-bitmap bits of those nodes'
// out-arcs, plus every packet queued there; the left-shift arc rule
// sends a range's out-arcs into at most d+1 other ranges. A cycle is two
// phases per lane, separated by a barrier:
//
//	A (arrive):  scan the lane's ring bucket; count each hop; deliver in
//	             place; append every other packet, at its node with its
//	             destination, to the routing batch of the lane owning the
//	             node (an outbox). One lane has no outboxes: its released
//	             packets open its batch and the arrivals follow them.
//	B (enqueue + depart): gather the lane's released packets into its
//	             injection batch, then route and push that batch and the
//	             lane's inboxes in sender order, each batch as one routing
//	             pass and one push pass; then pop one packet per non-empty
//	             queue into the lane's ring bucket.
//
// The result is identical for every lane and worker count
// (TestShardRunMatchesSequential pins it against the frozen reference):
//
//   - Queue push order. The single-lane order is injections in global
//     (Release, index) order, then arrivals in ascending arrival-arc
//     order. A lane's injection order is a subsequence of the global
//     one, and its inboxes in sender order are ascending in arrival arc,
//     because sender arc ranges are disjoint and ascending. Pushes to a
//     queue happen only on its owning lane, so every queue sees the
//     single-lane push sequence.
//   - MaxQueue / HotNode. Each lane records the first observation of its
//     local maximum depth, keyed by the single-lane processing order
//     (cycle, phase injection<arrival, global order position | arrival
//     arc); the merge takes the deepest lane, ties to the smallest key —
//     the single-lane first-strictly-greater rule. A position in a
//     per-receiver outbox does not order observations across lanes, so
//     outboxes carry each packet's arrival arc.
//   - PeakResident. Within a cycle every injection precedes every leave,
//     so the running peak is resident + injected; the barrier-B
//     reduction computes it from per-lane injected/left counts.
//
// A router answers a given (at, dst) the same way every time, so the
// setup's route-or-drop precheck guarantees that every injection routes;
// a no-route drop can only follow a hop.
//
// Workers coordinate through a spin barrier (sense-reversing epoch, one
// atomic add per worker per phase); the last arriver runs the cycle
// reduction. min(S, GOMAXPROCS) workers each own a static stride of
// lanes, so the result does not depend on how the Go scheduler
// interleaves them.

// lane is one lane's execution state, padded apart so the per-cycle
// counters of neighbouring lanes do not share a cache line.
type lane struct {
	arcLo, arcHi int32 // owned arcs: the out-arcs of a contiguous node range

	// qBits bit b ⇔ queue arcLo+b is non-empty (a shared bitmap would
	// race on the words straddling lane boundaries).
	qBits []uint64
	// ringFill[b] counts the lane's entries of ring bucket b: entries
	// [b·M+arcLo, b·M+arcLo+ringFill[b]), its departures at the cycles ≡ b
	// mod HopLatency in ascending arc order.
	ringFill []int32

	// order is the lane's share of the run's injection order (packet
	// indices) and pos their positions in it, the injection tie key (nil
	// on one lane, whose order is the run's).
	order, pos []int32
	cursor     int

	inj    laneBatch   // this cycle's injections (more than one lane)
	out    []laneBatch // out[t]: this cycle's arrivals at lane t's nodes
	arcsTo []int       // arcsTo[t]: owned arcs whose head lane t owns (several lanes)

	// Run accumulators, merged after the workers join.
	delivered, dropped int
	cycles             int // last delivery cycle seen by this lane
	maxQueue, hotNode  int
	hotCycle, hotPhase int32 // phase 0: injection, 1: arrival
	hotKey             int32 // global order position or arrival arc

	// Per-cycle reduction inputs, reset by the owner in phase A and summed
	// by the barrier-B coordinator: packets entering the buffers, and
	// leaving them (delivered or dropped).
	injected, left int32

	_ [8]int64
}

// laneBatch is one routing batch: n packets entering a lane's nodes, each
// with its node and its destination, which the routing pass rewrites to
// the flat out-arc it leaves on (−1: no route). key holds each entry's
// tie key when the run has more than one lane (nil otherwise).
type laneBatch struct {
	pkt, node, arc, key []int32
	n                   int
}

// reserve sizes a keyed batch for up to c entries.
func (b *laneBatch) reserve(c int) {
	if cap(b.pkt) < c {
		b.pkt, b.node, b.arc, b.key = make([]int32, c), make([]int32, c), make([]int32, c), make([]int32, c)
	}
	b.pkt, b.node, b.arc, b.key = b.pkt[:c], b.node[:c], b.arc[:c], b.key[:c]
}

// laneRun is the pooled state of one lane-kernel run, kept in the
// run's arena. The slabs are the run's (runState); every entry is owned
// by exactly one lane at any instant — queues and ring entries by the arc
// owner, packet metadata by the lane buffering the packet — and the
// barriers hand ownership over between phases.
type laneRun struct {
	m, hopLat, maxCycles int

	arcBase, arcHead []int32
	router           Router
	tArcs            []int8 // devirtualized routing, as in runState
	tN               int
	shift            *DeBruijnRouter
	carry            []int32
	tl               *obs.Tally // nil unless the run has one lane

	pkts                []Packet
	dst, rel, del, hops []int32
	q                   arcQueues
	ringPkt, ringArc    []int32

	// Balanced contiguous partition: the first rem lanes own per+1 nodes,
	// the rest per; splitAt = rem·(per+1) is the first node of the tail.
	per, rem, splitAt int
	lanes             []lane

	// Spin barrier: arrived counts workers into the rendezvous, epoch
	// releases them. The last arriver runs the cycle reduction, then
	// resets arrived and bumps epoch; the atomic publication orders its
	// plain writes below before every other worker's next read.
	arrived atomic.Int32
	epoch   atomic.Uint32

	// Cycle globals, written only by the barrier coordinator.
	remaining, resident, peak int
}

// shardWorkers is the worker-pool size a lane count implies: one worker
// per lane, capped at GOMAXPROCS — goroutines beyond the runnable-thread
// count would only add scheduling overhead to the spin barriers.
func shardWorkers(shards int) int {
	return min(shards, runtime.GOMAXPROCS(0))
}

// partition cuts nw's nodes into S contiguous lanes, unless the engine
// already holds that partition (an arena serves one Network, so only the
// lane count can change it).
func (e *laneRun) partition(nw *Network, S int) {
	if len(e.lanes) == S {
		return
	}
	n := nw.g.N()
	e.per, e.rem = n/S, n%S
	e.splitAt = e.rem * (e.per + 1)
	e.lanes = make([]lane, S)
	lo := 0
	for s := range e.lanes {
		size := e.per
		if s < e.rem {
			size++
		}
		la := &e.lanes[s]
		la.arcLo, la.arcHi = nw.arcBase[lo], nw.arcBase[lo+size]
		la.qBits = make([]uint64, (int(la.arcHi-la.arcLo)+63)/64)
		la.ringFill = make([]int32, nw.cfg.HopLatency)
		la.out = make([]laneBatch, S)
		if S > 1 {
			la.arcsTo = make([]int, S)
			for a := la.arcLo; a < la.arcHi; a++ {
				la.arcsTo[e.laneOf(nw.arcHead[a])]++
			}
		}
		lo += size
	}
}

// laneOf maps a node to its owning lane.
//
//lint:hotpath
func (e *laneRun) laneOf(v int32) int {
	iv := int(v)
	if iv < e.splitAt {
		return iv / (e.per + 1)
	}
	return e.rem + (iv-e.splitAt)/e.per
}

// runLanes runs the lane kernel over the routed packets in order — rs's
// run, set up by run — on tun.shards lanes (0: one) and tun.workers
// goroutines (0: shardWorkers), and merges the lanes into rs.res. A
// recorded run (rs.tl non-nil) must have one lane.
func (nw *Network) runLanes(ar *arena, rs *runState, order []int32, maxCycles, remaining int, tun runTuning) {
	S := max(tun.shards, 1)
	e := &ar.lanes
	e.partition(nw, S)
	e.m, e.hopLat, e.maxCycles = int(nw.arcBase[nw.g.N()]), nw.cfg.HopLatency, maxCycles
	e.arcBase, e.arcHead, e.router = nw.arcBase, nw.arcHead, nw.router
	e.tArcs, e.tN, e.shift, e.carry, e.tl = rs.tArcs, rs.tN, rs.shift, rs.carry, rs.tl
	e.pkts, e.dst, e.rel, e.del, e.hops, e.q = rs.pkts, rs.dst, rs.rel, rs.del, rs.hops, rs.q
	e.ringPkt, e.ringArc = ar.departureRing(e.m, e.hopLat)
	e.remaining, e.resident, e.peak = remaining, 0, 0
	e.arrived.Store(0)
	e.epoch.Store(0)

	// Reset the lanes (a truncated run may have left queues, ring
	// entries and batches filled) and deal out the injection order.
	p := len(rs.pkts)
	for s := range e.lanes {
		la := &e.lanes[s]
		clearBits(la.qBits)
		clearInt32(la.ringFill)
		la.cursor = 0
		la.delivered, la.dropped, la.cycles, la.maxQueue, la.hotNode = 0, 0, 0, 0, 0
		la.hotCycle, la.hotPhase, la.hotKey = 0, 0, 0
		if S == 1 {
			// Injections and arrivals share the one batch, and a
			// packet enters a node at most once a cycle.
			la.order, la.pos = order, nil
			b := &la.out[0]
			b.pkt, b.node, b.arc = ar.arrivalBatch(p)
			continue
		}
		la.order, la.pos = la.order[:0], la.pos[:0]
		for t := range la.out {
			la.out[t].reserve(min(la.arcsTo[t], p))
		}
	}
	if S > 1 {
		guardIndexInt32(max(len(order), nw.g.N()), "packets and nodes")
		for pos, i := range order {
			la := &e.lanes[e.laneOf(int32(rs.pkts[i].Src))]
			la.order = append(la.order, i)
			la.pos = append(la.pos, int32(pos))
		}
		for s := range e.lanes {
			la := &e.lanes[s]
			la.inj.reserve(len(la.order))
		}
	}

	workers := tun.workers
	if workers < 1 {
		workers = shardWorkers(S)
	}
	e.exec(min(workers, S))

	res := &rs.res
	res.PeakResident = e.peak
	var best *lane
	for s := range e.lanes {
		la := &e.lanes[s]
		res.Delivered += la.delivered
		res.Dropped += la.dropped
		res.Cycles = max(res.Cycles, la.cycles)
		if la.maxQueue > 0 && (best == nil || laneHotter(la, best)) {
			best = la
		}
	}
	if best != nil {
		res.MaxQueue, res.HotNode = best.maxQueue, best.hotNode
	}
	e.pkts = nil // the packet table is the Result's; the pooled arena must not keep it
}

// exec runs the cycle loop on workers goroutines (one runs it inline).
func (e *laneRun) exec(workers int) {
	if workers == 1 {
		e.worker(0, 1)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(id, workers)
		}(w)
	}
	wg.Wait()
}

// worker runs lanes w, w+workers, w+2·workers, … through the cycle loop.
// Every worker reads the same reduction-published remaining count, so
// all of them execute the same number of rendezvous.
//
//lint:hotpath
func (e *laneRun) worker(w, workers int) {
	for cycle := 0; e.remaining > 0 && cycle <= e.maxCycles; cycle++ {
		for s := w; s < len(e.lanes); s += workers {
			e.arrive(s, cycle)
		}
		e.rendezvous(workers, false)
		for s := w; s < len(e.lanes); s += workers {
			e.enqueue(s, cycle)
		}
		e.rendezvous(workers, true)
	}
}

// rendezvous is the spin barrier. The last arriver optionally runs the
// cycle reduction before releasing the epoch; everyone else yields
// until the epoch moves (Gosched keeps single-P runs live).
//
//lint:hotpath
func (e *laneRun) rendezvous(workers int, reduce bool) {
	ep := e.epoch.Load()
	//lint:ignore slabindex workers <= lanes <= node count, guarded at newNetwork
	if e.arrived.Add(1) == int32(workers) {
		if reduce {
			inj, left := 0, 0
			for s := range e.lanes {
				inj += int(e.lanes[s].injected)
				left += int(e.lanes[s].left)
			}
			e.peak = max(e.peak, e.resident+inj)
			e.resident += inj - left
			e.remaining -= left
		}
		e.arrived.Store(0)
		e.epoch.Store(ep + 1)
		return
	}
	for e.epoch.Load() == ep {
		runtime.Gosched()
	}
}

// inject appends lane la's packets released by cycle32 to b, each at its
// source with its destination (and its order position as tie key).
//
//lint:hotpath
func (e *laneRun) inject(la *lane, b *laneBatch, cycle32 int32) {
	order, rel, dst, pkts := la.order, e.rel, e.dst, e.pkts
	pkt, node, arc, key := b.pkt, b.node, b.arc, b.key
	n, c := b.n, la.cursor
	for ; c < len(order) && rel[order[c]] <= cycle32; c++ {
		i := order[c]
		//lint:ignore slabindex a node id, below n, which newNetwork's guardIndexInt32 bounds
		pkt[n], node[n], arc[n] = i, int32(pkts[i].Src), dst[i]
		if key != nil {
			key[n] = la.pos[c]
		}
		n++
	}
	//lint:ignore slabindex at most one entry per packet, guarded at run entry
	la.injected = int32(n - b.n)
	la.cursor, b.n = c, n
}

// arrive is phase A for lane s: the packets its arcs sent HopLatency
// cycles ago arrive now, in ascending arc order. Each hop is counted; a
// packet at its destination is delivered in place, any other is appended
// to the batch of the lane owning its node — on one lane its own batch,
// behind the cycle's injections, with no lane lookup and no tie key.
//
//lint:hotpath
func (e *laneRun) arrive(s, cycle int) {
	la := &e.lanes[s]
	la.injected, la.left = 0, 0
	//lint:ignore slabindex cycle ≤ maxCycles, dominated by run's guardIndexInt32
	cycle32 := int32(cycle)
	bucket := cycle % e.hopLat
	base := bucket*e.m + int(la.arcLo)
	sentPkt := e.ringPkt[base : base+int(la.ringFill[bucket])]
	sentArc := e.ringArc[base : base+len(sentPkt)]
	arcHead, dst, del, hops, tl := e.arcHead, e.dst, e.del, e.hops, e.tl
	one := len(e.lanes) == 1
	own := &la.out[0]
	if one {
		own.n = 0
		e.inject(la, own, cycle32)
	} else {
		for t := range la.out {
			la.out[t].n = 0
		}
	}
	pkt, node, arc, n := own.pkt, own.node, own.arc, own.n
	for k, pk := range sentPkt {
		a := sentArc[k]
		hops[pk]++
		if tl != nil {
			tl.ArcTraverse(int(a))
		}
		v, dv := arcHead[a], dst[pk]
		if dv == v {
			del[pk] = cycle32
			la.delivered++
			la.left++
			la.cycles = cycle
			continue
		}
		if one {
			pkt[n], node[n], arc[n] = pk, v, dv // destination, routed in phase B
			n++
			continue
		}
		b := &la.out[e.laneOf(v)]
		b.pkt[b.n], b.node[b.n], b.arc[b.n], b.key[b.n] = pk, v, dv, a
		b.n++
	}
	if one {
		own.n = n
	}
}

// enqueue is phase B for lane s: route and push its injections (on
// several lanes) and its inboxes in sender order, then depart.
//
//lint:hotpath
func (e *laneRun) enqueue(s, cycle int) {
	la := &e.lanes[s]
	//lint:ignore slabindex cycle ≤ maxCycles, dominated by run's guardIndexInt32
	cycle32 := int32(cycle)
	if len(e.lanes) > 1 {
		la.inj.n = 0
		e.inject(la, &la.inj, cycle32)
		e.route(&la.inj)
		e.push(la, &la.inj, 0, cycle32)
	}
	for from := range e.lanes {
		b := &e.lanes[from].out[s]
		e.route(b)
		e.push(la, b, 1, cycle32)
	}
	e.depart(la, cycle)
}

// route rewrites each entry of b from its destination to the flat
// out-arc it leaves its node on (−1: no route): under table routing a
// pass of independent slab gathers, under shift routing a pass of
// carried-state steps (advancing each packet's state: queues are
// unbounded, so every routed packet is pushed), and for any other router
// (a custom one, or a table too wide for the int8 slab) one interface
// call per entry.
//
//lint:hotpath
func (e *laneRun) route(b *laneBatch) {
	pkt, node, arc := b.pkt[:b.n], b.node[:b.n], b.arc[:b.n]
	arcBase, shift := e.arcBase, e.shift
	switch tArcs, tN, carry := e.tArcs, e.tN, e.carry; {
	case tArcs != nil:
		for k, v := range node {
			a := int32(tArcs[int(v)*tN+int(arc[k])])
			flat := arcBase[v] + a
			if a < 0 {
				flat = -1
			}
			arc[k] = flat
		}
	case carry != nil:
		for k, v := range node {
			p := pkt[k]
			a, next := shift.step(int(v), carry[p])
			//lint:ignore slabindex a < maxDeg ≤ M, dominated by newNetwork's guardIndexInt32
			arc[k], carry[p] = arcBase[v]+int32(a), next
		}
	default:
		for k, v := range node {
			//lint:ignore slabindex the arc is −1 or below maxDeg ≤ M, dominated by newNetwork's guardIndexInt32
			a := int32(e.router.NextArc(int(v), int(arc[k])))
			flat := arcBase[v] + a
			if a < 0 {
				flat = -1
			}
			arc[k] = flat
		}
	}
}

// push links b's routed packets onto their queues in batch order, keeps
// lane la's queued bitmap and MaxQueue observation (phase is the
// observation's tie-break phase), and drops the unroutable ones.
//
//lint:hotpath
func (e *laneRun) push(la *lane, b *laneBatch, phase, cycle32 int32) {
	q, qBits, lo, tl := e.q, la.qBits, la.arcLo, e.tl
	pkt := b.pkt[:b.n]
	for k, flat := range b.arc[:b.n] {
		if flat < 0 {
			la.dropped++
			la.left++
			if tl != nil {
				tl.Drop(obs.DropNoRoute)
			}
			continue
		}
		bit := flat - lo
		qBits[bit>>6] |= 1 << (uint32(bit) & 63)
		depth := int(q.push(flat, pkt[k]))
		if depth > la.maxQueue {
			la.maxQueue, la.hotNode = depth, int(b.node[k])
			la.hotCycle, la.hotPhase = cycle32, phase
			if b.key != nil {
				la.hotKey = b.key[k]
			}
		}
		if tl != nil {
			tl.QueueDepth(int(flat), depth)
		}
	}
}

// depart pops one packet per non-empty queue of lane la into its ring
// bucket for this cycle, in ascending arc order: the bucket phase A read,
// which these departures arrive from HopLatency cycles later.
//
//lint:hotpath
func (e *laneRun) depart(la *lane, cycle int) {
	q, qBits, lo := e.q, la.qBits, int(la.arcLo)
	bucket := cycle % e.hopLat
	base := bucket*e.m + lo
	f := base
	for w := range qBits {
		bits := qBits[w]
		for bits != 0 {
			tz := trailingZeros64(bits)
			bits &= bits - 1
			a := lo + w<<6 + tz
			pk, empty := q.pop(a)
			if empty {
				qBits[w] &^= 1 << uint(tz)
			}
			//lint:ignore slabindex a < M, dominated by newNetwork's guardIndexInt32
			e.ringPkt[f], e.ringArc[f] = pk, int32(a)
			f++
		}
	}
	//lint:ignore slabindex at most one departure per owned arc, below M
	la.ringFill[bucket] = int32(f - base)
}

// laneHotter reports whether a's MaxQueue observation beats b's: deeper
// wins, equal depth ties to the earlier single-lane processing key — the
// lane whose observation one lane would have made first.
func laneHotter(a, b *lane) bool {
	if a.maxQueue != b.maxQueue {
		return a.maxQueue > b.maxQueue
	}
	if a.hotCycle != b.hotCycle {
		return a.hotCycle < b.hotCycle
	}
	if a.hotPhase != b.hotPhase {
		return a.hotPhase < b.hotPhase
	}
	return a.hotKey < b.hotKey
}
