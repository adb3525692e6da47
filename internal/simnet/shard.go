package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The prefix-sharded cycle engine. shardRun partitions the nodes into S
// contiguous label ranges (word-prefix shards: de Bruijn congruence
// labels sharing their high-order digits are contiguous integers) and
// executes the lean arc-major cycle kernel on every shard concurrently.
// Each shard exclusively owns the queue, link and activity-bitmap state
// of its nodes' out-arcs and every packet currently buffered there, so
// the per-cycle phases run without locks; the only cross-shard traffic
// is the hop handoff, carried in per-cycle batched outboxes (one append
// per crossing packet, drained by the receiver next phase) rather than
// shared queues. De Bruijn's left-shift arc structure keeps that cut
// statically enumerable and cheap: the out-arcs of a contiguous label
// range land in at most d+1 other ranges.
//
// A cycle is two barrier-separated phases:
//
//	A (arrive):  scan own departure-ring bucket; count each hop; deliver
//	             in place; collect packets that must forward into
//	             outbox[destination shard], tagged with their arrival arc.
//	B (enqueue + depart): inject own released packets, drain inboxes
//	             in sender-shard order, route at the arrival node and
//	             push; then pop one packet per non-empty own queue
//	             into own ring bucket.
//
// The engine reproduces the sequential engine bit for bit, for every
// shard and worker count (TestShardRunMatchesSequential pins it):
//
//   - Queue push order. The sequential kernel pushes injections first
//     (global (Release, index) order) and then arrivals in ascending
//     arrival-arc order. Per-shard order slices are subsequences of the
//     global order; inbox concatenation in sender order is ascending in
//     arrival arc because sender arc ranges are disjoint and ascending.
//     Pushes to any single queue happen only on its owning shard, so
//     every queue sees exactly the sequential push sequence.
//   - MaxQueue / HotNode. Each lane records the first observation of
//     its local maximum depth keyed by the sequential processing order
//     (cycle, phase injection<arrival, global order position | arrival
//     arc); the merge takes the deepest lane, ties to the smallest key
//     — exactly the sequential first-strictly-greater update rule.
//   - PeakResident. Within a cycle the sequential engine injects before
//     any packet leaves, so its running peak is resident + injected;
//     the barrier-B reduction computes exactly that from per-lane
//     injection/leave counts regardless of physical phase order.
//
// Workers coordinate through a spin barrier (sense-reversing epoch, one
// atomic add per worker per phase); the last arriver runs the cycle
// reduction. min(S, GOMAXPROCS) workers each own a static stride of
// shards, so the schedule — and therefore the result — is independent
// of how the Go scheduler interleaves them.

// shardLane is the per-shard execution state. Lanes are padded apart so
// the per-cycle counters of neighbouring shards do not share a cache
// line.
type shardLane struct {
	nodeLo, nodeHi int32 // owned nodes [nodeLo, nodeHi)
	arcLo, arcHi   int32 // owned arcs [arcLo, arcHi) = arcBase[nodeLo:nodeHi]

	// Local queued bitmap, bit b ⇔ arc arcLo+b (a shared global bitmap
	// would race on the words straddling shard boundaries).
	qBits []uint64

	// The lane's departure ring: bucket b is entries [b·M+arcLo,
	// b·M+arcLo+ringFill[b]) of the engine's ring slabs — the lane's
	// departures at the cycles ≡ b mod HopLatency, in ascending arc
	// order (at most one per owned arc).
	ringFill []int32

	// Per-cycle handoff outboxes: outPkt[t] holds the packets crossing
	// into shard t this cycle, outArc[t] their arrival arcs (the arc
	// they traversed — its head is the arrival node). Reset by the owner
	// at the start of phase A, read by shard t in phase B.
	outPkt, outArc [][]int32

	// order holds this shard's subsequence of the global injection
	// order, as positions into the engine's order slice; cursor walks it.
	order  []int32
	cursor int

	// Run accumulators, merged after the workers join.
	delivered, dropped int
	cycles             int // last delivery cycle seen by this lane
	maxQueue           int
	hotNode            int
	hotCycle           int32 // sequential-order key of the maxQueue observation
	hotPhase           int32 // 0: injection, 1: arrival
	hotKey             int32 // global order position (injection) or arrival arc

	// Per-cycle reduction inputs: packets entering the network's
	// buffers, leaving them (delivered or dropped mid-flight), and
	// removed from the remaining count (leavers plus injection-time
	// no-route drops). Reset by the owner each phase A, summed by the
	// barrier-B coordinator.
	injected, left, removed int32

	_ [8]int64 // pad lanes onto separate cache lines
}

// shardEngine is the pooled state of one sharded run. The global slabs
// are the same arena storage the sequential kernel uses; every entry is
// owned by exactly one lane at any instant (queues and ring entries by
// the arc owner, packet metadata by the shard currently buffering the
// packet), and the barriers transfer ownership between phases.
type shardEngine struct {
	nw *Network
	S  int

	m, hopLat int

	// Router devirtualization, as in the sequential kernel; carry is
	// the per-packet carried shift state (nil unless shift.carries()).
	tArcs []int8
	tN    int
	shift *DeBruijnRouter
	carry []int32

	// Balanced contiguous partition: the first r shards own q+1 nodes,
	// the rest q; splitAt = r·(q+1) is the first node of the q-sized
	// tail.
	q, r, splitAt int

	pkts                []Packet
	order               []int32
	dst, rel, del, hops []int32
	queues              arcQueues
	ringPkt, ringArc    []int32 // the departure ring (arena.departureRing)

	lanes []shardLane

	maxCycles int

	// Spin barrier: arrive counts workers into the rendezvous, epoch
	// releases them. The last arriver (the coordinator) runs the cycle
	// reduction, then resets arrive and bumps epoch; the atomic epoch
	// publication orders its plain writes below before every other
	// worker's next read.
	arrive atomic.Int32
	epoch  atomic.Uint32

	// Cycle globals: written only by the barrier coordinator between
	// the last arrival and the epoch bump, read by all workers after
	// release.
	remaining int
	resident  int
	peak      int
}

// shardWorkers is the worker-pool size a shard count implies: one
// worker per shard, capped at GOMAXPROCS — goroutines beyond the
// runnable-thread count would only add scheduling overhead to the spin
// barriers.
func shardWorkers(shards int) int {
	if p := runtime.GOMAXPROCS(0); shards > p {
		return p
	}
	return shards
}

// newShardEngine builds the lane partition for S shards of nw's graph.
func newShardEngine(nw *Network, S int) *shardEngine {
	n := nw.g.N()
	guardIndexInt32(n, "nodes")
	e := &shardEngine{nw: nw, S: S}
	e.q, e.r = n/S, n%S
	e.splitAt = e.r * (e.q + 1)
	e.lanes = make([]shardLane, S)
	lo := 0
	for s := 0; s < S; s++ {
		size := e.q
		if s < e.r {
			size++
		}
		la := &e.lanes[s]
		la.nodeLo, la.nodeHi = int32(lo), int32(lo+size)
		la.arcLo, la.arcHi = nw.arcBase[lo], nw.arcBase[lo+size]
		words := (int(la.arcHi-la.arcLo) + 63) / 64
		la.qBits = make([]uint64, words)
		la.ringFill = make([]int32, nw.cfg.HopLatency)
		la.outPkt = make([][]int32, S)
		la.outArc = make([][]int32, S)
		lo += size
	}
	return e
}

// shardOf maps a node to its owning shard under the balanced contiguous
// partition.
//
//lint:hotpath
func (e *shardEngine) shardOf(v int32) int {
	iv := int(v)
	if iv < e.splitAt {
		return iv / (e.q + 1)
	}
	return e.r + (iv-e.splitAt)/e.q
}

// getShardEngine checks a shard engine out of the pool, reset for a new
// run (a previous truncated run may have left bitmaps, ring fills and
// outboxes populated). Engines are per-Network, so only the shard count
// can invalidate a pooled one.
func (nw *Network) getShardEngine(S int) *shardEngine {
	e, ok := nw.shardScratch.Get().(*shardEngine)
	if !ok || e.S != S {
		e = newShardEngine(nw, S)
	}
	for s := range e.lanes {
		la := &e.lanes[s]
		clearBits(la.qBits)
		clearInt32(la.ringFill)
		for t := range la.outPkt {
			la.outPkt[t] = la.outPkt[t][:0]
			la.outArc[t] = la.outArc[t][:0]
		}
		la.order = la.order[:0]
		la.cursor = 0
		la.delivered, la.dropped, la.cycles = 0, 0, 0
		la.maxQueue, la.hotNode = 0, 0
		la.hotCycle, la.hotPhase, la.hotKey = 0, 0, 0
		la.injected, la.left, la.removed = 0, 0, 0
	}
	e.arrive.Store(0)
	e.epoch.Store(0)
	e.remaining, e.resident, e.peak = 0, 0, 0
	return e
}

// route returns packet p's out-arc at node at with the devirtualized
// built-in router — the table gather, the carried shift state stepped
// and advanced (sharded queues are unbounded, so every routed packet is
// pushed), or the closed-form congruence shift — falling back to
// interface dispatch for custom routers (routers are immutable and safe
// to share across lanes; a packet's carried state is owned by the lane
// buffering it).
//
//lint:hotpath
func (e *shardEngine) route(at, p int) int {
	if e.tArcs != nil {
		return int(e.tArcs[at*e.tN+int(e.dst[p])])
	}
	if e.carry != nil {
		arc, next := e.shift.step(at, e.carry[p])
		e.carry[p] = next
		return arc
	}
	if e.shift != nil {
		return e.shift.NextArc(at, int(e.dst[p]))
	}
	return e.nw.router.NextArc(at, int(e.dst[p]))
}

// rendezvous is the spin barrier. The last arriver optionally runs the
// cycle reduction before releasing the epoch; everyone else yields
// until the epoch moves (Gosched keeps single-P runs live).
//
//lint:hotpath
func (e *shardEngine) rendezvous(workers int, reduce bool) {
	ep := e.epoch.Load()
	//lint:ignore slabindex workers <= shards <= node count, guarded at engine build
	if e.arrive.Add(1) == int32(workers) {
		if reduce {
			e.reduceCycle()
		}
		e.arrive.Store(0)
		e.epoch.Store(ep + 1)
		return
	}
	for e.epoch.Load() == ep {
		runtime.Gosched()
	}
}

// reduceCycle folds the lanes' per-cycle counters into the run globals,
// replaying the sequential engine's in-cycle order analytically:
// injections precede every leave within a cycle, so the running peak is
// resident + injected.
//
//lint:hotpath
func (e *shardEngine) reduceCycle() {
	inj, left, removed := 0, 0, 0
	for s := range e.lanes {
		la := &e.lanes[s]
		inj += int(la.injected)
		left += int(la.left)
		removed += int(la.removed)
	}
	peakCand := e.resident + inj
	if peakCand > e.peak {
		e.peak = peakCand
	}
	e.resident = peakCand - left
	e.remaining -= removed
}

// worker runs shards w, w+workers, w+2·workers, … through the cycle
// loop. Every worker computes the identical continue condition from the
// reduction-published remaining count, so all of them execute the same
// number of rendezvous.
//
//lint:hotpath
func (e *shardEngine) worker(w, workers int) {
	for cycle := 0; e.remaining > 0 && cycle <= e.maxCycles; cycle++ {
		//lint:ignore slabindex cycle ≤ maxCycles, dominated by shardRun's guardIndexInt32
		cycle32 := int32(cycle)
		for s := w; s < e.S; s += workers {
			e.phaseArrive(s, cycle, cycle32)
		}
		e.rendezvous(workers, false)
		for s := w; s < e.S; s += workers {
			e.phaseEnqueue(s, cycle32)
			e.phaseDepart(s, cycle)
		}
		e.rendezvous(workers, true)
	}
}

// phaseArrive scans shard s's ring bucket: the packets its arcs sent
// HopLatency cycles ago arrive now, in ascending arc order. Each hop is
// counted; a packet at its destination is delivered in place, any other
// is appended to the destination shard's outbox with its arrival arc.
// Mirrors the lean kernel's arrival scan.
//
//lint:hotpath
func (e *shardEngine) phaseArrive(s, cycle int, cycle32 int32) {
	la := &e.lanes[s]
	la.injected, la.left, la.removed = 0, 0, 0
	for t := range la.outPkt {
		la.outPkt[t] = la.outPkt[t][:0]
		la.outArc[t] = la.outArc[t][:0]
	}
	arcHead := e.nw.arcHead
	dst, del, hops := e.dst, e.del, e.hops
	bucket := cycle % e.hopLat
	base := bucket*e.m + int(la.arcLo)
	for k := base; k < base+int(la.ringFill[bucket]); k++ {
		pk, a := e.ringPkt[k], e.ringArc[k]
		hops[pk]++
		v := arcHead[a]
		if dst[pk] == v {
			del[pk] = cycle32
			la.delivered++
			la.left++
			la.removed++
			la.cycles = cycle
			continue
		}
		t := e.shardOf(v)
		la.outPkt[t] = append(la.outPkt[t], pk)
		la.outArc[t] = append(la.outArc[t], a)
	}
}

// push routes nothing — the caller has the arc — it links pk onto the
// queue of out-arc arc of node at and maintains the lane's queued
// bitmap and MaxQueue observation. phase/key are the sequential-order
// tie-break key of the observation (see the package comment).
//
//lint:hotpath
func (e *shardEngine) push(la *shardLane, at, arc int, pk, cycle32, phase, key int32) {
	//lint:ignore slabindex arc < maxDeg ≤ M, dominated by shardRun's guardIndexInt32
	flat := e.nw.arcBase[at] + int32(arc)
	depth := int(e.queues.push(flat, pk))
	b := int(flat - la.arcLo)
	la.qBits[b>>6] |= 1 << (uint(b) & 63)
	if depth > la.maxQueue {
		la.maxQueue = depth
		la.hotNode = at
		la.hotCycle, la.hotPhase, la.hotKey = cycle32, phase, key
	}
}

// phaseEnqueue injects shard s's released packets (its subsequence of
// the global (Release, index) order), then drains its inboxes in
// sender-shard order — sender arc ranges are disjoint and ascending, so
// the concatenation replays the sequential kernel's ascending-
// arrival-arc push order — routing each packet at its arrival node.
//
//lint:hotpath
func (e *shardEngine) phaseEnqueue(s int, cycle32 int32) {
	la := &e.lanes[s]
	for la.cursor < len(la.order) {
		pos := la.order[la.cursor]
		pk := e.order[pos]
		i := int(pk)
		if e.rel[i] > cycle32 {
			break
		}
		la.cursor++
		at := e.pkts[i].Src
		arc := e.route(at, i)
		if arc < 0 {
			// Only a custom router reaches this: table injections were
			// route-prechecked at setup, and shift routing reaches every
			// dst ≠ src. Matches the sequential injection-time drop
			// (never entered, so not a leave).
			la.dropped++
			la.removed++
			continue
		}
		e.push(la, at, arc, pk, cycle32, 0, pos)
		la.injected++
	}
	arcHead := e.nw.arcHead
	for from := range e.lanes {
		inPkt := e.lanes[from].outPkt[s]
		inArc := e.lanes[from].outArc[s]
		for k, pk := range inPkt {
			p := int(pk)
			a := inArc[k]
			v := int(arcHead[a])
			arc := e.route(v, p)
			if arc < 0 {
				la.dropped++
				la.left++
				la.removed++
				continue
			}
			e.push(la, v, arc, pk, cycle32, 1, a)
		}
	}
}

// phaseDepart pops one packet per non-empty own queue into the lane's
// ring bucket for this cycle — the lean kernel's unconditional departure
// sweep (sharded queues are unbounded, so every link has credit).
//
//lint:hotpath
func (e *shardEngine) phaseDepart(s, cycle int) {
	la := &e.lanes[s]
	arcLo := int(la.arcLo)
	bucket := cycle % e.hopLat
	base := bucket*e.m + arcLo
	f := base
	for w := range la.qBits {
		bits := la.qBits[w]
		for bits != 0 {
			tz := trailingZeros64(bits)
			bits &= bits - 1
			a := arcLo + w<<6 + tz
			pk, empty := e.queues.pop(a)
			if empty {
				la.qBits[w] &^= 1 << uint(tz)
			}
			//lint:ignore slabindex a < M, dominated by shardRun's guardIndexInt32
			e.ringPkt[f], e.ringArc[f] = pk, int32(a)
			f++
		}
	}
	//lint:ignore slabindex at most one departure per owned arc, below M
	la.ringFill[bucket] = int32(f - base)
}

// shardRun is the sharded counterpart of run for the lean configuration
// (unbounded queues, no recorder, no admission): identical semantics,
// S-way concurrent execution. workers bounds the goroutines spawned;
// the result does not depend on it.
func (nw *Network) shardRun(packets []Packet, tun runTuning, shards, workers int) Result {
	guardIndexInt32(len(packets), "packets")
	pkts := make([]Packet, len(packets))
	copy(pkts, packets)

	n := nw.g.N()
	m := int(nw.arcBase[n])
	ar, _ := nw.getArena()
	defer nw.putArena(ar)

	maxCycles := tun.budget
	if maxCycles == 0 {
		maxCycles = nw.cfg.MaxCycles
	}
	if maxCycles == 0 {
		maxCycles = nw.defaultBudget(len(pkts), nw.cfg.HopLatency)
	}
	guardIndexInt32(maxCycles+nw.cfg.HopLatency+2, "cycles")

	ringPkt, ringArc := ar.departureRing(m, nw.cfg.HopLatency)
	dst, rel, del, hops, _ := ar.packetSlabs(len(pkts))
	q := ar.queueLinks(m, len(pkts))

	var tArcs []int8
	tN := 0
	if tr, ok := nw.router.(*TableRouter); ok {
		tArcs, tN = tr.arcs, tr.n
	}
	shift := nw.shift
	var carry []int32
	if shift.carries() {
		carry = ar.carrySlab(len(pkts))
	}

	res := Result{}
	remaining := 0
	horizon := int32(maxCycles) + 1
	order := ar.order[:0]
	for i := range pkts {
		pkts[i].Delivered = -1
		pkts[i].Hops = 0
		dst[i] = int32(pkts[i].Dst)
		del[i] = -1
		hops[i] = 0
		if r := pkts[i].Release; r > maxCycles {
			rel[i] = horizon
		} else {
			rel[i] = int32(r)
		}
		if pkts[i].Src == pkts[i].Dst {
			pkts[i].Delivered = pkts[i].Release
			res.Delivered++
			continue
		}
		if carry != nil {
			// As in the sequential kernel: nothing to drop, one O(D)
			// call per packet.
			carry[i] = shift.start(pkts[i].Src, pkts[i].Dst)
		} else {
			var arc int
			switch {
			case tArcs != nil:
				arc = int(tArcs[pkts[i].Src*tN+pkts[i].Dst])
			case shift != nil:
				arc = shift.NextArc(pkts[i].Src, pkts[i].Dst)
			default:
				arc = nw.router.NextArc(pkts[i].Src, pkts[i].Dst)
			}
			if arc < 0 {
				res.Dropped++
				continue
			}
		}
		order = append(order, int32(i))
		remaining++
	}
	sortByRelease(order, pkts)
	ar.order = order

	e := nw.getShardEngine(shards)
	e.m, e.hopLat = m, nw.cfg.HopLatency
	e.tArcs, e.tN, e.shift, e.carry = tArcs, tN, shift, carry
	e.pkts, e.order = pkts, order
	e.dst, e.rel, e.del, e.hops = dst, rel, del, hops
	e.queues = q
	e.ringPkt, e.ringArc = ringPkt, ringArc
	e.maxCycles = maxCycles
	e.remaining = remaining

	// Partition the injection order: each lane walks its own
	// subsequence of positions with a private cursor.
	for pos, i32 := range order {
		s := e.shardOf(int32(pkts[i32].Src))
		e.lanes[s].order = append(e.lanes[s].order, int32(pos))
	}

	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		e.worker(0, 1)
	} else {
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

	// Merge the lanes into the Result.
	res.PeakResident = e.peak
	best := -1
	for s := range e.lanes {
		la := &e.lanes[s]
		res.Delivered += la.delivered
		res.Dropped += la.dropped
		if la.cycles > res.Cycles {
			res.Cycles = la.cycles
		}
		if la.maxQueue == 0 {
			continue
		}
		if best < 0 || laneHotter(la, &e.lanes[best]) {
			best = s
		}
	}
	if best >= 0 {
		res.MaxQueue = e.lanes[best].maxQueue
		res.HotNode = e.lanes[best].hotNode
	}
	// Release the engine before the pooled arena: the engine's slab
	// references die with it being reset on next checkout.
	nw.shardScratch.Put(e)

	for _, i32 := range order {
		i := int(i32)
		pkts[i].Delivered = int(del[i])
		pkts[i].Hops = int(hops[i])
	}
	res.aggregate(pkts, nw.cfg.HopLatency)
	return res
}

// laneHotter reports whether a's MaxQueue observation beats b's: deeper
// wins, equal depth ties to the earlier sequential-order key — the
// lane whose observation the sequential engine would have made first.
func laneHotter(a, b *shardLane) bool {
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
