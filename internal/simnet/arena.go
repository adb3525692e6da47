package simnet

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/obs"
)

// Per-run scratch storage. A simulation run needs O(M) queue and
// pipeline state plus O(packets) metadata; sweeps run hundreds of points
// over one Network, so that state is pooled and reused instead of being
// reallocated per point. Arenas hold only packet indices and cycle
// numbers — never pointers into a particular run — so a recycled arena
// carries no aliasing hazard between runs.

// arena is the scratch state of one in-progress run. Network.scratch
// pools arenas; concurrent runs each check out their own.
type arena struct {
	order []int32 // packet indices sorted by (Release, index)
	holdq []int32 // source-held packets (bounded-queue backpressure)

	// SoA packet slabs of the arc-major run engine, parallel by packet
	// index: destination, release cycle (clamped to the horizon), delivery
	// cycle (-1 while in flight), hop count and holds spent. The run loop
	// touches these int32 slabs instead of 48-byte Packet structs, so the
	// per-cycle sweeps stay dense in cache.
	pDst, pRel, pDel, pHops, pHolds []int32

	// pCarry is the per-packet carried state of shift routing
	// (DeBruijnRouter.start/step): the destination letters a packet
	// still has to shift in. Every run that reads it sets each routed
	// packet's entry at setup, so a recycled slab carries nothing over.
	pCarry []int32

	// The links, in two flat slabs of segCap·M entries. The general path
	// cuts them into fixed-capacity pipe segments per arc (packet index
	// and ready cycle, pipeLen entries in use). A pipe holds at most
	// HopLatency in-flight packets when nothing holds on the link (one
	// departure per cycle, each resident exactly HopLatency cycles) and
	// at most qcap+HopLatency — the credit window — under the plain
	// engine's bounded queues. The lane and fault kernels cut the same
	// slabs into a departure ring instead (departureRing): HopLatency
	// buckets of M (packet, arc) entries.
	pipePkt, pipeReady, pipeLen []int32

	// The one-lane kernel's routing batch (arrivalBatch): the packets
	// entering a node this cycle, their nodes and their arcs. The fault
	// kernel's entering batch uses the first two.
	arrPkt, arrNode, arrArc []int32

	// Intrusive linked queues of every engine (see arcQueues): a
	// {tail, length} pair per queue plus one link slab holding each
	// packet's next pointer followed by a head sentinel per queue, so a
	// push touches one pair and one link. A packet sits in one queue at
	// a time, so one link per packet suffices.
	qEnds []queueEnds
	qLink []int32

	// Activity bitmaps: qBits bit a set ⇔ arc a has queued packets
	// (general path and fault kernel), and aBits bit a set ⇔ arc a has
	// in-flight (or held) pipe entries (general path). The per-cycle
	// sweeps walk set bits in ascending order instead of scanning all M
	// arcs, which is what makes ns/packet flat in network size.
	qBits, aBits []uint64

	// tally is the run-local telemetry of a recorded run: the kernels
	// record into it with plain stores and fold it into the recorder
	// once, when the run ends (see tallyFor).
	tally obs.Tally

	// lanes is the lane kernel's state, partitioned on first use.
	lanes laneRun

	// fault is the fault kernel's state: per-packet records, node counts
	// and bitmaps, sized on first use (see faultRun).
	fault faultRun
}

// getArena checks a scratch arena out of the pool, reset and sized for
// this network's digraph. The second result reports whether pooled
// storage was reused (false: a fresh allocation), which instrumented
// runs count into the arena_reused/arena_allocated metrics.
func (nw *Network) getArena() (*arena, bool) {
	n := nw.g.N()
	m := int(nw.arcBase[n])
	ar, ok := nw.scratch.Get().(*arena)
	if !ok {
		ar = &arena{
			pipeLen: make([]int32, m),
			qBits:   make([]uint64, (m+63)/64),
			aBits:   make([]uint64, (m+63)/64),
		}
		return ar, false
	}
	clearInt32(ar.pipeLen)
	clearBits(ar.qBits)
	clearBits(ar.aBits)
	ar.holdq = ar.holdq[:0]
	// order is resized by the run, and the fault kernel resets its own
	// state (faultRun.setup).
	return ar, true
}

// tallyFor returns the arena's run-local telemetry tally, zeroed and
// sized for m arcs, when the run records into rec; nil when it does
// not, so recording sites test one local instead of calling through a
// nil recorder. The caller folds the tally into rec with rec.Merge
// before returning the arena.
func (ar *arena) tallyFor(rec *obs.Recorder, m int) *obs.Tally {
	if rec == nil {
		return nil
	}
	ar.tally.Reset(m)
	return &ar.tally
}

// clearBits zeroes a bitmap in place.
func clearBits(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

// trailingZeros64 is bits.TrailingZeros64, aliased so the bitmap sweeps
// read as one local vocabulary with the set/clear sites.
//
//lint:hotpath
func trailingZeros64(x uint64) int { return bits.TrailingZeros64(x) }

// packetSlabs returns the five per-packet SoA slabs resized to p
// entries, reusing the arena's backing storage when large enough. The
// run initializes every entry, so no zeroing happens here.
func (ar *arena) packetSlabs(p int) (dst, rel, del, hops, holds []int32) {
	if cap(ar.pDst) < p {
		ar.pDst = make([]int32, p)
		ar.pRel = make([]int32, p)
		ar.pDel = make([]int32, p)
		ar.pHops = make([]int32, p)
		ar.pHolds = make([]int32, p)
	}
	ar.pDst = ar.pDst[:p]
	ar.pRel = ar.pRel[:p]
	ar.pDel = ar.pDel[:p]
	ar.pHops = ar.pHops[:p]
	ar.pHolds = ar.pHolds[:p]
	return ar.pDst, ar.pRel, ar.pDel, ar.pHops, ar.pHolds
}

// carrySlab returns the carried-state slab resized to p entries,
// reusing the arena's backing storage when large enough. The run
// initializes every entry it reads.
func (ar *arena) carrySlab(p int) []int32 {
	if cap(ar.pCarry) < p {
		ar.pCarry = make([]int32, p)
	}
	ar.pCarry = ar.pCarry[:p]
	return ar.pCarry
}

// arrivalBatch returns the three buffers of the one-lane kernel's routing
// batch (packet index, node, arc), each with room for p entries — at most
// every offered packet can enter a node in one cycle.
func (ar *arena) arrivalBatch(p int) (pkt, node, arc []int32) {
	if cap(ar.arrPkt) < p {
		ar.arrPkt = make([]int32, p)
		ar.arrNode = make([]int32, p)
		ar.arrArc = make([]int32, p)
	}
	return ar.arrPkt[:p], ar.arrNode[:p], ar.arrArc[:p]
}

// arcQueues are the engines' FIFO queues, one per arc, threaded through
// one link slab: link[i] is packet i's successor in its queue, and
// link[head+a] is queue a's head sentinel, whose successor is the
// queue's head. An empty queue's tail is its sentinel, so a push has no
// empty-queue case; the pop that empties a queue points its tail back
// at the sentinel. Every queue of the lane kernel, the general path and
// the fault kernel has this one layout; the fault kernel adds one queue
// per node after the M arc queues.
type arcQueues struct {
	ends []queueEnds
	link []int32
	head int32 // link index of arc 0's sentinel: the packet count
}

// queueEnds is one arc queue's tail link index and length, side by side
// so a push reads and writes one cache line of them.
type queueEnds struct{ tail, length int32 }

// push appends packet pk to arc a's queue and returns its new depth.
//
//lint:hotpath
func (q *arcQueues) push(a, pk int32) int32 {
	e := &q.ends[a]
	q.link[e.tail] = pk
	e.tail = pk
	e.length++
	return e.length
}

// peek returns the head of queue a, which must be non-empty.
//
//lint:hotpath
func (q *arcQueues) peek(a int32) int32 { return q.link[q.head+a] }

// pop unlinks and returns the head of arc a's non-empty queue and
// reports whether the queue is now empty.
//
//lint:hotpath
func (q *arcQueues) pop(a int) (pk int32, empty bool) {
	//lint:ignore slabindex a < M, and head+M fits int32 by queueLinks' guard
	s := q.head + int32(a)
	pk = q.link[s]
	q.link[s] = q.link[pk]
	e := &q.ends[a]
	e.length--
	if e.length > 0 {
		return pk, false
	}
	e.tail = s
	return pk, true
}

// queueLinks returns m empty queues for p packets on the arena's end
// and link slabs: m ends and p+m links. Ends are reset here (a truncated
// previous run may have left packets queued); links need none, since a
// push writes every link a pop later reads.
func (ar *arena) queueLinks(m, p int) arcQueues {
	guardIndexInt32(p+m, "queue links")
	if cap(ar.qEnds) < m {
		ar.qEnds = make([]queueEnds, m)
	}
	if cap(ar.qLink) < p+m {
		ar.qLink = make([]int32, p+m)
	}
	q := arcQueues{ends: ar.qEnds[:m], link: ar.qLink[:p+m], head: int32(p)}
	for a := range q.ends {
		q.ends[a] = queueEnds{tail: q.head + int32(a)}
	}
	return q
}

// clearInt32 zeroes an int32 slab in place.
func clearInt32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}

// pipeSegments returns the flat SoA pipe slabs with room for segCap
// entries on each of the m arcs. pipeLen was zeroed at checkout.
func (ar *arena) pipeSegments(m, segCap int) (pkt, ready []int32, length []int32) {
	need := m * segCap
	if cap(ar.pipePkt) < need {
		ar.pipePkt = make([]int32, need)
		ar.pipeReady = make([]int32, need)
	}
	ar.pipePkt = ar.pipePkt[:need]
	ar.pipeReady = ar.pipeReady[:need]
	return ar.pipePkt, ar.pipeReady, ar.pipeLen
}

// departureRing returns the lane and fault kernels' departure ring,
// carved from the pipe slabs: hopLat buckets of m entries, bucket b
// holding the packets (pkt) that left on which arcs (arc) at the cycles
// ≡ b mod hopLat, in ascending arc order. A link sends at most one
// packet per cycle, so m entries per bucket suffice, and the packets
// arriving at cycle t are exactly bucket t mod hopLat as written at
// cycle t−hopLat. Each lane, and the fault kernel, counts its own
// bucket fills.
func (ar *arena) departureRing(m, hopLat int) (pkt, arc []int32) {
	pkt, arc, _ = ar.pipeSegments(m, hopLat)
	return pkt, arc
}

// putArena returns a run's scratch to the pool.
func (nw *Network) putArena(ar *arena) { nw.scratch.Put(ar) }

// sortByRelease orders packet indices by (Release, index): the injection
// schedule a single cursor can walk, replacing the historical per-cycle
// map of release buckets. The index tie-break keeps same-cycle injection
// order identical to the map-era behaviour (buckets were appended in
// index order).
func sortByRelease(order []int32, pkts []Packet) {
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(pkts[a].Release, pkts[b].Release); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
