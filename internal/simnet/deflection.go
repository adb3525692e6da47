package simnet

import (
	"fmt"

	"repro/internal/obs"
)

// Deflection (hot-potato) routing: the natural regime for all-optical
// networks, where packets cannot be buffered — every packet in a node
// must leave on some output every cycle, and contention is resolved by
// deflecting the loser onto a free (possibly wrong) output. De Bruijn
// digraphs suit deflection well because every output leads somewhere
// useful; this simulator quantifies the deflection penalty against
// store-and-forward on the same topology.
//
// Model: synchronous cycles; each node has d inputs and d outputs (the
// digraph must be d-regular). At most one new packet may be injected per
// node per cycle, and injection is only possible when an output remains
// free after the transiting packets are assigned. Packets reaching their
// destination are absorbed before assignment.

// DeflectionResult extends the basic statistics with deflection counts.
// Like FaultResult, the accounting drains completely: Delivered +
// Dropped equals Offered on every run, including one cut short by the
// cycle limit, with Dropped broken into cause buckets.
type DeflectionResult struct {
	Offered     int
	Delivered   int
	Dropped     int // Stuck + DroppedHorizon + DroppedQueueFull
	Cycles      int
	TotalHops   int
	MaxHops     int
	Deflections int // hops not on a shortest path
	MeanLatency float64
	MeanHops    float64
	// Stuck counts packets in flight when the cycle limit ran out (0 on
	// any completed run).
	Stuck int
	// DroppedHorizon counts packets whose Release lay beyond the cycle
	// limit: never injected, dropped at their source when the run ends.
	DroppedHorizon int
	// DroppedQueueFull counts release-eligible packets still waiting for
	// injection capacity when the cycle limit ran out: refused entry by
	// the full node, never in flight — a distinct cause from Stuck so the
	// per-cause buckets stay disjoint.
	DroppedQueueFull int
	Packets          []Packet
}

// String renders the headline numbers.
func (r DeflectionResult) String() string {
	return fmt.Sprintf("delivered=%d dropped=%d cycles=%d meanLatency=%.2f meanHops=%.2f maxHops=%d deflections=%d",
		r.Delivered, r.Dropped, r.Cycles, r.MeanLatency, r.MeanHops, r.MaxHops, r.Deflections)
}

// DeliveredFraction returns Delivered over Offered, 0 when nothing was
// offered (never NaN).
func (r DeflectionResult) DeliveredFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Offered)
}

// DeflectionNetwork simulates hot-potato routing on a Network whose
// digraph is d-regular. It reads the Network the way every other engine
// does: outputs rank by its router's fault-free distance, a run records
// into the recorder attached with Observe (arc traversals at ArcIndex)
// through a run-local tally merged once per run, and its cycle budget
// bounds the run.
type DeflectionNetwork struct {
	nw    *Network
	limit int
}

// NewDeflection builds the simulator on nw. The digraph must be
// d-out-regular for some d and strongly connected, and the hop latency
// 1 (a bufferless packet moves every cycle). The cycle limit is nw's
// WithMaxCycles budget, or 64·n when none is set.
func NewDeflection(nw *Network) (*DeflectionNetwork, error) {
	g := nw.g
	if !g.IsOutRegular(nw.maxDeg) {
		return nil, fmt.Errorf("simnet: deflection needs an out-regular digraph")
	}
	if !g.IsStronglyConnected() {
		return nil, fmt.Errorf("simnet: deflection needs strong connectivity")
	}
	if nw.cfg.HopLatency != 1 {
		return nil, fmt.Errorf("simnet: deflection needs hop latency 1, got %d", nw.cfg.HopLatency)
	}
	limit := nw.cfg.MaxCycles
	if limit == 0 {
		limit = 64 * g.N()
	}
	return &DeflectionNetwork{nw: nw, limit: limit}, nil
}

// deflectionRun is the mutable state of one run, threaded through step.
// next and taken are per-cycle scratch allocated once in Run and reused
// every step; their append growth amortizes to zero in steady state.
type deflectionRun struct {
	pkts      []Packet
	at        [][]int    // packets currently held at each node (≤ d)
	pendingAt [][]int    // injected but not yet admitted
	next      [][]int    // next cycle's holdings; swapped with at each step
	taken     []bool     // per-node output-assignment marks, d entries
	faultFree distSource // ranks outputs; the run owns its columns
	remaining int
	res       *DeflectionResult
}

func (st *deflectionRun) deliver(i, cycle int, tl *obs.Tally) {
	st.pkts[i].Delivered = cycle
	st.res.Delivered++
	st.remaining--
	if cycle > st.res.Cycles {
		st.res.Cycles = cycle
	}
	if tl != nil {
		tl.Deliver(cycle-st.pkts[i].Release, st.pkts[i].Hops)
	}
}

// step advances the simulation one cycle: absorb arrivals, inject where
// capacity allows, then assign every held packet an output (deflecting
// losers). Recording sites are tl != nil guarded.
//
//lint:hotpath
func (dn *DeflectionNetwork) step(cycle int, st *deflectionRun, tl *obs.Tally) {
	n := dn.nw.g.N()
	pkts := st.pkts

	// Absorb arrivals.
	for u := 0; u < n; u++ {
		keep := st.at[u][:0]
		for _, i := range st.at[u] {
			if pkts[i].Dst == u {
				st.deliver(i, cycle, tl)
			} else {
				keep = append(keep, i)
			}
		}
		st.at[u] = keep
	}
	// Inject where capacity allows (transiting packets have priority
	// for outputs; a node holds at most d packets after injection).
	for u := 0; u < n; u++ {
		for len(st.pendingAt[u]) > 0 && len(st.at[u]) < dn.nw.maxDeg {
			i := st.pendingAt[u][0]
			if pkts[i].Release > cycle {
				break // queued by release order; later packets wait
			}
			st.pendingAt[u] = st.pendingAt[u][1:]
			st.at[u] = append(st.at[u], i)
		}
	}
	// Assign outputs: oldest packet first (deadline monotone keeps
	// worst-case latency bounded), each takes its best free output.
	next := st.next
	for u := range next {
		next[u] = next[u][:0]
	}
	for u := 0; u < n; u++ {
		if len(st.at[u]) == 0 {
			continue
		}
		group := st.at[u]
		sortByReleaseID(group, pkts)
		outs := dn.nw.g.Out(u)
		taken := st.taken[:len(outs)]
		for k := range taken {
			taken[k] = false
		}
		for _, i := range group {
			// Rank outputs by resulting distance to destination.
			dst := pkts[i].Dst
			best, bestDist := -1, int32(0)
			for k, v := range outs {
				if taken[k] {
					continue
				}
				dv := st.faultFree.dist(v, dst)
				if best == -1 || dv < bestDist {
					best, bestDist = k, dv
				}
			}
			taken[best] = true
			v := outs[best]
			if bestDist >= st.faultFree.dist(u, dst) {
				st.res.Deflections++
				if tl != nil {
					tl.Deflect()
				}
			}
			pkts[i].Hops++
			if tl != nil {
				tl.ArcTraverse(dn.nw.ArcIndex(u, best))
			}
			next[v] = append(next[v], i)
		}
	}
	st.at, st.next = next, st.at
}

// sortByReleaseID insertion-sorts packet indices by (Release, ID). A
// group holds at most d packets, and unlike sort.Slice this defines no
// closure, so the per-node assignment loop stays allocation-free.
func sortByReleaseID(group []int, pkts []Packet) {
	for i := 1; i < len(group); i++ {
		for j := i; j > 0; j-- {
			a, b := group[j-1], group[j]
			if pkts[a].Release < pkts[b].Release ||
				(pkts[a].Release == pkts[b].Release && pkts[a].ID <= pkts[b].ID) {
				break
			}
			group[j-1], group[j] = b, a
		}
	}
}

// Run simulates until all packets are delivered or the cycle limit hits.
// Packets with Src == Dst are delivered at injection. On a truncated
// run the survivors are drained into the Stuck and DroppedHorizon
// buckets, so Delivered + Dropped == Offered always holds. A packet with
// Src or Dst outside [0, n) is refused with an *OptionError naming
// Workload, before any simulation work.
func (dn *DeflectionNetwork) Run(packets []Packet) (DeflectionResult, error) {
	if err := checkEndpoints(packets, dn.nw.g.N()); err != nil {
		return DeflectionResult{}, err
	}
	pkts := make([]Packet, len(packets))
	copy(pkts, packets)
	n := dn.nw.g.N()
	rec := dn.nw.rec
	var tl *obs.Tally
	if rec != nil {
		// The tally counts each arc's traversals in an int32, and an
		// output carries at most one packet per cycle.
		guardIndexInt32(dn.limit+1, "cycles")
		ar, _ := dn.nw.getArena()
		defer dn.nw.putArena(ar)
		tl = ar.tallyFor(rec, int(dn.nw.arcBase[n]))
	}
	res := DeflectionResult{Offered: len(pkts)}

	st := &deflectionRun{
		pkts:      pkts,
		at:        make([][]int, n),
		pendingAt: make([][]int, n),
		next:      make([][]int, n),
		taken:     make([]bool, dn.nw.maxDeg),
		faultFree: distSource{g: dn.nw.g, router: dn.nw.router},
		res:       &res,
	}
	for i := range pkts {
		pkts[i].Delivered = -1
		pkts[i].Hops = 0
		if pkts[i].Src == pkts[i].Dst {
			pkts[i].Delivered = pkts[i].Release
			res.Delivered++
			continue
		}
		st.pendingAt[pkts[i].Src] = append(st.pendingAt[pkts[i].Src], i)
		st.remaining++
	}

	var cycle int
	for cycle = 0; st.remaining > 0 && cycle <= dn.limit; cycle++ {
		dn.step(cycle, st, tl)
	}

	// Exit drain: the cycle limit hit with work outstanding. In-flight
	// packets are Stuck; pending packets split by cause — a release
	// beyond the limit was never injectable (horizon), while a
	// release-eligible packet was refused entry by its full node for the
	// whole run (queue full). The three buckets stay disjoint.
	if st.remaining > 0 {
		drop := func(i int, bucket *int, cause obs.DropCause) {
			*bucket++
			res.Dropped++
			st.remaining--
			if tl != nil {
				tl.Drop(cause)
			}
			_ = i
		}
		for u := 0; u < n; u++ {
			for _, i := range st.at[u] {
				drop(i, &res.Stuck, obs.DropStuck)
			}
			st.at[u] = nil
			for _, i := range st.pendingAt[u] {
				if pkts[i].Release >= cycle {
					drop(i, &res.DroppedHorizon, obs.DropHorizon)
				} else {
					drop(i, &res.DroppedQueueFull, obs.DropQueueFull)
				}
			}
			st.pendingAt[u] = nil
		}
		_ = st.remaining // zero by construction: every survivor was drained
	}

	// Aggregate.
	latency := 0
	for i := range pkts {
		if pkts[i].Delivered < 0 {
			continue
		}
		res.TotalHops += pkts[i].Hops
		if pkts[i].Hops > res.MaxHops {
			res.MaxHops = pkts[i].Hops
		}
		latency += pkts[i].Delivered - pkts[i].Release
	}
	if res.Delivered > 0 {
		res.MeanLatency = float64(latency) / float64(res.Delivered)
		res.MeanHops = float64(res.TotalHops) / float64(res.Delivered)
	}
	res.Packets = pkts
	rec.Merge(tl)
	return res, nil
}
