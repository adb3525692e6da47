package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
	"repro/internal/otis"
)

// The fault-engine reference: a frozen copy of the map-based FaultState
// queries, the FaultAwareRouter cascade over them and the fault run
// loop as they stood before the engine moved to flat span slabs, cached
// primary hops and run-local telemetry. It allocates fresh scratch
// instead of using the arena (it only runs in tests) but takes every
// decision — fault lookups, routing, retries, holds, drops, events and
// recording — exactly as the historical engine did, so DeepEqual
// against Network.runWithFaults proves the two are observably
// identical.

// refFaultConfig is the resolved tuning the frozen fault and heal loops
// read, as the historical FaultConfig held it once defaulted.
type refFaultConfig struct {
	HopLatency, MaxCycles, TTL          int
	MaxRetries, BackoffBase, BackoffCap int
	QueueCapacity, HoldBudget           int
}

// refFaultConfigFor resolves what a run on nw with queue bound qcap and
// hold budget hold (0: the default) takes: the Network's hop latency and
// cycle budget, a TTL of 4·diameter+8 (2n when not strongly connected),
// the 8-retry backoff ladder from 1 to 64 cycles and a hold budget of
// 4·qcap+16.
func refFaultConfigFor(nw *Network, qcap, hold int) refFaultConfig {
	c := refFaultConfig{HopLatency: nw.cfg.HopLatency, MaxCycles: nw.cfg.MaxCycles, TTL: 2 * nw.g.N(),
		MaxRetries: 8, BackoffBase: 1, BackoffCap: 64, QueueCapacity: qcap, HoldBudget: hold}
	if d := nw.g.Diameter(); d >= 0 {
		c.TTL = 4*d + 8
	}
	if qcap > 0 && hold < 1 {
		c.HoldBudget = 4*qcap + 16
	}
	return c
}

// pktMeta is a packet's retry and hold bookkeeping in the frozen loops:
// retries spent, the cycle the packet may try again, and hold-in-place
// cycles spent.
type pktMeta struct {
	retries int
	readyAt int
	holds   int
}

// retryPolicy is the historical shared retry/backoff budget: how many
// times a packet with no live useful out-arc may be requeued, and the
// ladder base<<(attempt-1) clamped to cap each requeue waits.
type retryPolicy struct{ max, base, cap int }

func newRetryPolicy(cfg refFaultConfig) retryPolicy {
	return retryPolicy{max: cfg.MaxRetries, base: cfg.BackoffBase, cap: cfg.BackoffCap}
}

// charge spends one retry of m's budget at cycle: true with m.readyAt
// advanced by the attempt's backoff, false once the budget is exhausted.
func (p retryPolicy) charge(m *pktMeta, cycle, _ int) bool {
	m.retries++
	if m.retries > p.max {
		return false
	}
	b := p.base << uint(m.retries-1)
	if b > p.cap || b <= 0 {
		b = p.cap
	}
	m.readyAt = cycle + b
	return true
}

// refFaultState is the historical map-keyed compiled fault plan.
type refFaultState struct {
	arcSpans   map[Arc][]span
	nodeSpans  map[int][]span
	permStarts []int
	cycle      int
}

// refCompile is the historical FaultPlan.Compile.
func refCompile(p *FaultPlan, g *digraph.Digraph) (*refFaultState, error) {
	st := &refFaultState{
		arcSpans:  map[Arc][]span{},
		nodeSpans: map[int][]span{},
		cycle:     -1,
	}
	if p == nil {
		return st, nil
	}
	if p.err != nil {
		return nil, p.err
	}
	n := g.N()
	addArc := func(a Arc, sp span) error {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return fmt.Errorf("simnet: fault arc (%d#%d) out of range", a.Tail, a.Index)
		}
		st.arcSpans[a] = append(st.arcSpans[a], sp)
		if sp.end < 0 {
			st.permStarts = append(st.permStarts, sp.start)
		}
		return nil
	}
	for _, f := range p.faults {
		if err := validateFault(f, g); err != nil {
			return nil, err
		}
		sp := span{start: f.Start, end: -1}
		if !f.Permanent() {
			sp.end = f.Start + f.Duration
		}
		switch f.Kind {
		case FaultLink:
			if err := addArc(f.Arc, sp); err != nil {
				return nil, err
			}
		case FaultNode:
			st.nodeSpans[f.Node] = append(st.nodeSpans[f.Node], sp)
			for k := 0; k < g.OutDegree(f.Node); k++ {
				if err := addArc(Arc{Tail: f.Node, Index: k}, sp); err != nil {
					return nil, err
				}
			}
			for u := 0; u < n; u++ {
				for k, v := range g.Out(u) {
					if v == f.Node && u != f.Node {
						if err := addArc(Arc{Tail: u, Index: k}, sp); err != nil {
							return nil, err
						}
					}
				}
			}
		case FaultLens:
			for _, a := range f.Arcs {
				if err := addArc(a, sp); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("simnet: unknown fault kind %v", f.Kind)
		}
	}
	sort.Ints(st.permStarts)
	return st, nil
}

func (s *refFaultState) Empty() bool {
	return s == nil || (len(s.arcSpans) == 0 && len(s.nodeSpans) == 0)
}

func (s *refFaultState) Advance(cycle int) { s.cycle = cycle }

func (s *refFaultState) ArcDown(tail, index int) bool {
	if s == nil || len(s.arcSpans) == 0 {
		return false
	}
	for _, sp := range s.arcSpans[Arc{Tail: tail, Index: index}] {
		if sp.contains(s.cycle) {
			return true
		}
	}
	return false
}

func (s *refFaultState) NodeDown(node int) bool {
	if s == nil || len(s.nodeSpans) == 0 {
		return false
	}
	for _, sp := range s.nodeSpans[node] {
		if sp.contains(s.cycle) {
			return true
		}
	}
	return false
}

func (s *refFaultState) ArcPermanentlyDown(tail, index int) bool {
	if s == nil || len(s.arcSpans) == 0 {
		return false
	}
	for _, sp := range s.arcSpans[Arc{Tail: tail, Index: index}] {
		if sp.end < 0 && s.cycle >= sp.start {
			return true
		}
	}
	return false
}

func (s *refFaultState) PermanentVersion() int {
	if s == nil {
		return 0
	}
	return sort.SearchInts(s.permStarts, s.cycle+1)
}

// refFaultAwareRouter is the historical FaultAwareRouter over the
// map-keyed state.
type refFaultAwareRouter struct {
	g               *digraph.Digraph
	primary         Router
	state           *refFaultState
	n               int
	dist            []int32
	resHop          *refNextHopSlab
	resDist         []int32
	fallbackVersion int
}

func (r *refFaultAwareRouter) NextArc(at, dst int) int {
	if at == dst {
		return -1
	}
	p := r.primary.NextArc(at, dst)
	if r.state.Empty() {
		return p
	}
	if r.state.PermanentVersion() == 0 {
		if p >= 0 && !r.state.ArcDown(at, p) {
			return p
		}
		return r.deflect(at, dst, p, r.dist)
	}
	r.refreshResidual()
	hop := r.resHop.Hop(at, dst)
	if hop == at || hop < 0 {
		return -1
	}
	for k, v := range r.g.Out(at) {
		if v == hop && !r.state.ArcDown(at, k) {
			return k
		}
	}
	return r.deflect(at, dst, p, r.resDist)
}

func (r *refFaultAwareRouter) Primary(at, dst int) int { return r.primary.NextArc(at, dst) }

func (r *refFaultAwareRouter) deflect(at, dst, avoid int, dist []int32) int {
	best := -1
	bestDist := int32(-1)
	for k, v := range r.g.Out(at) {
		if k == avoid || v == at || r.state.ArcDown(at, k) {
			continue
		}
		dv := dist[v*r.n+dst]
		if dv == digraph.Unreachable {
			continue
		}
		if best < 0 || dv < bestDist {
			best, bestDist = k, dv
		}
	}
	return best
}

func (r *refFaultAwareRouter) refreshResidual() {
	version := r.state.PermanentVersion()
	if version == r.fallbackVersion && r.resHop != nil {
		return
	}
	n := r.g.N()
	residual := digraph.New(n)
	for u := 0; u < n; u++ {
		for k, v := range r.g.Out(u) {
			if !r.state.ArcPermanentlyDown(u, k) {
				residual.AddArc(u, v)
			}
		}
	}
	r.resHop = refNewNextHopSlab(residual)
	r.resDist = residual.DistanceSlab()
	r.fallbackVersion = version
}

// refNextHopSlab is the frozen debruijn.NextHopSlab: for every ordered
// pair (u, dst), the first hop on a shortest u→dst path (-1 when
// unreachable, u when u = dst).
type refNextHopSlab struct {
	n    int
	hops []int32
}

// refNewNextHopSlab is the frozen debruijn.NewNextHopSlab: one reverse
// BFS per destination over the reverse CSR, recording each node's hop
// when the BFS discovers it.
func refNewNextHopSlab(g *digraph.Digraph) *refNextHopSlab {
	n := g.N()
	guardIndexInt32(n, "nodes")
	guardIndexInt32(g.M(), "arcs")
	base := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			base[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		base[v+1] += base[v]
	}
	revTail := make([]int32, g.M())
	fill := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			revTail[base[v]+fill[v]] = int32(u)
			fill[v]++
		}
	}

	hops := make([]int32, n*n)
	for i := range hops {
		hops[i] = -1
	}
	seen := make([]int32, n)
	queue := make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		epoch := int32(dst + 1)
		seen[dst] = epoch
		hops[dst*n+dst] = int32(dst)
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for idx := base[v]; idx < base[v+1]; idx++ {
				u := revTail[idx]
				if seen[u] == epoch {
					continue
				}
				seen[u] = epoch
				hops[int(u)*n+dst] = v
				queue = append(queue, u)
			}
		}
	}
	return &refNextHopSlab{n: n, hops: hops}
}

// Hop returns the first hop on a shortest u→dst path.
func (s *refNextHopSlab) Hop(u, dst int) int { return int(s.hops[u*s.n+dst]) }

// refRunWithFaults is the frozen fault run loop (historical
// Network.runWithFaults). The arena counter is recorded as a fresh
// allocation; comparisons strip the arena lines.
func refRunWithFaults(nw *Network, packets []Packet, plan *FaultPlan, cfg refFaultConfig, traced bool, admit *admitState, rec *obs.Recorder) (FaultResult, []Event, error) {
	state, err := refCompile(plan, nw.g)
	if err != nil {
		return FaultResult{}, nil, err
	}
	router := &refFaultAwareRouter{g: nw.g, primary: nw.router, state: state, n: nw.g.N(), dist: nw.g.DistanceSlab()}

	n := nw.g.N()
	m := int(nw.arcBase[n])
	policy := newRetryPolicy(cfg)
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = nw.defaultBudget(len(packets), cfg.HopLatency)
		maxCycles += cfg.MaxRetries * cfg.BackoffCap
		if admit != nil {
			maxCycles += int(float64(len(packets))/admit.rate) + admit.maxDelay
		}
	}

	pkts := make([]Packet, len(packets))
	copy(pkts, packets)

	if rec != nil {
		rec.Arena(false)
	}
	meta := make([]pktMeta, len(pkts))
	waiting := make([][]int32, n)
	pipes := make([][]inflight, m)
	nodeBits := make([]uint64, (n+63)/64)
	aBits := make([]uint64, (m+63)/64)
	busy := make([]int64, nw.maxDeg)
	var busyToken int64

	var events []Event
	emit := func(e Event) {
		if traced {
			events = append(events, e)
		}
	}

	res := FaultResult{}
	drop := func(i, cycle, node int, bucket *int, cause obs.DropCause) {
		*bucket++
		res.Dropped++
		if rec != nil {
			rec.Drop(cause)
		}
		emit(Event{Cycle: cycle, Kind: EventDrop, Packet: pkts[i].ID, Node: node, Peer: -1})
	}

	remaining := 0
	var order []int32
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
	cursor := 0

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
		if rec != nil {
			rec.Hold(depth)
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
	var holdq []int32
	heldLast := false

	var cycle int
	for cycle = 0; remaining > 0 && cycle <= maxCycles; cycle++ {
		state.Advance(cycle)
		holdsBefore := res.Holds
		if admit != nil {
			admit.refill(heldLast)
		}

		if len(holdq) > 0 {
			nh := holdq[:0]
			for _, i32 := range holdq {
				i := int(i32)
				src := pkts[i].Src
				if nodeFull(src) {
					if !hold(i, len(waiting[src])) {
						drop(i, cycle, src, &res.DroppedQueueFull, obs.DropQueueFull)
						remaining--
						continue
					}
					nh = append(nh, i32)
					continue
				}
				waiting[src] = append(waiting[src], i32)
				nodeBits[src>>6] |= 1 << (uint(src) & 63)
				enter()
				emit(Event{Cycle: cycle, Kind: EventInject, Packet: pkts[i].ID, Node: src, Peer: -1})
			}
			holdq = nh
		}
		for cursor < len(order) && pkts[order[cursor]].Release <= cycle {
			i := int(order[cursor])
			if admit != nil {
				if cycle-pkts[i].Release > admit.maxDelay {
					cursor++
					res.Shed++
					if rec != nil {
						rec.Shed()
					}
					emit(Event{Cycle: cycle, Kind: EventDrop, Packet: pkts[i].ID, Node: pkts[i].Src, Peer: -1})
					remaining--
					continue
				}
				if !admit.take() {
					break
				}
			}
			cursor++
			src := pkts[i].Src
			if nodeFull(src) {
				if !hold(i, len(waiting[src])) {
					drop(i, cycle, src, &res.DroppedQueueFull, obs.DropQueueFull)
					remaining--
					continue
				}
				holdq = append(holdq, int32(i))
				continue
			}
			waiting[src] = append(waiting[src], int32(i))
			nodeBits[src>>6] |= 1 << (uint(src) & 63)
			enter()
			emit(Event{Cycle: cycle, Kind: EventInject, Packet: pkts[i].ID, Node: src, Peer: -1})
		}

		for w := range aBits {
			bits := aBits[w]
			for bits != 0 {
				a := int32(w<<6 + trailingZeros64(bits))
				bits &= bits - 1
				pipe := pipes[a]
				keep := pipe[:0]
				u := int(nw.arcTail[a])
				v := int(nw.arcHead[a])
				for _, fl := range pipe {
					if fl.ready > cycle {
						keep = append(keep, fl)
						continue
					}
					p := &pkts[fl.pkt]
					p.Hops++
					if rec != nil {
						rec.ArcTraverse(int(a))
					}
					if state.NodeDown(v) {
						emit(Event{Cycle: cycle, Kind: EventArrive, Packet: p.ID, Node: v, Peer: u})
						drop(fl.pkt, cycle, v, &res.DroppedFault, obs.DropFault)
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
						if rec != nil {
							rec.Deliver(cycle-p.Release, p.Hops)
						}
						emit(Event{Cycle: cycle, Kind: EventArrive, Packet: p.ID, Node: v, Peer: u})
						emit(Event{Cycle: cycle, Kind: EventDeliver, Packet: p.ID, Node: v, Peer: -1})
						continue
					}
					emit(Event{Cycle: cycle, Kind: EventArrive, Packet: p.ID, Node: v, Peer: u})
					waiting[v] = append(waiting[v], int32(fl.pkt))
					nodeBits[v>>6] |= 1 << (uint(v) & 63)
				}
				pipes[a] = keep
				if len(keep) == 0 {
					aBits[w] &^= 1 << (uint(a) & 63)
				}
			}
		}

		for w := range nodeBits {
			wbits := nodeBits[w]
			for wbits != 0 {
				u := w<<6 + trailingZeros64(wbits)
				wbits &= wbits - 1
				depth := len(waiting[u])
				if depth > res.MaxQueue {
					res.MaxQueue = depth
					res.HotNode = u
				}
				if rec != nil {
					rec.NodeQueueDepth(depth)
				}
				busyToken++
				token := busyToken
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
					arc := router.NextArc(u, p.Dst)
					if arc < 0 {
						if !policy.charge(&meta[i], cycle, p.ID) {
							drop(i, cycle, u, &res.DroppedNoRoute, obs.DropNoRoute)
							remaining--
							resident--
							continue
						}
						res.Retries++
						if rec != nil {
							rec.Retry()
						}
						keep = append(keep, i32)
						continue
					}
					if busy[arc] == token {
						keep = append(keep, i32)
						continue
					}
					if next := nw.g.Out(u)[arc]; next != p.Dst && nodeFull(next) {
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
					if router.Primary(u, p.Dst) != arc {
						res.Reroutes++
						if rec != nil {
							rec.Reroute()
						}
						emit(Event{Cycle: cycle, Kind: EventReroute, Packet: p.ID, Node: u, Peer: nw.g.Out(u)[arc]})
					}
					emit(Event{Cycle: cycle, Kind: EventDepart, Packet: p.ID, Node: u, Peer: nw.g.Out(u)[arc]})
					flat := nw.arcBase[u] + int32(arc)
					pipes[flat] = append(pipes[flat], inflight{pkt: i, ready: cycle + cfg.HopLatency})
					aBits[flat>>6] |= 1 << (uint32(flat) & 63)
				}
				waiting[u] = keep
				if len(keep) == 0 {
					nodeBits[w] &^= 1 << (uint(u) & 63)
				}
			}
		}

		heldLast = res.Holds > holdsBefore
	}

	if remaining > 0 {
		for u := 0; u < n; u++ {
			for _, i32 := range waiting[u] {
				drop(int(i32), cycle, u, &res.Stuck, obs.DropStuck)
				remaining--
			}
			waiting[u] = waiting[u][:0]
		}
		for u := 0; u < n; u++ {
			lo, hi := nw.arcBase[u], nw.arcBase[u+1]
			for a := lo; a < hi; a++ {
				for _, fl := range pipes[a] {
					drop(fl.pkt, cycle, u, &res.Stuck, obs.DropStuck)
					remaining--
				}
				pipes[a] = pipes[a][:0]
			}
		}
		for _, i32 := range holdq {
			i := int(i32)
			drop(i, cycle, pkts[i].Src, &res.DroppedQueueFull, obs.DropQueueFull)
			remaining--
		}
		for ; cursor < len(order); cursor++ {
			i := int(order[cursor])
			drop(i, cycle, pkts[i].Src, &res.DroppedHorizon, obs.DropHorizon)
			remaining--
		}
	}

	latencySum := 0
	for i := range pkts {
		p := pkts[i]
		if p.Delivered < 0 {
			continue
		}
		res.TotalHops += p.Hops
		if p.Hops > res.MaxHops {
			res.MaxHops = p.Hops
		}
		latencySum += p.Delivered - p.Release
		res.TotalWait += (p.Delivered - p.Release) - p.Hops*cfg.HopLatency
	}
	if res.Delivered > 0 {
		res.MeanLatency = float64(latencySum) / float64(res.Delivered)
		res.MeanHops = float64(res.TotalHops) / float64(res.Delivered)
	}
	res.Packets = pkts
	return res, events, nil
}

// faultRefTopology is one network of the fault-engine equivalence
// matrix, with the arc groups its lens faults draw from.
type faultRefTopology struct {
	name   string
	nw     *Network
	lenses [][]Arc
}

// faultRefTopologies builds the matrix networks: table-routed B(2,5),
// B(2,5) behind a custom router the engines cannot devirtualize,
// shift-routed B(3,3), table-routed Kautz K(2,4) and the OTIS machine
// wiring B(2,6), table-routed and witness-routed, whose lens groups are
// the layout's real ones. The non-OTIS digraphs get synthetic lens
// groups: every fourth arc from a rotating offset. On the shift-routed
// networks the engines rank deflections by the closed-form distance and
// the frozen references by the all-pairs slab, so equality there pins
// the closed form to the slab ranking.
func faultRefTopologies(t interface{ Fatal(...any) }) []faultRefTopology {
	mk := func(g *digraph.Digraph, r Router) *Network {
		nw, err := NewNetwork(g, WithRouter(r))
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	synthetic := func(nw *Network) [][]Arc {
		groups := make([][]Arc, 4)
		for u := 0; u < nw.g.N(); u++ {
			for k := range nw.g.Out(u) {
				flat := nw.ArcIndex(u, k)
				groups[flat%4] = append(groups[flat%4], Arc{Tail: u, Index: k})
			}
		}
		return groups
	}
	b25 := debruijn.DeBruijn(2, 5)
	b33 := debruijn.DeBruijn(3, 3)
	k24, _ := debruijn.Kautz(2, 4)
	tops := []faultRefTopology{
		{name: "B(2,5)_table", nw: mk(b25, NewTableRouter(b25))},
		{name: "B(2,5)_custom", nw: mk(b25, opaqueRouter{NewTableRouter(b25)})},
		{name: "B(3,3)_shift", nw: mk(b33, NewDeBruijnRouter(3, 3))},
		{name: "K(2,4)_table", nw: mk(k24, NewTableRouter(k24))},
	}
	for i := range tops {
		tops[i].lenses = synthetic(tops[i].nw)
	}
	h, lenses := otisB26(t)
	_, _, wr := otisB26Witness(t)
	return append(tops,
		faultRefTopology{name: "OTIS_B(2,6)", nw: mk(h, NewTableRouter(h)), lenses: lenses},
		faultRefTopology{name: "OTIS_B(2,6)_witness", nw: mk(h, wr), lenses: lenses})
}

// otisB26 returns the OTIS wiring of B(2,6) and the arc group each of
// its lenses carries.
func otisB26(t interface{ Fatal(...any) }) (*digraph.Digraph, [][]Arc) {
	layout, ok := otis.OptimalLayout(2, 6)
	if !ok {
		t.Fatal("no OTIS layout for B(2,6)")
	}
	var lenses [][]Arc
	for lens := 0; lens < layout.Lenses(); lens++ {
		arcs, err := layout.LensArcs(lens)
		if err != nil {
			t.Fatal(err)
		}
		group := make([]Arc, len(arcs))
		for j, a := range arcs {
			group[j] = Arc{Tail: a[0], Index: a[1]}
		}
		lenses = append(lenses, group)
	}
	return otis.MustH(layout.P(), layout.Q(), 2), lenses
}

// faultRefPlans returns the seeded fault plans of the matrix: none,
// link, node and lens faults each transient and permanent, and a plan
// of overlapping spans (two transients on one arc, a node fault on its
// tail, a lens fault covering it and a permanent fault starting inside
// the window).
func faultRefPlans(top faultRefTopology, rng *rand.Rand) []struct {
	name string
	plan *FaultPlan
} {
	g := top.nw.g
	n := g.N()
	arc := func() (int, int) {
		u := rng.Intn(n)
		return u, rng.Intn(g.OutDegree(u))
	}
	lens := func() (int, []Arc) {
		l := rng.Intn(len(top.lenses))
		return l, top.lenses[l]
	}
	type named = struct {
		name string
		plan *FaultPlan
	}
	var plans []named
	plans = append(plans, named{"none", nil})
	p := NewFaultPlan()
	for i := 0; i < 3; i++ {
		u, k := arc()
		p.LinkDown(rng.Intn(10), 2+rng.Intn(10), u, k)
	}
	plans = append(plans, named{"link_transient", p})
	p = NewFaultPlan()
	for i := 0; i < 2; i++ {
		u, k := arc()
		p.LinkDown(rng.Intn(15), 0, u, k)
	}
	plans = append(plans, named{"link_permanent", p})
	p = NewFaultPlan()
	for i := 0; i < 2; i++ {
		p.NodeDown(rng.Intn(10), 2+rng.Intn(10), rng.Intn(n))
	}
	plans = append(plans, named{"node_transient", p})
	plans = append(plans, named{"node_permanent", NewFaultPlan().NodeDown(rng.Intn(12), 0, rng.Intn(n))})
	l, group := lens()
	plans = append(plans, named{"lens_transient", NewFaultPlan().LensDown(2, 16, l, group)})
	l, group = lens()
	plans = append(plans, named{"lens_permanent", NewFaultPlan().LensDown(rng.Intn(8), 0, l, group)})
	u, k := arc()
	l, group = lens()
	p = NewFaultPlan().
		LinkDown(2, 8, u, k).
		LinkDown(5, 12, u, k).
		NodeDown(4, 6, u).
		LensDown(3, 10, l, append(group, Arc{Tail: u, Index: k}))
	pu, pk := arc()
	p.LinkDown(7, 0, pu, pk).LinkDown(9, 0, pu, pk)
	plans = append(plans, named{"overlap", p})
	return plans
}

// trapRouter routes like primary except toward destinations divisible
// by 5, where it always takes out-arc 0: a walk that need not reach the
// destination, so packets loop until their TTL runs out.
type trapRouter struct{ primary Router }

func (r trapRouter) NextArc(at, dst int) int {
	if dst%5 == 0 {
		return 0
	}
	return r.primary.NextArc(at, dst)
}

// TestFaultEngineMatchesReference drives the fault engine and its
// frozen reference over topologies × fault plans × run options ×
// tracing × workloads and requires reflect.DeepEqual results and event
// traces and byte-identical OBS_run/v1 documents (arena counters
// aside, as the reference allocates fresh scratch). The workloads are
// two seeded ones of 3n packets released over n cycles and a dense one
// of 8n packets all released at cycle 0, whose nodes hold packets for
// several out-arcs, interleaved several deep. Both departure paths —
// a node popping its queue heads and a node walking its FIFO — must
// run somewhere in the matrix.
func TestFaultEngineMatchesReference(t *testing.T) {
	configs := []struct {
		name       string
		net        NetworkOption // the hop latency or cycle budget, set on the Network
		loop       bool          // route by trapRouter over the topology's router
		qcap, hold int
		admit      *AdmissionConfig
	}{
		{name: "default"},
		{name: "lat2", net: WithHopLatency(2)},
		{name: "lat3", net: WithHopLatency(3)},
		{name: "qcap1", qcap: 1},
		{name: "qcap2_admit", qcap: 2, hold: 3, admit: &AdmissionConfig{Rate: 2, Burst: 2, MaxDelay: 6}},
		{name: "trunc", net: WithMaxCycles(7)},
		{name: "loop", loop: true},
	}
	// Every fault path must fire somewhere in the matrix, or the
	// equivalence would be vacuous for it.
	var total FaultResult
	var pops, walks int64
	for _, top := range faultRefTopologies(t) {
		n := top.nw.g.N()
		m := int(top.nw.arcBase[n])
		nets := make([]*Network, len(configs))
		for i, cc := range configs {
			nets[i] = top.nw
			if cc.net == nil && !cc.loop {
				continue
			}
			opts := []NetworkOption{WithRouter(top.nw.router)}
			if cc.loop {
				opts[0] = WithRouter(trapRouter{top.nw.router})
			} else {
				opts = append(opts, cc.net)
			}
			nw, err := NewNetwork(top.nw.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			nets[i] = nw
		}
		reroutes := 0
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 104729))
			load := fmt.Sprintf("seed%d", seed)
			pkts := make([]Packet, 3*n)
			if seed == 3 {
				load, pkts = "dense", make([]Packet, 8*n)
			}
			for i := range pkts {
				pkts[i] = Packet{ID: i, Src: rng.Intn(n), Dst: rng.Intn(n)}
				if seed < 3 {
					pkts[i].Release = rng.Intn(n)
				}
			}
			for _, pc := range faultRefPlans(top, rng) {
				for ci, cc := range configs {
					nw := nets[ci]
					for _, traced := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/%s/traced=%v", top.name, load, pc.name, cc.name, traced)
						var admitRef, admitNew *admitState
						if cc.admit != nil {
							admitRef = newAdmitState(*cc.admit, nw.g.Diameter())
							admitNew = newAdmitState(*cc.admit, nw.g.Diameter())
						}
						recRef, recNew := obs.NewRecorder(nil), obs.NewRecorder(nil)
						recRef.SizeArcs(m)
						recNew.SizeArcs(m)
						want, wantEv, err := refRunWithFaults(nw, pkts, pc.plan, refFaultConfigFor(nw, cc.qcap, cc.hold), traced, admitRef, recRef)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						tun := runTuning{qcap: cc.qcap, hold: cc.hold, admit: admitNew, trace: traced}
						pops0, walks0 := nw.faultPops.Load(), nw.faultWalks.Load()
						got, gotEv, err := nw.runWithFaults(pkts, pc.plan, tun, recNew)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						pops += nw.faultPops.Load() - pops0
						walks += nw.faultWalks.Load() - walks0
						if !reflect.DeepEqual(want, got) {
							want.Packets, got.Packets = nil, nil
							t.Fatalf("%s: results diverge\nref: %+v\nnew: %+v", name, want, got)
						}
						total.Reroutes += got.Reroutes
						reroutes += got.Reroutes
						total.Retries += got.Retries
						total.Holds += got.Holds
						total.Shed += got.Shed
						total.DroppedTTL += got.DroppedTTL
						total.DroppedNoRoute += got.DroppedNoRoute
						total.DroppedFault += got.DroppedFault
						total.DroppedHorizon += got.DroppedHorizon
						total.DroppedQueueFull += got.DroppedQueueFull
						total.Stuck += got.Stuck
						if !reflect.DeepEqual(wantEv, gotEv) {
							t.Fatalf("%s: event traces diverge (%d vs %d events)", name, len(wantEv), len(gotEv))
						}
						docRef, err := recRef.Snapshot().MarshalIndent()
						if err != nil {
							t.Fatal(err)
						}
						docNew, err := recNew.Snapshot().MarshalIndent()
						if err != nil {
							t.Fatal(err)
						}
						if stripArenaLines(string(docRef)) != stripArenaLines(string(docNew)) {
							t.Fatalf("%s: OBS documents diverge\nref:\n%s\nnew:\n%s", name, docRef, docNew)
						}
					}
				}
			}
		}
		if top.nw.shift != nil && reroutes == 0 {
			// Shift-routed: the engine ranked every deflection in closed
			// form, so it must have deflected.
			t.Errorf("%s: no run deflected, so the closed-form ranking went unchecked", top.name)
		}
	}
	for _, c := range []struct {
		name  string
		count int
	}{
		{"reroutes", total.Reroutes}, {"retries", total.Retries}, {"holds", total.Holds},
		{"shed", total.Shed}, {"TTL drops", total.DroppedTTL}, {"no-route drops", total.DroppedNoRoute},
		{"fault drops", total.DroppedFault}, {"horizon drops", total.DroppedHorizon},
		{"queue-full drops", total.DroppedQueueFull}, {"stuck", total.Stuck},
		{"popped departures", int(pops)}, {"walked nodes", int(walks)},
	} {
		if c.count == 0 {
			t.Errorf("no run in the matrix exercised %s", c.name)
		}
	}
}
