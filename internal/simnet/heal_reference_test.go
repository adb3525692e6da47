package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/digraph"
	"repro/internal/obs"
)

// The self-healing reference: a frozen copy of the SelfHealing.Run cycle
// loop and its routing decision as they stood while the heal engine had
// a loop of its own. It allocates fresh scratch instead of using the
// arena (it only runs in tests) but takes every decision — monitor
// ticks, recovery probes, gossip steps, routing, NACKs, detections,
// retries, holds, drops and recording — exactly as that engine did, on
// its own session built from the same plan and config. DeepEqual
// against SelfHealing.Run, Run after Run, proves the two are observably
// identical, including the session state a Run leaves behind. The
// routing slabs are frozen with it (refHealSession): the pristine slab
// a session starts from and the per-epoch copies repaired from it.

// refHealSession is a session driven by the frozen loop: the live
// session's knowledge (event log, floods, suspicion, quarantines) plus
// the frozen slab state — the pristine fault-free slab (epoch 0), the
// repaired slab of every epoch routed so far, the repair count, and the
// all-pairs distance slab its deflections rank by.
type refHealSession struct {
	*SelfHealing
	cfg     refHealConfig
	base    *TableRouter
	slabs   map[int]*TableRouter
	repairs int
	dist    []int32
}

// refHealConfig is the resolved session tuning the frozen loop reads, as
// the historical HealConfig held it once defaulted.
type refHealConfig struct {
	refFaultConfig
	DetectLatency, SuspectThreshold, ProbeInterval int
	Monitor                                        HealMonitor
}

// newRefHealSession wraps s with the frozen pristine-slab build — the
// network's router when it is a *TableRouter, else NewTableRouter of
// the digraph — and the session's resolved tuning: detection after 2
// failures of 2 cycles each, and recovery probes every 16 cycles.
func newRefHealSession(s *SelfHealing) *refHealSession {
	base, ok := s.nw.router.(*TableRouter)
	if !ok {
		base = NewTableRouter(s.nw.g)
	}
	cfg := refHealConfig{refFaultConfig: refFaultConfigFor(s.nw, s.cfg.QueueCapacity, s.cfg.HoldBudget),
		DetectLatency: 2, SuspectThreshold: 2, ProbeInterval: 16, Monitor: s.cfg.Monitor}
	return &refHealSession{SelfHealing: s, cfg: cfg, base: base, slabs: map[int]*TableRouter{}, dist: s.nw.g.DistanceSlab()}
}

// routerFor is the frozen healState.routerFor: the routing slab of the
// given epoch, repaired from the pristine base on first use.
func (s *refHealSession) routerFor(e int, rec *obs.Recorder) *TableRouter {
	if e == 0 {
		return s.base
	}
	if r, ok := s.slabs[e]; ok {
		return r
	}
	r, err := refRepair(s.base, s.heal.g, s.heal.downSet(e))
	if err != nil {
		panic(fmt.Sprintf("simnet: heal: epoch %d slab repair: %v", e, err))
	}
	s.slabs[e] = r
	s.repairs++
	rec.RepairSlabBuild()
	return r
}

// refRepair is the frozen TableRouter.Repair: r, the slab
// NewTableRouter built for g, patched to the residual digraph of g
// minus the dead arcs by re-running the builder's reverse BFS only for
// the destinations whose routing tree traverses a dead arc.
func refRepair(r *TableRouter, g *digraph.Digraph, dead []Arc) (*TableRouter, error) {
	n := g.N()
	if r == nil || r.n != n {
		return nil, fmt.Errorf("simnet: Repair: router does not match the %d-node digraph", n)
	}
	guardIndexInt32(n, "nodes")
	guardIndexInt32(g.M(), "arcs")

	fwdBase := make([]int32, n+1)
	for u := 0; u < n; u++ {
		fwdBase[u+1] = fwdBase[u] + int32(g.OutDegree(u))
	}
	deadMask := make([]bool, g.M())
	for _, a := range dead {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return nil, fmt.Errorf("simnet: Repair: dead arc (%d#%d) out of range", a.Tail, a.Index)
		}
		deadMask[fwdBase[a.Tail]+int32(a.Index)] = true
	}

	narrow := r.arcs != nil
	var arcs8 []int8
	var arcs32 []int32
	if narrow {
		arcs8 = make([]int8, len(r.arcs))
		copy(arcs8, r.arcs)
	} else {
		arcs32 = make([]int32, len(r.wide))
		copy(arcs32, r.wide)
	}

	affected := make([]bool, n)
	count := 0
	for _, a := range dead {
		if g.Out(a.Tail)[a.Index] == a.Tail {
			continue // loops never carry shortest paths
		}
		if narrow {
			count += refMarkAffected(r.arcs[a.Tail*n:(a.Tail+1)*n], int8(a.Index), affected)
		} else {
			count += refMarkAffected(r.wide[a.Tail*n:(a.Tail+1)*n], int32(a.Index), affected)
		}
	}
	if count == 0 {
		return &TableRouter{n: n, arcs: arcs8, wide: arcs32}, nil
	}

	revBase := make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			revBase[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		revBase[v+1] += revBase[v]
	}
	revTail := make([]int32, g.M())
	revArc := make([]int32, g.M())
	revFlat := make([]int32, g.M())
	fill := make([]int32, n)
	for u := 0; u < n; u++ {
		for k, v := range g.Out(u) {
			slot := revBase[v] + fill[v]
			revTail[slot] = int32(u)
			revArc[slot] = int32(k)
			revFlat[slot] = fwdBase[u] + int32(k)
			fill[v]++
		}
	}

	seen := make([]int32, n)
	queue := make([]int32, 0, n)
	if narrow {
		refRepatchArcs(arcs8, n, affected, deadMask, revBase, revTail, revArc, revFlat, seen, queue)
	} else {
		refRepatchArcs(arcs32, n, affected, deadMask, revBase, revTail, revArc, revFlat, seen, queue)
	}
	return &TableRouter{n: n, arcs: arcs8, wide: arcs32}, nil
}

// refMarkAffected is the frozen markAffected: it marks every
// destination whose routing row forwards over dead arc index idx,
// returning how many were newly marked.
func refMarkAffected[T int8 | int32](row []T, idx T, affected []bool) int {
	count := 0
	for dst, arc := range row {
		if arc == idx && !affected[dst] {
			affected[dst] = true
			count++
		}
	}
	return count
}

// refRepatchArcs is the frozen repatchArcs: the builder's reverse BFS,
// re-run for every affected destination over the dead-arc-masked
// reverse CSR, rewriting those destinations' columns in place.
func refRepatchArcs[T int8 | int32](arcs []T, n int, affected, deadMask []bool, revBase, revTail, revArc, revFlat, seen, queue []int32) {
	for dst := 0; dst < n; dst++ {
		if !affected[dst] {
			continue
		}
		for x := 0; x < n; x++ {
			arcs[x*n+dst] = -1
		}
		epoch := int32(dst + 1)
		seen[dst] = epoch
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for idx := revBase[v]; idx < revBase[v+1]; idx++ {
				if deadMask[revFlat[idx]] {
					continue
				}
				u := revTail[idx]
				if seen[u] == epoch {
					continue
				}
				seen[u] = epoch
				arcs[int(u)*n+dst] = T(revArc[idx])
				queue = append(queue, u)
			}
		}
	}
}

// refHealRun is the frozen SelfHealing.Run.
func refHealRun(s *refHealSession, packets []Packet) (HealResult, error) {

	nw, cfg, h := s.nw, s.cfg, s.heal
	n := nw.g.N()
	m := int(nw.arcBase[n])
	start := s.clock
	mon := cfg.Monitor
	rec := nw.rec

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = nw.defaultBudget(len(packets), cfg.HopLatency)
		maxCycles += cfg.MaxRetries * cfg.BackoffCap
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

	res := HealResult{}
	drop := func(bucket *int, cause obs.DropCause) {
		*bucket++
		res.Dropped++
		if rec != nil {
			rec.Drop(cause)
		}
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

	policy := newRetryPolicy(cfg.refFaultConfig)
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

	gossipLive := func(tail, index int) bool { return !s.state.ArcDown(tail, index) }

	var cycle int
	for cycle = 0; remaining > 0 && cycle <= maxCycles; cycle++ {
		abs := start + cycle
		s.state.Advance(abs)

		if mon != nil {
			quarantine, release, probe := mon.Tick(abs)
			for _, a := range quarantine {
				s.quarantined[a] = true
			}
			for _, a := range release {
				delete(s.quarantined, a)
			}
			for _, a := range probe {
				res.Probes++
				if rec != nil {
					rec.Probe()
				}
				mon.ProbeResult(abs, a, !s.state.ArcDown(a.Tail, a.Index))
			}
		}

		if abs > 0 && abs%cfg.ProbeInterval == 0 {
			for _, a := range h.downSet(len(h.events)) {
				res.Probes++
				if rec != nil {
					rec.Probe()
				}
				if !s.state.ArcDown(a.Tail, a.Index) {
					if err := h.commit(a, true, abs); err != nil {
						return res, err
					}
					res.EventsCommitted++
					if rec != nil {
						rec.HealEvent()
					}
				}
			}
		}

		h.stepFloods(abs, gossipLive)

		if len(holdq) > 0 {
			nh := holdq[:0]
			for _, i32 := range holdq {
				i := int(i32)
				src := pkts[i].Src
				if nodeFull(src) {
					if !hold(i, len(waiting[src])) {
						drop(&res.DroppedQueueFull, obs.DropQueueFull)
						remaining--
						continue
					}
					nh = append(nh, i32)
					continue
				}
				waiting[src] = append(waiting[src], i32)
				nodeBits[src>>6] |= 1 << (uint(src) & 63)
				enter()
			}
			holdq = nh
		}
		for cursor < len(order) && pkts[order[cursor]].Release <= cycle {
			i := int(order[cursor])
			cursor++
			src := pkts[i].Src
			if nodeFull(src) {
				if !hold(i, len(waiting[src])) {
					drop(&res.DroppedQueueFull, obs.DropQueueFull)
					remaining--
					continue
				}
				holdq = append(holdq, int32(i))
				continue
			}
			waiting[src] = append(waiting[src], int32(i))
			nodeBits[src>>6] |= 1 << (uint(src) & 63)
			enter()
		}

		for w := range aBits {
			bits := aBits[w]
			for bits != 0 {
				a := int32(w<<6 + trailingZeros64(bits))
				bits &= bits - 1
				pipe := pipes[a]
				keep := pipe[:0]
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
					if s.state.NodeDown(v) {
						drop(&res.DroppedFault, obs.DropFault)
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
						continue
					}
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
						drop(&res.DroppedTTL, obs.DropTTL)
						remaining--
						resident--
						continue
					}
					arc := refRouteArc(s, u, p.Dst, rec)
					if arc < 0 {
						if !policy.charge(&meta[i], cycle, p.ID) {
							drop(&res.DroppedNoRoute, obs.DropNoRoute)
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
							drop(&res.DroppedQueueFull, obs.DropQueueFull)
							remaining--
							resident--
							continue
						}
						keep = append(keep, i32)
						continue
					}
					busy[arc] = token
					a := Arc{Tail: u, Index: arc}
					if s.state.ArcDown(u, arc) {
						res.Nacks++
						if rec != nil {
							rec.Nack()
						}
						if mon != nil {
							mon.ArcFailed(start+cycle, a)
						}
						h.suspicion[a]++
						meta[i].readyAt = cycle + cfg.DetectLatency
						keep = append(keep, i32)
						if h.suspicion[a] >= cfg.SuspectThreshold && !h.activeDown(a) {
							if err := h.commit(a, false, start+cycle); err != nil {
								return res, err
							}
							delete(h.suspicion, a)
							res.Detections++
							res.EventsCommitted++
							if rec != nil {
								rec.Detect()
								rec.HealEvent()
							}
						}
						continue
					}
					delete(h.suspicion, a)
					if mon != nil {
						mon.ArcOK(start+cycle, a)
					}
					if s.nw.router.NextArc(u, p.Dst) != arc {
						res.Reroutes++
						if rec != nil {
							rec.Reroute()
						}
					}
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
	}
	s.clock = start + cycle

	if remaining > 0 {
		for u := 0; u < n; u++ {
			for range waiting[u] {
				drop(&res.Stuck, obs.DropStuck)
				remaining--
			}
			waiting[u] = waiting[u][:0]
		}
		for u := 0; u < n; u++ {
			lo, hi := nw.arcBase[u], nw.arcBase[u+1]
			for a := lo; a < hi; a++ {
				for range pipes[a] {
					drop(&res.Stuck, obs.DropStuck)
					remaining--
				}
				pipes[a] = pipes[a][:0]
			}
		}
		for range holdq {
			drop(&res.DroppedQueueFull, obs.DropQueueFull)
			remaining--
		}
		for ; cursor < len(order); cursor++ {
			drop(&res.DroppedHorizon, obs.DropHorizon)
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

	res.FinalEpoch = len(h.events)
	res.Repairs = s.repairs
	res.Converged = h.converged()
	res.ConvergedCycle = h.convergedCycle()
	if res.Converged && len(h.events) > 0 && rec != nil {
		rec.ConvergeCycles(int64(res.ConvergedCycle - h.firstEventCycle()))
	}
	return res, nil
}

// refRouteArc is the frozen SelfHealing.routeArc.
func refRouteArc(s *refHealSession, u, dst int, rec *obs.Recorder) int {
	h := s.heal
	usable := func(k int) bool {
		a := Arc{Tail: u, Index: k}
		return !s.quarantined[a] && !h.believedDown(u, a)
	}
	r := s.routerFor(h.knownEpoch(u), rec)
	arc := r.NextArc(u, dst)
	if arc >= 0 && usable(arc) {
		return arc
	}
	dist := s.dist
	n := s.nw.g.N()
	best := -1
	bestDist := int32(-1)
	for k, v := range s.nw.g.Out(u) {
		if k == arc || v == u || !usable(k) {
			continue
		}
		dv := dist[v*n+dst]
		if dv == digraph.Unreachable {
			continue
		}
		if best < 0 || dv < bestDist {
			best, bestDist = k, dv
		}
	}
	return best
}

// monitorCall is one HealMonitor callback.
type monitorCall struct {
	kind  byte // 't' Tick, 'f' ArcFailed, 'o' ArcOK, 'p' ProbeResult
	cycle int
	arc   Arc
	ok    bool
}

// callLog is the scripted quarantine monitor with every callback
// logged, so twin sessions' monitor traffic can be compared call by
// call.
type callLog struct {
	quarMonitor
	calls []monitorCall
}

func (m *callLog) ArcFailed(cycle int, arc Arc) {
	m.calls = append(m.calls, monitorCall{kind: 'f', cycle: cycle, arc: arc})
	m.quarMonitor.ArcFailed(cycle, arc)
}

func (m *callLog) ArcOK(cycle int, arc Arc) {
	m.calls = append(m.calls, monitorCall{kind: 'o', cycle: cycle, arc: arc})
	m.quarMonitor.ArcOK(cycle, arc)
}

func (m *callLog) Tick(cycle int) (quarantine, release, probe []Arc) {
	m.calls = append(m.calls, monitorCall{kind: 't', cycle: cycle})
	return m.quarMonitor.Tick(cycle)
}

func (m *callLog) ProbeResult(cycle int, arc Arc, ok bool) {
	m.calls = append(m.calls, monitorCall{kind: 'p', cycle: cycle, arc: arc, ok: ok})
	m.quarMonitor.ProbeResult(cycle, arc, ok)
}

// TestHealEngineMatchesReference opens twin sessions — one driven by
// SelfHealing.Run, one by the frozen loop, each on its own Network and
// recorder — over topologies × fault plans × configs × monitor × seeds,
// runs two Runs on each, and after every Run requires DeepEqual
// results and session state (clock, epoch, believed-down and
// quarantined sets, suspicion counters, convergence), identical
// monitor callbacks and identical OBS_run/v1 documents (arena counters
// aside, as the reference allocates fresh scratch). Both departure paths
// must run somewhere in the matrix: a node popping its queue heads (a
// session node that has heard of no link-state event) and a node
// walking its FIFO.
func TestHealEngineMatchesReference(t *testing.T) {
	configs := []struct {
		name string
		net  NetworkOption // the hop latency or cycle budget, set on the Network
		cfg  HealConfig
	}{
		{name: "default"},
		{name: "lat2", net: WithHopLatency(2)},
		{name: "qcap1", cfg: HealConfig{QueueCapacity: 1}},
		{name: "trunc", net: WithMaxCycles(7)},
	}
	// Every control-plane and drop path must fire somewhere in the
	// matrix, or the equivalence would be vacuous for it.
	var total HealResult
	quarantines := 0
	var pops, walks int64
	for _, top := range faultRefTopologies(t) {
		g, router := top.nw.g, top.nw.router
		n := g.N()
		m := int(top.nw.arcBase[n])
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed * 15485863))
			waves := make([][]Packet, 2)
			for w := range waves {
				waves[w] = make([]Packet, 3*n)
				for i := range waves[w] {
					waves[w][i] = Packet{ID: i, Src: rng.Intn(n), Dst: rng.Intn(n), Release: rng.Intn(n)}
				}
			}
			quarArc := Arc{Tail: rng.Intn(n)}
			quarArc.Index = rng.Intn(g.OutDegree(quarArc.Tail))
			for _, pc := range faultRefPlans(top, rng) {
				for _, cc := range configs {
					for _, monitored := range []bool{false, true} {
						name := fmt.Sprintf("%s/seed%d/%s/%s/monitor=%v", top.name, seed, pc.name, cc.name, monitored)
						open := func() (*SelfHealing, *obs.Recorder, *callLog) {
							opts := []NetworkOption{WithRouter(router)}
							if cc.net != nil {
								opts = append(opts, cc.net)
							}
							nw, err := NewNetwork(g, opts...)
							if err != nil {
								t.Fatal(err)
							}
							rec := obs.NewRecorder(nil)
							rec.SizeArcs(m)
							nw.Observe(rec)
							cfg := cc.cfg
							mon := &callLog{quarMonitor: quarMonitor{arc: quarArc, at: 3}}
							if monitored {
								cfg.Monitor = mon
							}
							s, err := nw.SelfHeal(pc.plan, cfg)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							return s, rec, mon
						}
						refS, recRef, monRef := open()
						ref := newRefHealSession(refS)
						got, recNew, monNew := open()
						for w, pkts := range waves {
							want, err := refHealRun(ref, pkts)
							if err != nil {
								t.Fatalf("%s run %d: reference: %v", name, w, err)
							}
							res, err := got.Run(pkts)
							if err != nil {
								t.Fatalf("%s run %d: %v", name, w, err)
							}
							if !reflect.DeepEqual(want, res) {
								want.Packets, res.Packets = nil, nil
								t.Fatalf("%s run %d: results diverge\nref: %+v\nnew: %+v", name, w, want, res)
							}
							if ref.Cycle() != got.Cycle() || ref.Epoch() != got.Epoch() || ref.Converged() != got.Converged() ||
								!reflect.DeepEqual(ref.BelievedDown(), got.BelievedDown()) ||
								!reflect.DeepEqual(ref.Quarantined(), got.Quarantined()) ||
								!reflect.DeepEqual(ref.heal.suspicion, got.heal.suspicion) {
								t.Fatalf("%s run %d: session state diverges: clock %d/%d epoch %d/%d converged %v/%v down %v/%v quarantined %v/%v",
									name, w, ref.Cycle(), got.Cycle(), ref.Epoch(), got.Epoch(), ref.Converged(), got.Converged(),
									ref.BelievedDown(), got.BelievedDown(), ref.Quarantined(), got.Quarantined())
							}
							if !reflect.DeepEqual(monRef.calls, monNew.calls) {
								t.Fatalf("%s run %d: monitor callbacks diverge (%d vs %d calls)", name, w, len(monRef.calls), len(monNew.calls))
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
								t.Fatalf("%s run %d: OBS documents diverge\nref:\n%s\nnew:\n%s", name, w, docRef, docNew)
							}
							total.Nacks += res.Nacks
							total.Detections += res.Detections
							total.Probes += res.Probes
							total.Retries += res.Retries
							total.Reroutes += res.Reroutes
							total.Holds += res.Holds
							total.DroppedTTL += res.DroppedTTL
							total.DroppedNoRoute += res.DroppedNoRoute
							total.DroppedFault += res.DroppedFault
							total.DroppedHorizon += res.DroppedHorizon
							total.DroppedQueueFull += res.DroppedQueueFull
							total.Stuck += res.Stuck
							quarantines += len(got.Quarantined())
						}
						pops += got.nw.faultPops.Load()
						walks += got.nw.faultWalks.Load()
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name  string
		count int
	}{
		{"NACKs", total.Nacks}, {"detections", total.Detections}, {"recovery probes", total.Probes},
		{"quarantines", quarantines}, {"retries", total.Retries}, {"reroutes", total.Reroutes},
		{"holds", total.Holds}, {"TTL drops", total.DroppedTTL}, {"no-route drops", total.DroppedNoRoute},
		{"fault drops", total.DroppedFault}, {"horizon drops", total.DroppedHorizon},
		{"queue-full drops", total.DroppedQueueFull}, {"stuck", total.Stuck},
		{"popped departures", int(pops)}, {"walked nodes", int(walks)},
	} {
		if c.count == 0 {
			t.Errorf("no run in the matrix exercised %s", c.name)
		}
	}
}
