package simnet

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
)

// The reference engine: a frozen copy of the packet-at-a-time run loop
// the arc-major SoA kernel replaced, kept as a differential oracle. It
// allocates fresh scratch instead of using the arena (it only runs in
// tests) but takes every decision — routing, phase ordering, hold and
// drop accounting, recording — exactly as the historical engine did, so
// reflect.DeepEqual(refRun(...), nw.run(...)) proves the kernels are
// observably identical, packet by packet and counter by counter.

// fifo is the historical per-arc queue of packet indices. Popping
// advances a head cursor instead of reslicing away the front, so the
// backing array is reclaimed (not leaked) the moment the queue drains.
type fifo struct {
	buf  []int32
	head int
}

func (f *fifo) push(x int32) { f.buf = append(f.buf, x) }

func (f *fifo) pop() int32 {
	x := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return x
}

func (f *fifo) depth() int { return len(f.buf) - f.head }

// inflight is a packet moving through a historical per-arc link
// pipeline (the frozen plain, fault and heal engines keep theirs as
// slices of these).
type inflight struct {
	pkt   int // index into packets
	ready int // cycle at which it pops out at the head vertex
}

type refRunState struct {
	nw       *Network
	pkts     []Packet
	queues   []fifo
	res      *Result
	rec      *obs.Recorder
	qcap     int
	resident int
}

func (rs *refRunState) enter() {
	rs.resident++
	if rs.resident > rs.res.PeakResident {
		rs.res.PeakResident = rs.resident
	}
}

func (rs *refRunState) leave() { rs.resident-- }

func (rs *refRunState) enqueue(at, pkt int) enqStatus {
	arc := rs.nw.router.NextArc(at, rs.pkts[pkt].Dst)
	if arc < 0 {
		rs.res.Dropped++
		if rs.rec != nil {
			rs.rec.Drop(obs.DropNoRoute)
		}
		return enqNoRoute
	}
	flat := rs.nw.arcBase[at] + int32(arc)
	q := &rs.queues[flat]
	if rs.qcap > 0 && q.depth() >= rs.qcap {
		return enqFull
	}
	q.push(int32(pkt))
	depth := q.depth()
	if depth > rs.res.MaxQueue {
		rs.res.MaxQueue = depth
		rs.res.HotNode = at
	}
	if rs.rec != nil {
		rs.rec.QueueDepth(int(flat), depth)
	}
	return enqOK
}

func (rs *refRunState) holdOrDrop(meta []pktMeta, pkt, budget int) bool {
	meta[pkt].holds++
	if meta[pkt].holds > budget {
		rs.res.Dropped++
		rs.res.DroppedQueueFull++
		if rs.rec != nil {
			rs.rec.Drop(obs.DropQueueFull)
		}
		return false
	}
	rs.res.Holds++
	if rs.rec != nil {
		rs.rec.Hold(rs.qcap)
	}
	return true
}

// refRun is the frozen packet-at-a-time engine (historical Network.run).
func refRun(nw *Network, packets []Packet, tun runTuning, rec *obs.Recorder) Result {
	guardIndexInt32(len(packets), "packets")
	pkts := make([]Packet, len(packets))
	copy(pkts, packets)
	for i := range pkts {
		pkts[i].Delivered = -1
		pkts[i].Hops = 0
	}

	n := nw.g.N()
	m := int(nw.arcBase[n])
	queues := make([]fifo, m)
	pipes := make([][]inflight, m)

	maxCycles := tun.budget
	if maxCycles == 0 {
		maxCycles = nw.cfg.MaxCycles
	}
	if maxCycles == 0 {
		maxCycles = nw.defaultBudget(len(pkts), nw.cfg.HopLatency)
		if tun.admit != nil {
			maxCycles += int(float64(len(pkts))/tun.admit.rate) + tun.admit.maxDelay
		}
	}

	var meta []pktMeta
	if tun.qcap > 0 {
		meta = make([]pktMeta, len(pkts))
	}
	var holdq []int32
	credits := 0
	if tun.qcap > 0 {
		credits = tun.qcap + nw.cfg.HopLatency
	}

	res := Result{}
	remaining := 0
	var order []int32
	for i := range pkts {
		if pkts[i].Src == pkts[i].Dst {
			pkts[i].Delivered = pkts[i].Release
			res.Delivered++
			continue
		}
		if nw.router.NextArc(pkts[i].Src, pkts[i].Dst) < 0 {
			res.Dropped++
			if rec != nil {
				rec.Drop(obs.DropNoRoute)
			}
			continue
		}
		order = append(order, int32(i))
		remaining++
	}
	sortByRelease(order, pkts)
	cursor := 0

	rs := refRunState{nw: nw, pkts: pkts, queues: queues, res: &res, rec: rec, qcap: tun.qcap}
	admit := tun.admit
	heldLast := false

	for cycle := 0; remaining > 0 && cycle <= maxCycles; cycle++ {
		holdsBefore := res.Holds
		if admit != nil {
			admit.refill(heldLast)
		}

		if len(holdq) > 0 {
			nh := holdq[:0]
			for _, i32 := range holdq {
				i := int(i32)
				switch rs.enqueue(pkts[i].Src, i) {
				case enqOK:
					rs.enter()
				case enqNoRoute:
					remaining--
				case enqFull:
					if !rs.holdOrDrop(meta, i, tun.hold) {
						remaining--
						continue
					}
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
					if rec != nil {
						rec.Shed()
					}
					remaining--
					continue
				}
				if !admit.take() {
					break
				}
			}
			cursor++
			switch rs.enqueue(pkts[i].Src, i) {
			case enqOK:
				rs.enter()
			case enqNoRoute:
				remaining--
			case enqFull:
				if !rs.holdOrDrop(meta, i, tun.hold) {
					remaining--
					continue
				}
				holdq = append(holdq, int32(i))
			}
		}

		for u := 0; u < n; u++ {
			out := nw.g.Out(u)
			lo, hi := nw.arcBase[u], nw.arcBase[u+1]
			for a := lo; a < hi; a++ {
				pipe := pipes[a]
				keep := pipe[:0]
				for _, fl := range pipe {
					if fl.ready > cycle {
						keep = append(keep, fl)
						continue
					}
					v := out[a-lo]
					p := &pkts[fl.pkt]
					if v == p.Dst {
						p.Hops++
						if rec != nil {
							rec.ArcTraverse(int(a))
						}
						p.Delivered = cycle
						res.Delivered++
						remaining--
						rs.leave()
						if cycle > res.Cycles {
							res.Cycles = cycle
						}
						if rec != nil {
							rec.Deliver(cycle-p.Release, p.Hops)
						}
						continue
					}
					switch rs.enqueue(v, fl.pkt) {
					case enqOK:
						p.Hops++
						if rec != nil {
							rec.ArcTraverse(int(a))
						}
					case enqNoRoute:
						p.Hops++
						if rec != nil {
							rec.ArcTraverse(int(a))
						}
						remaining--
						rs.leave()
					case enqFull:
						if !rs.holdOrDrop(meta, fl.pkt, tun.hold) {
							remaining--
							rs.leave()
							continue
						}
						keep = append(keep, inflight{pkt: fl.pkt, ready: cycle + 1})
					}
				}
				pipes[a] = keep
			}
		}

		for a := range queues {
			q := &queues[a]
			if q.depth() == 0 {
				continue
			}
			if credits > 0 && len(pipes[a]) >= credits {
				continue
			}
			pipes[a] = append(pipes[a], inflight{
				pkt:   int(q.pop()),
				ready: cycle + nw.cfg.HopLatency,
			})
		}

		heldLast = res.Holds > holdsBefore
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
		res.TotalWait += (p.Delivered - p.Release) - p.Hops*nw.cfg.HopLatency
	}
	if res.Delivered > 0 {
		res.MeanLatency = float64(latencySum) / float64(res.Delivered)
		res.MeanHops = float64(res.TotalHops) / float64(res.Delivered)
	}
	res.Packets = pkts
	return res
}

// TestArcMajorKernelMatchesReference drives both engines over a matrix
// of topologies, routers, workloads and overload tunings and requires
// reflect.DeepEqual results and byte-identical OBS_run/v1 documents.
func TestArcMajorKernelMatchesReference(t *testing.T) {
	type netCase struct {
		name   string
		build  func() (*Network, *Network, error)
		n      int
		cycles int
		// midPath requires some packet to be dropped after a hop.
		midPath bool
	}
	mkGraph := func(g *digraph.Digraph, r Router, opts ...NetworkOption) func() (*Network, *Network, error) {
		return func() (*Network, *Network, error) {
			opts := append([]NetworkOption{WithRouter(r)}, opts...)
			a, err := NewNetwork(g, opts...)
			if err != nil {
				return nil, nil, err
			}
			b, err := NewNetwork(g, opts...)
			return a, b, err
		}
	}
	mkDB := func(d, D int, table bool, opts ...NetworkOption) func() (*Network, *Network, error) {
		return func() (*Network, *Network, error) {
			g := debruijn.DeBruijn(d, D)
			var r Router
			if table {
				r = NewTableRouter(g)
			} else {
				r = NewDeBruijnRouter(d, D)
			}
			return mkGraph(g, r, opts...)()
		}
	}
	mkWitness := func(opts ...NetworkOption) func() (*Network, *Network, error) {
		return func() (*Network, *Network, error) {
			h, _, r := otisB26Witness(t)
			return mkGraph(h, r, opts...)()
		}
	}
	nets := []netCase{
		{name: "B(2,5)_table", build: mkDB(2, 5, true)},
		{name: "B(3,3)_word", build: mkDB(3, 3, false)},
		{name: "B(2,4)_lat3", build: mkDB(2, 4, true, WithHopLatency(3))},
		{name: "B(2,4)_trunc", build: mkDB(2, 4, true, WithMaxCycles(6))},
		{name: "OTIS_B(2,6)_witness", build: mkWitness()},
		{name: "OTIS_B(2,6)_witness_lat2", build: mkWitness(WithHopLatency(2))},
		{name: "OTIS_B(2,6)_witness_trunc", build: mkWitness(WithMaxCycles(9))},
		{name: "B(3,3)_word_lat4", build: mkDB(3, 3, false, WithHopLatency(4))},
		{name: "multigraph_table", build: func() (*Network, *Network, error) {
			g := parallelLoopMultigraph()
			r := NewTableRouter(g)
			a, err := NewNetwork(g, WithRouter(r))
			if err != nil {
				return nil, nil, err
			}
			b, err := NewNetwork(g, WithRouter(r))
			return a, b, err
		}},
		{name: "B(2,5)_refusing", build: mkGraph(debruijn.DeBruijn(2, 5), refusingRouter{NewTableRouter(debruijn.DeBruijn(2, 5))}), midPath: true},
		{name: "wide_hub_table", build: mkGraph(wideHubDigraph(), NewTableRouter(wideHubDigraph()))},
	}
	if NewTableRouter(wideHubDigraph()).arcs != nil {
		t.Fatal("wide_hub_table: the table router built the int8 slab; the row must exercise the wide one")
	}
	tunings := []struct {
		name string
		tun  func() runTuning
	}{
		{name: "unbounded", tun: func() runTuning { return runTuning{} }},
		{name: "qcap1", tun: func() runTuning { return runTuning{qcap: 1}.withDefaults() }},
		{name: "qcap2_hold3", tun: func() runTuning { return runTuning{qcap: 2, hold: 3} }},
		{name: "qcap1_admit", tun: func() runTuning {
			return runTuning{qcap: 1, hold: 2, admit: &admitState{rate: 3, burst: 2, maxDelay: 8, tokens: 2}}
		}},
	}

	for _, nc := range nets {
		nwRef, nwNew, err := nc.build()
		if err != nil {
			t.Fatal(err)
		}
		n := nwRef.g.N()
		for _, tc := range tunings {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				pkts := make([]Packet, 3*n)
				for i := range pkts {
					pkts[i] = Packet{
						ID:      i,
						Src:     rng.Intn(n),
						Dst:     rng.Intn(n), // self-traffic included on purpose
						Release: rng.Intn(2 * n),
					}
				}

				recRef := obs.NewRecorder(obs.NewRegistry())
				recNew := obs.NewRecorder(obs.NewRegistry())
				recRef.SizeArcs(int(nwRef.arcBase[n]))
				recNew.SizeArcs(int(nwNew.arcBase[n]))

				// admitState is stateful: give each engine its own copy.
				tunRef, tunNew := tc.tun(), tc.tun()
				want := refRun(nwRef, pkts, tunRef, recRef)
				got, _ := nwNew.run(pkts, tunNew, recNew)

				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s seed %d: results diverge\nref: %+v\nnew: %+v",
						nc.name, tc.name, seed, trimPackets(want), trimPackets(got))
				}
				docRef, err := recRef.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				docNew, err := recNew.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				// The reference engine allocates fresh scratch instead of
				// using the arena pool, so only the arena reuse counters
				// may legitimately differ.
				if stripArenaLines(string(docRef)) != stripArenaLines(string(docNew)) {
					t.Fatalf("%s/%s seed %d: OBS documents diverge\nref:\n%s\nnew:\n%s",
						nc.name, tc.name, seed, docRef, docNew)
				}

				// Same inputs without recorders. Unbounded tunings run the
				// lane kernel at one lane, for every router, both with the
				// recorder above and without one here; the uninstrumented
				// pass pins its untallied branches.
				wantLean := refRun(nwRef, pkts, tc.tun(), nil)
				gotLean, _ := nwNew.run(pkts, tc.tun(), nil)
				if !reflect.DeepEqual(wantLean, gotLean) {
					t.Fatalf("%s/%s seed %d (uninstrumented): results diverge\nref: %+v\nnew: %+v",
						nc.name, tc.name, seed, trimPackets(wantLean), trimPackets(gotLean))
				}
				if nc.midPath && tc.name == "unbounded" && !droppedAfterHop(got) {
					t.Fatalf("%s seed %d: no packet was dropped after a hop", nc.name, seed)
				}
			}
		}
	}
}

// parallelLoopMultigraph is a strongly connected 6-node multigraph with
// parallel arcs, self-loops and out-degrees 2 to 4: several arcs share
// each head, so one cycle's arrivals at a node come in on different
// arcs.
func parallelLoopMultigraph() *digraph.Digraph {
	g := digraph.New(6)
	for _, arc := range [][2]int{
		{0, 1}, {0, 1}, {0, 0}, {0, 3},
		{1, 2}, {1, 1}, {1, 2}, {1, 4},
		{2, 3}, {2, 5}, {2, 0},
		{3, 4}, {3, 4}, {3, 3},
		{4, 5}, {4, 0}, {4, 2},
		{5, 0}, {5, 0}, {5, 5}, {5, 1},
	} {
		g.AddArc(arc[0], arc[1])
	}
	return g
}

// refusingRouter is an opaqueRouter that refuses every (node,
// destination) pair with (7·at + dst) mod 11 = 0: some packets drop at
// the source, others after hops, when they reach such a node.
type refusingRouter struct{ r Router }

func (r refusingRouter) NextArc(at, dst int) int {
	if (7*at+dst)%11 == 0 {
		return -1
	}
	return r.r.NextArc(at, dst)
}

// droppedAfterHop reports whether some packet of res was dropped after
// at least one hop.
func droppedAfterHop(res Result) bool {
	for _, p := range res.Packets {
		if p.Delivered < 0 && p.Hops > 0 {
			return true
		}
	}
	return false
}

// wideHubDigraph is a 160-node digraph of diameter above 1 whose hub,
// node 0, has out-degree 141 — past the int8 table slab, so its
// TableRouter builds the wide int32 slab: a ring u → u+1, an arc from
// every other node to the hub, and hub arcs to nodes 2–141.
func wideHubDigraph() *digraph.Digraph {
	const n = 160
	g := digraph.New(n)
	for u := 0; u < n; u++ {
		g.AddArc(u, (u+1)%n)
		if u != 0 {
			g.AddArc(u, 0)
		}
	}
	for v := 2; v <= 141; v++ {
		g.AddArc(0, v)
	}
	return g
}

// trimPackets drops the packet table from a Result for readable failure
// output (DeepEqual still compared it).
func trimPackets(r Result) Result {
	r.Packets = nil
	return r
}

// stripArenaLines removes the arena_reused/arena_allocated counter lines
// from a rendered OBS document.
func stripArenaLines(doc string) string {
	var sb strings.Builder
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, "arena_") {
			continue
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}
