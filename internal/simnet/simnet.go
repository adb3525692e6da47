// Package simnet is a cycle-accurate store-and-forward packet simulator
// over arbitrary digraphs. The paper proves structural results (which
// digraphs OTIS realizes and at what hardware cost) but runs no network
// experiments; simnet adds a minimal performance substrate so the
// repository can demonstrate that the realized networks behave as the
// graph theory predicts: packets routed on B(d, D) realized by an OTIS
// layout never exceed D hops, mean latency tracks the mean distance, and
// so on.
//
// Model: every arc is a link of unit bandwidth (one packet per cycle) with
// a FIFO output queue at its tail. A hop costs HopLatency cycles of wire
// time plus any queueing delay. Routing is pluggable; shortest-path table
// routing and native de Bruijn word routing are provided.
package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
	"repro/internal/word"
)

// Router chooses the next hop for a packet at node `at` destined to `dst`.
// It returns the arc index (position in the digraph's adjacency list of
// `at`) to forward on, or -1 if unreachable.
type Router interface {
	NextArc(at, dst int) int
}

// TableRouter routes by precomputed shortest-path next hops held in one
// flat arc-index slab: arcs[at*n+dst] is the out-arc to forward on, -1
// when dst is unreachable or at = dst. Arc indices are bounded by the
// out-degree, so the slab stores one int8 per ordered pair whenever
// every degree fits (wide stores int32 otherwise — degenerate graphs
// only). The slab is immutable after construction and safe to share
// across goroutines.
type TableRouter struct {
	n    int
	arcs []int8  // nil ⇔ some out-degree exceeds math.MaxInt8
	wide []int32 // fallback slab for out-degrees beyond int8
}

// NewTableRouterObserved is NewTableRouter with build telemetry: the
// wall time and slab footprint of the construction are recorded into
// rec (router_build_ns / router_slab_bytes gauges). A nil rec degrades
// to the plain constructor.
func NewTableRouterObserved(g *digraph.Digraph, rec *obs.Recorder) *TableRouter {
	//lint:ignore determinism router build time is telemetry, excluded from reproducibility comparisons
	start := time.Now()
	r := NewTableRouter(g)
	//lint:ignore determinism router build time is telemetry, excluded from reproducibility comparisons
	rec.RouterBuild(time.Since(start).Nanoseconds(), int64(r.Footprint()))
	return r
}

// guardIndexInt32 panics unless count distinct ids fit the int32 slab,
// queue and pipeline entries the run loops narrow into. One call at
// function entry dominates every narrowing in that function.
func guardIndexInt32(count int, what string) {
	if int64(count) > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: %d %s exceed the int32 index range", count, what))
	}
}

// NewTableRouter builds the shortest-path arc slab for g: bfsColumn run
// once per destination over the whole digraph.
func NewTableRouter(g *digraph.Digraph) *TableRouter {
	r := &residual{g: g}
	r.reverse()
	for u := range g.N() {
		if g.OutDegree(u) > math.MaxInt8 {
			return &TableRouter{n: g.N(), wide: tableOf[int32](r)}
		}
	}
	return &TableRouter{n: g.N(), arcs: tableOf[int8](r)}
}

// NextArc implements Router.
func (r *TableRouter) NextArc(at, dst int) int {
	if r.arcs != nil {
		return int(r.arcs[at*r.n+dst])
	}
	return int(r.wide[at*r.n+dst])
}

// Footprint returns the bytes held by the router's table storage: n²
// on every graph whose out-degrees fit int8.
func (r *TableRouter) Footprint() int { return len(r.arcs) + 4*len(r.wide) }

// distance returns the fault-free distance from v to dst over g, the
// digraph the table was built for, by walking the table's shortest-path
// tree toward dst (at most diameter steps), or digraph.Unreachable.
func (r *TableRouter) distance(g *digraph.Digraph, v, dst int) int32 {
	d := int32(0)
	for ; v != dst; d++ {
		arc := r.NextArc(v, dst)
		if arc < 0 {
			return digraph.Unreachable
		}
		v = g.Out(v)[arc]
	}
	return d
}

// DeBruijnRouter routes natively on B(d, D) congruence labels using the
// left-shift rule — no tables, O(D) work per decision, exactly the
// self-routing the de Bruijn literature advertises. A witness router
// (NewWitnessRouter) routes any digraph certified isomorphic to B(d, D)
// the same way, through the isomorphism's labels: the paper's OTIS
// layouts, II(d, d^D) and B_σ. Labels are int32, like every Network's
// node ids, so a router serves d^D ≤ math.MaxInt32 and no more.
//
// The engines route its packets without calling NextArc per hop. A
// packet carries its destination's remaining letters as one int32
// (start, the one O(D) call, set at injection), and each hop reads the
// next letter off it (step, O(1)): on a shortest path the overlap grows
// by exactly one per hop, so the carried state always equals the
// recomputed one.
type DeBruijnRouter struct {
	d, D int
	n    int     // d^D ≤ math.MaxInt32
	pow  []int32 // pow[i] = d^i for i in [0, D]

	// label maps a physical node to its B(d, D) label, and
	// letterArc[u·d+α] is the out-arc of physical node u that shifts in
	// letter α (both nil in congruence form, where labels are node ids
	// and letter α is adjacency position α).
	label     []int32
	letterArc []int8

	// lead divides by top = d^(D−1) without a division instruction:
	// step reads a carried state's leading digit with it, and overlap
	// drops a label's leading digit with it (both unset only for the
	// one-node D = 0, which has nothing to route).
	lead     divisor
	top, d32 int32
}

// divisor divides by a fixed power p of d with one multiply and a shift:
// for every x < 2^31, ⌊x/p⌋ = (x·recip) >> shift with
// recip = ⌈2^(31+ℓ)/p⌉, shift = 31+ℓ and ℓ = ⌈log2 p⌉ (Granlund and
// Montgomery's round-up method; the product stays below 2^63). p = 1
// needs no case of its own: recip = 2^31, shift = 31. A router's labels
// and states are below d^D ≤ math.MaxInt32, so one divisor by d^(D−1)
// serves every routing decision.
type divisor struct {
	recip uint64
	shift uint
}

func newDivisor(p int) divisor {
	l := uint(bits.Len64(uint64(p - 1)))
	return divisor{recip: (uint64(1)<<(31+l) + uint64(p) - 1) / uint64(p), shift: 31 + l}
}

// quo returns ⌊x/p⌋ for x ≥ 0. The shift is at most 62; masking it
// tells the compiler so, which drops its out-of-range shift handling.
//
//lint:hotpath
func (v divisor) quo(x int32) int32 { return int32((uint64(x) * v.recip) >> (v.shift & 63)) }

// NewDeBruijnRouter returns the native router for B(d, D). Its labels
// and carried states are int32, so it serves exactly the graphs a
// Network can hold, d^D ≤ math.MaxInt32, and panics above (word.Pow
// panics first where d^D overflows int).
func NewDeBruijnRouter(d, D int) *DeBruijnRouter {
	n := word.Pow(d, D) // overflow-guarded, so the partial powers are safe
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: B(%d,%d) has %d labels, beyond the int32 label range", d, D, n))
	}
	pow := make([]int32, D+1)
	pow[0] = 1
	for i := 1; i <= D; i++ {
		pow[i] = pow[i-1] * int32(d)
	}
	r := &DeBruijnRouter{d: d, D: D, n: n, pow: pow}
	if D >= 1 {
		r.lead = newDivisor(int(pow[D-1]))
		r.top, r.d32 = pow[D-1], int32(d)
	}
	return r
}

// NewWitnessRouter certifies toLogical — a map from g's nodes to B(d, D)
// labels — as an isomorphism from g onto the congruence-form B(d, D) in
// one O(M) pass (debruijn.CertifyWitness), and returns the shift router
// that routes g through it. A network built on it reports ShiftRouting:
// no n² slab is ever built for it, and fault-free distances come in
// closed form.
func NewWitnessRouter(g *digraph.Digraph, toLogical []int) (*DeBruijnRouter, error) {
	d, D, letterArc, err := debruijn.CertifyWitness(g, toLogical)
	if err != nil {
		return nil, fmt.Errorf("simnet: witness router: %w", err)
	}
	guardIndexInt32(len(toLogical), "nodes")
	r := NewDeBruijnRouter(d, D)
	r.label = make([]int32, len(toLogical))
	for u, l := range toLogical {
		r.label[u] = int32(l)
	}
	r.letterArc = letterArc
	return r, nil
}

// logical returns physical node u's B(d, D) label.
//
//lint:hotpath
func (r *DeBruijnRouter) logical(u int) int32 {
	if r.label != nil {
		return r.label[u]
	}
	//lint:ignore slabindex a node id is below n ≤ math.MaxInt32, which NewDeBruijnRouter bounds
	return int32(u)
}

// overlap returns, for logical labels a ≠ b, the largest k < D such that
// a's low-order k digits equal b's high-order k digits, and
// rest = b mod d^(D−k), the D−k letters the shortest path from a to b
// shifts in, so dist(a, b) = D − k (k = 0 and rest = b when no digits
// match). One shift-and-compare per candidate k, from k = D−1 down, with
// no division: x holds a's low k digits left-aligned (lead reads the
// leading digit to drop, the multiply by d shifts the rest up), and the
// digits match exactly when 0 ≤ b − x < d^(D−k), where b − x is the
// remainder itself. x and rest stay below d^D ≤ math.MaxInt32.
//
//lint:hotpath
func (r *DeBruijnRouter) overlap(a, b int32) (k int, rest int32) {
	lead, d, n := r.lead, r.d32, r.top*r.d32
	pow := r.pow[:r.D]
	x := a
	for j := 1; j < len(pow); j++ { // j = D − k letters left to shift in
		// (x − q·d^(D−1))·d for x's leading digit q, multiplied out so
		// that x·d leaves the loop's dependency chain.
		//lint:ignore overflowguard x·d may wrap in int32, but x·d − q·d^D is below d^D ≤ math.MaxInt32, so the difference is exact
		x = x*d - lead.quo(x)*n
		if rest = b - x; uint32(rest) < uint32(pow[j]) {
			return r.D - j, rest
		}
	}
	return 0, b
}

// NextArc implements Router. In congruence form the successor via letter α
// is (d·u + α) mod d^D, which is adjacency position α; the canonical
// shortest path shifts in the destination's remaining letters, so the
// letter to shift in next is the leading digit of the state start
// returns, and NextArc is the arc of step(at, start(at, dst)). A witness
// router does the same on the logical labels and maps the letter to a
// physical arc. At most D−1 shift-and-compare steps, no division, no
// allocation.
//
//lint:hotpath
func (r *DeBruijnRouter) NextArc(at, dst int) int {
	if at == dst {
		return -1
	}
	arc, _ := r.step(at, r.start(at, dst))
	return arc
}

// start returns the state a packet at node at ≠ dst carries: dst's
// logical label with the overlap already shifted out, left-aligned —
// L(dst)·d^k mod d^D for k the overlap of L(at) and L(dst), always below
// d^D ≤ math.MaxInt32. The one O(D) routing call of a packet's life on a
// shortest path.
//
//lint:hotpath
func (r *DeBruijnRouter) start(at, dst int) int32 {
	k, rest := r.overlap(r.logical(at), r.logical(dst))
	return rest * r.pow[k]
}

// step routes one hop from node at for a packet carrying state t: the
// next letter is t's leading digit, mapped to at's out-arc, and the
// state after the hop shifts that letter out. One multiply by the
// precomputed reciprocal replaces NextArc's O(D) digit comparisons.
//
//lint:hotpath
func (r *DeBruijnRouter) step(at int, t int32) (arc int, next int32) {
	letter := r.lead.quo(t)
	next = (t - letter*r.top) * r.d32
	if r.letterArc != nil {
		return int(r.letterArc[at*r.d+int(letter)]), next
	}
	return int(letter), next
}

// distance returns the fault-free distance from node u to node v in
// closed form, D − overlap(L(u), L(v)) (0 when u = v).
func (r *DeBruijnRouter) distance(u, v int) int32 {
	if u == v {
		return 0
	}
	k, _ := r.overlap(r.logical(u), r.logical(v))
	//lint:ignore slabindex a distance is at most D, far below the int32 range
	return int32(r.D - k)
}

// diameter returns the diameter of B(d, D): D, or 0 for the one-node
// B(1, 1).
func (r *DeBruijnRouter) diameter() int {
	if r.n == 1 {
		return 0
	}
	return r.D
}

// Packet is one simulated datagram.
type Packet struct {
	ID        int
	Src, Dst  int
	Release   int // injection cycle
	Delivered int // delivery cycle (-1 while in flight)
	Hops      int
}

// config is what a Network fixes for every run on it (WithHopLatency,
// WithMaxCycles at NewNetwork).
type config struct {
	// HopLatency is the wire time of one hop in cycles (≥ 1).
	HopLatency int
	// MaxCycles aborts the run (0: the generous default budget,
	// 64·n·HopLatency + 16·packets + 1024 plus room for admission and the
	// fault loop's retry ladder; see Network.cycleBudget).
	MaxCycles int
}

// Result summarizes a simulation run.
type Result struct {
	Delivered   int
	Dropped     int // packets with no route
	Cycles      int // cycle at which the last packet was delivered
	TotalHops   int
	MaxHops     int
	TotalWait   int // cycles spent queued (latency minus wire time)
	MeanLatency float64
	MeanHops    float64
	// MaxQueue is the deepest any queue got during the run — the buffer
	// size a hardware implementation would need to avoid drops. It
	// measures one of two queue models, by engine: a plain run (RunOpts
	// without WithFaults) reports the deepest per-arc output queue; a
	// fault run (RunOpts with WithFaults) and a self-healing session
	// report the deepest node FIFO, which holds every packet waiting at
	// a node whatever its out-arc, so on the same traffic it can exceed
	// the plain run's figure. DESIGN.md § 6 records why both remain.
	MaxQueue int
	// HotNode is a vertex owning a queue that reached MaxQueue: the tail
	// of the deepest output queue, or the node of the deepest FIFO.
	HotNode int
	// Shed counts packets refused by admission control (WithAdmission)
	// before ever entering the network. Shed is disjoint from Dropped:
	// Delivered + Dropped + Shed == Offered on every completed run.
	Shed int
	// DroppedQueueFull counts packets that exhausted their hold budget
	// against full bounded queues (included in Dropped).
	DroppedQueueFull int
	// Holds counts hold-in-place backpressure events: a packet kept
	// upstream for one cycle because its next queue was full.
	Holds int
	// PeakResident is the most packets simultaneously buffered in the
	// network (arc queues plus link pipelines) — the aggregate buffer
	// memory a hardware realization needs. With a queue bound
	// (WithQueueCapacity) it is bounded by topology alone, independent
	// of offered load.
	PeakResident int
	Packets      []Packet
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("delivered=%d dropped=%d cycles=%d meanLatency=%.2f meanHops=%.2f maxHops=%d",
		r.Delivered, r.Dropped, r.Cycles, r.MeanLatency, r.MeanHops, r.MaxHops)
}

// aggregate fills the delivered-packet aggregates — total and maximum
// hops, queueing wait, mean latency and hops — from a run's final packet
// table and attaches the table. Means stay 0 when nothing was delivered.
func (r *Result) aggregate(pkts []Packet, hopLatency int) {
	latencySum := 0
	for i := range pkts {
		p := &pkts[i]
		if p.Delivered < 0 {
			continue
		}
		r.TotalHops += p.Hops
		r.MaxHops = max(r.MaxHops, p.Hops)
		latencySum += p.Delivered - p.Release
		r.TotalWait += (p.Delivered - p.Release) - p.Hops*hopLatency
	}
	if r.Delivered > 0 {
		r.MeanLatency = float64(latencySum) / float64(r.Delivered)
		r.MeanHops = float64(r.TotalHops) / float64(r.Delivered)
	}
	r.Packets = pkts
}

// Network binds a digraph, a router, a hop latency and a cycle budget
// into a runnable simulation. A Network is safe for concurrent RunOpts
// calls: the compiled router is shared read-only, while each run checks
// a scratch arena out of a pool so repeated runs (sweeps) reuse their
// queue/pipeline/metadata storage instead of reallocating it per point.
type Network struct {
	g      *digraph.Digraph
	router Router
	cfg    config

	// arcBase[u] is the flat index of node u's first out-arc: queues and
	// pipelines live in M-length slabs addressed by arcBase[u]+k.
	// arcHead[a] and arcTail[a] are the head and tail vertex of flat arc
	// a — the CSR adjacency flattened once, so the arc-major sweeps read
	// a contiguous int32 slab instead of chasing g.Out(u) slice headers.
	arcBase []int32
	arcHead []int32
	arcTail []int32
	maxDeg  int

	// diam caches the diameter, which fault runs consult for TTL defaults.
	diamOnce sync.Once
	diam     int

	// rec is the attached metrics recorder (nil: uninstrumented). Every
	// recording site is nil-guarded so the fast path stays
	// allocation-free; WithRecorder overrides it per run.
	rec *obs.Recorder

	// shift devirtualizes the native de Bruijn router: non-nil exactly
	// when router is a *DeBruijnRouter (congruence-form or witness),
	// letting every engine route without the interface call by stepping
	// each packet's carried state — the table-free routing mode.
	shift *DeBruijnRouter

	scratch sync.Pool // *arena

	// faultPops and faultWalks count the fault kernel's popped departures
	// and walked nodes (faultRun.depart), added once per run, so a test
	// can check that both departure paths ran.
	faultPops, faultWalks atomic.Int64
}

// Observe attaches a metrics recorder to the network: subsequent runs
// record per-arc traversals, queue depths, latency histograms and
// drop/reroute/retry causes into it (runs merge a run-local tally into
// it once, when the run ends; self-healing sessions also record their
// control-plane events live). Passing nil detaches. Attach
// before starting concurrent runs; the recorder itself is safe to share
// between sweep workers.
func (nw *Network) Observe(rec *obs.Recorder) {
	rec.SizeArcs(int(nw.arcBase[nw.g.N()]))
	nw.rec = rec
}

// ArcIndex returns the flat CSR index of out-arc k of node tail — the
// index a Recorder's per-arc slabs are addressed by.
func (nw *Network) ArcIndex(tail, k int) int { return int(nw.arcBase[tail]) + k }

// newNetwork builds the derived state for already-validated inputs
// (NewNetwork validates, then calls it).
func newNetwork(g *digraph.Digraph, router Router, cfg config) *Network {
	n := g.N()
	guardIndexInt32(n, "nodes")
	arcBase := arcBaseOf(g)
	maxDeg := 0
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, g.OutDegree(u))
	}
	arcHead := make([]int32, g.M())
	arcTail := make([]int32, g.M())
	for u := 0; u < n; u++ {
		base := arcBase[u]
		for k, v := range g.Out(u) {
			arcHead[base+int32(k)] = int32(v)
			arcTail[base+int32(k)] = int32(u)
		}
	}
	shift, _ := router.(*DeBruijnRouter)
	return &Network{g: g, router: router, cfg: cfg, arcBase: arcBase, arcHead: arcHead, arcTail: arcTail, maxDeg: maxDeg, shift: shift}
}

// arcBaseOf returns g's out-arcs in CSR form: arcBase[u] is the flat
// index of node u's first out-arc and arcBase[n] = M, the layout every
// per-arc slab of the simulator (queues, pipes, fault spans, recorder
// slabs) is indexed by.
func arcBaseOf(g *digraph.Digraph) []int32 {
	guardIndexInt32(g.M(), "arcs")
	arcBase := make([]int32, g.N()+1)
	for u := range g.N() {
		arcBase[u+1] = arcBase[u] + int32(g.OutDegree(u))
	}
	return arcBase
}

// diameter returns the digraph's diameter, computed once per Network:
// in closed form on a shift-routed network, as D when any other network
// runs on a congruence-form B(d, D) (one O(M) recognition pass, 0 for
// the one-node B(1, 1)), and by g.Diameter()'s n breadth-first searches
// otherwise.
func (nw *Network) diameter() int {
	nw.diamOnce.Do(func() {
		if nw.shift != nil {
			nw.diam = nw.shift.diameter()
			return
		}
		switch _, D, ok := debruijn.Recognize(nw.g); {
		case ok && nw.g.N() == 1:
			nw.diam = 0
		case ok:
			nw.diam = D
		default:
			nw.diam = nw.g.Diameter()
		}
	})
	return nw.diam
}

// distSource is the fault-free distance deflections rank their out-arcs
// by, asked of the router, so no engine holds an all-pairs table: a
// shift or witness router answers in closed form, a TableRouter walks
// its own slab, and any other router walks dst's column over the intact
// digraph. The run, session or deflection run that ranks by it owns it,
// and with it the columns it builds on first use.
type distSource struct {
	g      *digraph.Digraph
	router Router
	cols   *residual // the intact digraph's columns; nil until first used
}

// dist returns the fault-free distance from v to dst, or
// digraph.Unreachable.
func (s *distSource) dist(v, dst int) int32 {
	switch r := s.router.(type) {
	case *DeBruijnRouter:
		return r.distance(v, dst)
	case *TableRouter:
		return r.distance(s.g, v, dst)
	}
	if s.cols == nil {
		s.cols = &residual{g: s.g}
	}
	return s.cols.walk(s.cols.column(dst), v, dst)
}

// runTuning is the per-run tuning threaded through run and the fault
// loop: the cycle budget, the queue bound (per arc on a plain run, per
// out-arc of a node's FIFO on the fault loop), the lifetime per-packet
// hold budget, the admission regulator and event tracing. The zero value
// reproduces the historical unbounded, untraced behaviour.
type runTuning struct {
	budget int         // cycle budget (0: cycleBudget's)
	qcap   int         // queue bound (0: unbounded)
	hold   int         // per-packet hold budget (0: default when qcap > 0)
	admit  *admitState // nil: no admission control
	trace  bool        // record the event log (takes the general path)
	// shards is a lane-kernel run's lane count (0: one lane) and workers
	// the goroutines that execute them (0: shardWorkers(shards)).
	shards, workers int
}

// enqStatus reports the outcome of a routing-and-enqueue attempt.
type enqStatus int8

const (
	enqOK      enqStatus = iota // queued on the chosen arc
	enqNoRoute                  // no route: dropped, accounted by enqueue
	enqFull                     // bounded queue full: caller holds the packet upstream
)

// runState is one run's setup — packets, SoA slabs, queues, routing and
// tally — shared by both kernels. The general path threads its per-call
// state through it to enqueue: methods on a stack value, since closures
// allocate and the run loop is a hot path.
type runState struct {
	nw   *Network
	pkts []Packet
	// SoA packet slabs: destination, release cycle, delivery cycle, hop
	// count and holds spent.
	dst, rel, del, hops, holds []int32
	q                          arcQueues
	qBits                      []uint64 // active-arc bitmap: bit a set ⇔ queue a is non-empty
	// res is the run's result, held by value: appending to events below
	// stores through the state, so a pointer held here would escape it
	// to the heap on every run.
	res Result
	tl  *obs.Tally // run-local telemetry (nil: the run records nothing)
	// tArcs/tN devirtualize TableRouter: the run loop gathers next hops
	// straight from the router slab instead of through the interface
	// (nil: dynamic dispatch, e.g. a custom router).
	tArcs []int8
	tN    int
	// shift is the network's DeBruijnRouter (nil: not shift-routed);
	// each packet's next arc then comes from its carried state in carry,
	// non-nil exactly when shift is.
	shift    *DeBruijnRouter
	carry    []int32
	qcap     int // per-arc queue bound (0: unbounded)
	resident int // packets currently buffered in queues + pipelines
	trace    bool
	events   []Event // the live event log of a traced run
}

// enter records one packet entering the network's buffers.
func (rs *runState) enter() {
	rs.resident++
	if rs.resident > rs.res.PeakResident {
		rs.res.PeakResident = rs.resident
	}
}

// leave records one packet leaving the network's buffers (delivered or
// dropped mid-flight).
func (rs *runState) leave() { rs.resident-- }

// inject offers packet i to its source's queue at cycle. It reports
// held when a full queue keeps the packet at the source against its hold
// budget, and dropped when the packet left the run (no route, or the
// hold budget ran out).
//
//lint:hotpath
func (rs *runState) inject(cycle, i, budget int) (held, dropped bool) {
	src := rs.pkts[i].Src
	switch rs.enqueue(src, i) {
	case enqOK:
		rs.enter()
		rs.emit(cycle, EventInject, i, src, -1)
		return false, false
	case enqFull:
		if rs.holdOrDrop(i, budget) {
			return true, false
		}
	}
	rs.emit(cycle, EventDrop, i, src, -1)
	return false, true
}

// emit appends an event for packet index p to a traced run's log.
func (rs *runState) emit(cycle int, kind EventKind, p, node, peer int) {
	if rs.trace {
		rs.events = append(rs.events, Event{Cycle: cycle, Kind: kind, Packet: rs.pkts[p].ID, Node: node, Peer: peer})
	}
}

// enqueue routes pkt out of node at, pushing it onto the chosen arc's
// queue. enqNoRoute is accounted (drop counters) here; enqFull leaves
// all accounting to the caller, which holds the packet upstream. A
// packet's carried state advances only when the push succeeds, so a
// held packet routes from the same state next cycle.
//
//lint:hotpath
func (rs *runState) enqueue(at, pkt int) enqStatus {
	var arc int
	var next int32
	switch {
	case rs.tArcs != nil:
		arc = int(rs.tArcs[at*rs.tN+int(rs.dst[pkt])])
	case rs.carry != nil:
		arc, next = rs.shift.step(at, rs.carry[pkt])
	default:
		arc = rs.nw.router.NextArc(at, int(rs.dst[pkt]))
	}
	if arc < 0 {
		rs.res.Dropped++
		if rs.tl != nil {
			rs.tl.Drop(obs.DropNoRoute)
		}
		return enqNoRoute
	}
	//lint:ignore slabindex arc < maxDeg ≤ M, dominated by newNetwork's guardIndexInt32
	flat := rs.nw.arcBase[at] + int32(arc)
	if rs.qcap > 0 && int(rs.q.ends[flat].length) >= rs.qcap {
		return enqFull
	}
	if rs.carry != nil {
		rs.carry[pkt] = next
	}
	rs.qBits[flat>>6] |= 1 << (uint32(flat) & 63)
	//lint:ignore slabindex pkt < len(pkts), dominated by run's guardIndexInt32
	depth := int(rs.q.push(flat, int32(pkt)))
	if depth > rs.res.MaxQueue {
		rs.res.MaxQueue = depth
		rs.res.HotNode = at
	}
	if rs.tl != nil {
		rs.tl.QueueDepth(int(flat), depth)
	}
	return enqOK
}

// holdOrDrop charges one hold-in-place cycle to pkt's budget. It
// reports true when the packet may keep waiting (hold accounted) and
// false when the budget is exhausted — the packet has been dropped as
// DroppedQueueFull and the caller must remove it. The hold is recorded
// at the refusing queue's observed depth, which under the plain engine
// is always exactly qcap: enqueue refuses only at depth ≥ qcap and a
// bounded queue never exceeds its bound.
//
//lint:hotpath
func (rs *runState) holdOrDrop(pkt, budget int) bool {
	rs.holds[pkt]++
	if int(rs.holds[pkt]) > budget {
		rs.res.Dropped++
		rs.res.DroppedQueueFull++
		if rs.tl != nil {
			rs.tl.Drop(obs.DropQueueFull)
		}
		return false
	}
	rs.res.Holds++
	if rs.tl != nil {
		rs.tl.Hold(rs.qcap)
	}
	return true
}

// run simulates until every packet is delivered or dropped, or the
// cycle budget elapses, under explicit tuning (budget, queue bound, hold
// budget, admission, tracing, lanes) and recorder; RunOpts and the
// sweeps call it. The packets slice is copied; releases may be in any
// order. One setup — the cycle
// and hold budgets, the route-or-drop precheck, each carried state's
// start and the release order — serves both kernels: a run with
// unbounded queues, no admission and no trace runs on the lane kernel
// (runLanes) with tun.shards lanes, every other run on the general
// path. A recorded run records into the arena's run-local tally with
// plain stores and merges it into rec once, at the end; every recording
// site tests the tally against nil, so the uninstrumented path stays
// allocation-free, and attaching a recorder does not change the kernel
// (a recorded run must have one lane). A traced run returns the event
// log, recorded live with each event's cycle; otherwise the log is nil.
//
// Both kernels are batched arc-major sweeps: per-cycle work is a few
// linear passes against flat SoA slabs — int32 packet arrays instead of
// []Packet field access, intrusive per-arc queues (arcQueues) swept over
// the queued bitmap, and the TableRouter slab gathered directly. Phase
// structure, iteration order and every accounting/recording site are
// identical to the packet-at-a-time engine they replaced — pinned by
// TestArcMajorKernelMatchesReference and the engine behaviour goldens.
//
//lint:hotpath
func (nw *Network) run(packets []Packet, tun runTuning, rec *obs.Recorder) (Result, []Event) {
	guardIndexInt32(len(packets), "packets")
	tun = tun.withDefaults()
	//lint:ignore hotalloc pkts escapes into Result.Packets: one allocation per run, not per cycle
	pkts := make([]Packet, len(packets))
	copy(pkts, packets)

	n := nw.g.N()
	m := int(nw.arcBase[n])
	ar, reused := nw.getArena()
	defer nw.putArena(ar)
	tl := ar.tallyFor(rec, m)
	if tl != nil {
		tl.Arena(reused)
	}

	maxCycles := nw.cycleBudget(tun, len(pkts), false)
	// Cycle stamps (releases, pipe ready cycles) are narrowed into int32
	// slabs; one guard at entry dominates every stamp below.
	guardIndexInt32(maxCycles+nw.cfg.HopLatency+2, "cycles")

	// Devirtualize the built-in routers: the kernels gather next hops
	// from the table slab or step each packet's carried de Bruijn shift
	// state, without the interface call (custom routers, and tables too
	// wide for the int8 slab, keep dynamic dispatch). shift is the
	// table-free routing mode — no n² slab exists at all, which is what
	// admits million-node graphs and the witness-routed OTIS machine.
	var tArcs []int8
	tN := 0
	if tr, ok := nw.router.(*TableRouter); ok {
		tArcs, tN = tr.arcs, tr.n // nil (interface dispatch) on a wide table
	}
	shift := nw.shift
	var carry []int32
	if shift != nil {
		carry = ar.carrySlab(len(pkts))
	}

	dst, rel, del, hops, holds := ar.packetSlabs(len(pkts))
	rs := runState{
		nw: nw, pkts: pkts, dst: dst, rel: rel, del: del, hops: hops, holds: holds,
		q: ar.queueLinks(m, len(pkts)), qBits: ar.qBits,
		tl: tl, tArcs: tArcs, tN: tN, shift: shift, carry: carry, qcap: tun.qcap, trace: tun.trace,
	}
	res := &rs.res
	remaining := 0
	horizon := int32(maxCycles) + 1
	// Route-or-drop at injection time; survivors are injected in sorted
	// (Release, index) order via a cursor — no per-cycle map lookups.
	order := ar.order[:0]
	for i := range pkts {
		pkts[i].Delivered = -1
		pkts[i].Hops = 0
		dst[i] = int32(pkts[i].Dst)
		del[i] = -1
		hops[i] = 0
		holds[i] = 0
		if r := pkts[i].Release; r > maxCycles {
			// Beyond the horizon: never injected. Clamping keeps the slab
			// in int32 range without reordering the injection schedule.
			rel[i] = horizon
		} else {
			rel[i] = int32(r)
		}
		if pkts[i].Src == pkts[i].Dst {
			pkts[i].Delivered = pkts[i].Release
			res.Delivered++
			continue
		}
		arc := 0
		switch {
		case carry != nil:
			// Shift routing reaches every dst ≠ src, so there is nothing
			// to drop: the packet's one O(D) routing call sets its state.
			carry[i] = shift.start(pkts[i].Src, pkts[i].Dst)
		case tArcs != nil:
			arc = int(tArcs[pkts[i].Src*tN+pkts[i].Dst])
		default:
			arc = nw.router.NextArc(pkts[i].Src, pkts[i].Dst)
		}
		if arc < 0 {
			res.Dropped++
			if tl != nil {
				tl.Drop(obs.DropNoRoute)
			}
			rs.emit(0, EventDrop, i, pkts[i].Src, -1)
			continue
		}
		order = append(order, int32(i))
		remaining++
	}
	sortByRelease(order, pkts)
	ar.order = order

	if tun.qcap == 0 && tun.admit == nil && !tun.trace {
		nw.runLanes(ar, &rs, order, maxCycles, remaining, tun)
	} else {
		rs.general(ar, order, maxCycles, remaining, tun)
	}

	// Scatter the SoA slabs back into the packet table. Only routed
	// packets live in order; self-deliveries and setup drops wrote their
	// final state above. Deliveries are tallied here rather than in the
	// arrival sweeps: the same (latency, hops) observations, read
	// sequentially once instead of once per delivery in the hot loop.
	for _, i32 := range order {
		i := int(i32)
		pkts[i].Delivered = int(del[i])
		pkts[i].Hops = int(hops[i])
		if tl != nil && del[i] >= 0 {
			tl.Deliver(int(del[i]-rel[i]), int(hops[i]))
		}
	}

	res.aggregate(pkts, nw.cfg.HopLatency)
	rec.Merge(tl)
	return *res, rs.events
}

// general is the general path of run: bounded queues with credit-based
// backpressure, source admission and live tracing. Its links may hold
// packets: a full link window (in-flight wire slots plus held packets)
// stops accepting departures — the credit that propagates backpressure —
// so each link is a pipe segment of the credit bound's capacity, swept
// over the in-flight bitmap. An unbounded link keeps at most HopLatency
// packets (one departure per cycle, each in flight exactly HopLatency
// cycles), a bounded one at most qcap+HopLatency (departures stop at the
// window, holds re-slot in place).
//
//lint:hotpath
func (rs *runState) general(ar *arena, order []int32, maxCycles, remaining int, tun runTuning) {
	nw, pkts, res, tl := rs.nw, rs.pkts, &rs.res, rs.tl
	dst, rel, del, hops := rs.dst, rs.rel, rs.del, rs.hops
	q, qBits, aBits := rs.q, rs.qBits, ar.aBits
	hopLat := nw.cfg.HopLatency
	// run checked both bounds; restated here, they dominate the int32
	// stamps and indices below.
	guardIndexInt32(maxCycles+hopLat+2, "cycles")
	guardIndexInt32(len(pkts), "packets")
	credits := 0
	segCap := hopLat
	if tun.qcap > 0 {
		credits = tun.qcap + hopLat
		segCap = credits
	}
	pipePkt, pipeReady, pipeLen := ar.pipeSegments(int(nw.arcBase[nw.g.N()]), segCap)
	holdq := ar.holdq[:0]
	cursor := 0
	admit := tun.admit
	arcHead := nw.arcHead
	hopLat32 := int32(hopLat)
	heldLast := false // congestion signal: a hold happened last cycle

	for cycle := 0; remaining > 0 && cycle <= maxCycles; cycle++ {
		cycle32 := int32(cycle)
		holdsBefore := res.Holds
		if admit != nil {
			admit.refill(heldLast)
		}
		// Inject: source-held packets (admitted earlier, source queue
		// full) retry first, then the release cursor drains through the
		// admission regulator.
		if len(holdq) > 0 {
			nh := holdq[:0]
			for _, i32 := range holdq {
				held, dropped := rs.inject(cycle, int(i32), tun.hold)
				if dropped {
					remaining--
				} else if held {
					nh = append(nh, i32)
				}
			}
			holdq = nh
		}
		for cursor < len(order) && rel[order[cursor]] <= cycle32 {
			i := int(order[cursor])
			if admit != nil {
				if cycle-int(rel[i]) > admit.maxDelay {
					cursor++
					res.Shed++
					if tl != nil {
						tl.Shed()
					}
					remaining--
					rs.emit(cycle, EventDrop, i, pkts[i].Src, -1)
					continue
				}
				if !admit.take() {
					break // out of tokens: the head waits in release order
				}
			}
			cursor++
			// Admitted but the source queue is full: hold at the
			// source and retry ahead of the cursor next cycle.
			held, dropped := rs.inject(cycle, i, tun.hold)
			if dropped {
				remaining--
			} else if held {
				holdq = append(holdq, int32(i))
			}
		}

		// Arrivals: packets whose wire time completes this cycle, swept
		// arc-major over the in-flight bitmap in ascending arc order
		// (identical to the historical nested (node, arc) scan). The hop
		// is counted when the next queue accepts the packet; a full
		// queue keeps it on the upstream link (credit-based
		// backpressure) to retry next cycle, compacted in place in its
		// fixed-capacity segment.
		for w := range aBits {
			bits := aBits[w]
			for bits != 0 {
				a := w<<6 + trailingZeros64(bits)
				bits &= bits - 1
				base := a * segCap
				cnt := int(pipeLen[a])
				u, v := int(nw.arcTail[a]), int(arcHead[a])
				keep := 0
				for j := 0; j < cnt; j++ {
					pk := pipePkt[base+j]
					rdy := pipeReady[base+j]
					if rdy > cycle32 {
						pipePkt[base+keep] = pk
						pipeReady[base+keep] = rdy
						keep++
						continue
					}
					p := int(pk)
					if dst[p] == int32(v) {
						hops[p]++
						if tl != nil {
							tl.ArcTraverse(a)
						}
						del[p] = cycle32
						res.Delivered++
						remaining--
						rs.leave()
						if cycle > res.Cycles {
							res.Cycles = cycle
						}
						rs.emit(cycle, EventArrive, p, v, u)
						rs.emit(cycle, EventDeliver, p, v, -1)
						continue
					}
					st := rs.enqueue(v, p)
					if st == enqFull {
						// Held on the link; a packet whose hold budget
						// runs out drops at the tail.
						if !rs.holdOrDrop(p, tun.hold) {
							remaining--
							rs.leave()
							rs.emit(cycle, EventDrop, p, u, -1)
							continue
						}
						pipePkt[base+keep] = pk
						pipeReady[base+keep] = cycle32 + 1
						keep++
						continue
					}
					hops[p]++
					if tl != nil {
						tl.ArcTraverse(a)
					}
					rs.emit(cycle, EventArrive, p, v, u)
					if st == enqNoRoute {
						remaining--
						rs.leave()
						rs.emit(cycle, EventDrop, p, v, -1)
					}
				}
				pipeLen[a] = int32(keep)
				if keep == 0 {
					aBits[w] &^= 1 << (uint(a) & 63)
				}
			}
		}

		// Departures: each link accepts one queued packet per cycle,
		// and only while it has credit (its window of wire slots plus
		// held packets is not full). Swept over the queued bitmap —
		// bit a set ⇔ queue a non-empty, maintained by the pushes and
		// the pops here.
		for w := range qBits {
			bits := qBits[w]
			for bits != 0 {
				a := w<<6 + trailingZeros64(bits)
				bits &= bits - 1
				if credits > 0 && int(pipeLen[a]) >= credits {
					continue
				}
				pk, empty := q.pop(a)
				if empty {
					qBits[w] &^= 1 << (uint(a) & 63)
				}
				slot := a*segCap + int(pipeLen[a])
				pipePkt[slot] = pk
				pipeReady[slot] = cycle32 + hopLat32
				pipeLen[a]++
				aBits[w] |= 1 << (uint(a) & 63)
				rs.emit(cycle, EventDepart, int(pk), int(nw.arcTail[a]), int(arcHead[a]))
			}
		}

		heldLast = res.Holds > holdsBefore
	}
	ar.holdq = holdq
}
