package obs

import "sync"

// DropCause classifies why a packet left a simulation undelivered. The
// causes mirror the FaultResult buckets of simnet so instrumented and
// aggregate accounting can be cross-checked.
type DropCause int

const (
	// DropNoRoute: the router found no (live) arc toward the
	// destination and the retry budget is exhausted.
	DropNoRoute DropCause = iota
	// DropTTL: the per-packet hop budget ran out.
	DropTTL
	// DropFault: lost in flight to a node fault at the arrival end.
	DropFault
	// DropHorizon: the release cycle lay beyond the run's cycle budget;
	// the packet was never injected.
	DropHorizon
	// DropStuck: stranded in a queue or on a link when the cycle budget
	// ran out.
	DropStuck
	// DropQueueFull: the downstream queue stayed full until the packet's
	// hold-in-place budget ran out (bounded-queue backpressure).
	DropQueueFull
	numDropCauses
)

// String names the cause; the names are the counter suffixes.
func (c DropCause) String() string {
	switch c {
	case DropNoRoute:
		return "noroute"
	case DropTTL:
		return "ttl"
	case DropFault:
		return "fault"
	case DropHorizon:
		return "horizon"
	case DropStuck:
		return "stuck"
	case DropQueueFull:
		return "queuefull"
	}
	return "unknown"
}

// Canonical metric names recorded by the simulators. Exposed so tests
// and tools address the registry without stringly-typed drift.
const (
	MetricDelivered    = "sim_delivered"
	MetricDropped      = "sim_dropped"
	MetricDropPrefix   = "sim_drop_"
	MetricReroutes     = "sim_reroutes"
	MetricRetries      = "sim_retries"
	MetricDeflections  = "sim_deflections"
	MetricArenaReused  = "arena_reused"
	MetricArenaAlloc   = "arena_allocated"
	MetricRouterNS     = "router_build_ns"
	MetricRouterBytes  = "router_slab_bytes"
	MetricHistLatency  = "latency_cycles"
	MetricHistQueue    = "queue_depth"
	MetricHistHops     = "hops"
	MetricMaxQueue     = "max_queue"
	MetricArcTraversed = "arc_traversals_total"

	// Overload protection (bounded queues, backpressure, admission).
	MetricShed          = "sim_shed"
	MetricHolds         = "sim_holds"
	MetricHistQueueFull = "queue_full_depth"

	// Sharded dispatch: runs that requested WithShards but ran on one
	// lane or a one-lane engine (faults, tracing, recorder, bounded
	// queues or admission control in effect).
	MetricShardFallback = "shard_fallback"

	// Self-healing control plane (simnet heal engine).
	MetricHealNacks      = "heal_nacks"
	MetricHealDetections = "heal_detections"
	MetricHealEvents     = "heal_events"
	MetricHealRepairs    = "heal_repairs"
	MetricHealProbes     = "heal_probes"
	MetricHealConverge   = "heal_converge_cycles"

	// Lens quarantine circuit breaker (machine layer).
	MetricQuarTrips    = "quarantine_trips"
	MetricQuarHalfOpen = "quarantine_halfopen"
	MetricQuarCloses   = "quarantine_closes"
)

// Recorder is the instrument handle the simulators record through. It
// pre-resolves its registry handles at construction so a recording
// site is one atomic op, and keeps flat []int64 slabs for per-arc
// traversal counts and peak queue depths, indexed by the same CSR arc
// layout the simulator's queues use (arcBase[u]+k).
//
// The simnet engines (the plain run in both its lean and its general
// form, the fault engine, heal sessions and the deflection engine) do
// not call the per-event methods in their loops: each run records into
// a run-local Tally and folds it in with Merge once, at the end of the
// run, so the recorder is updated once per run and a recorded run takes
// the same kernel path as an unrecorded one (the sharded engine aside,
// which falls back to the sequential kernel when a recorder is
// attached). The per-event methods remain for callers outside the
// simulators.
//
// A nil *Recorder is the uninstrumented mode: every exported method is
// nil-receiver guarded, so recording sites may call through nil freely
// — the fast path pays one predictable branch and zero allocations.
// All methods are safe for concurrent use (sweep workers share one
// Recorder): counters, gauges and histograms update atomically, and
// the per-arc slabs are plain integers guarded by one mutex, which a
// merge takes once per run and a per-event ArcTraverse or QueueDepth
// once per event.
type Recorder struct {
	reg *Registry

	mu         sync.Mutex
	traversals []int64 // guarded by mu
	// peakQueue is nil until the first non-zero peak, then as long as
	// traversals: runs that record only node depths (fault runs) never
	// allocate it, and readers see full-length zeros.
	peakQueue []int64 // guarded by mu

	delivered   *Counter
	dropped     *Counter
	drops       [numDropCauses]*Counter
	reroutes    *Counter
	retries     *Counter
	deflections *Counter
	arenaReused *Counter
	arenaAlloc  *Counter
	arcTotal    *Counter
	shed        *Counter
	holds       *Counter

	healNacks   *Counter
	healDetects *Counter
	healEvents  *Counter
	healRepairs *Counter
	healProbes  *Counter
	quarTrips   *Counter
	quarHalf    *Counter
	quarCloses  *Counter

	routerNS     *Gauge
	routerBytes  *Gauge
	maxQueue     *Gauge
	healConverge *Gauge

	latency   *Histogram
	queue     *Histogram
	hops      *Histogram
	queueFull *Histogram
}

// NewRecorder returns a Recorder reporting into reg (a fresh registry
// when reg is nil).
func NewRecorder(reg *Registry) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	r := &Recorder{
		reg:         reg,
		delivered:   reg.Counter(MetricDelivered),
		dropped:     reg.Counter(MetricDropped),
		reroutes:    reg.Counter(MetricReroutes),
		retries:     reg.Counter(MetricRetries),
		deflections: reg.Counter(MetricDeflections),
		arenaReused: reg.Counter(MetricArenaReused),
		arenaAlloc:  reg.Counter(MetricArenaAlloc),
		arcTotal:    reg.Counter(MetricArcTraversed),
		shed:        reg.Counter(MetricShed),
		holds:       reg.Counter(MetricHolds),
		healNacks:   reg.Counter(MetricHealNacks),
		healDetects: reg.Counter(MetricHealDetections),
		healEvents:  reg.Counter(MetricHealEvents),
		healRepairs: reg.Counter(MetricHealRepairs),
		healProbes:  reg.Counter(MetricHealProbes),
		quarTrips:   reg.Counter(MetricQuarTrips),
		quarHalf:    reg.Counter(MetricQuarHalfOpen),
		quarCloses:  reg.Counter(MetricQuarCloses),
		routerNS:    reg.Gauge(MetricRouterNS),
		routerBytes: reg.Gauge(MetricRouterBytes),
		maxQueue:    reg.Gauge(MetricMaxQueue),

		healConverge: reg.Gauge(MetricHealConverge),
		latency:      reg.Histogram(MetricHistLatency),
		queue:        reg.Histogram(MetricHistQueue),
		hops:         reg.Histogram(MetricHistHops),
		queueFull:    reg.Histogram(MetricHistQueueFull),
	}
	for c := DropCause(0); c < numDropCauses; c++ {
		r.drops[c] = reg.Counter(MetricDropPrefix + c.String())
	}
	return r
}

// Registry returns the registry the recorder reports into (nil for a
// nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// SizeArcs grows the per-arc slabs to hold m arcs. Networks call it when
// a recorder is attached; growing never shrinks, so one recorder may
// observe several networks and keeps the largest layout. Counts already
// accumulated are preserved. Only the traversal slab is allocated here;
// the peak-queue slab waits for the first non-zero peak.
func (r *Recorder) SizeArcs(m int) {
	if r == nil || m <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.traversals) >= m {
		return
	}
	r.traversals = grown(r.traversals, m)
	if r.peakQueue != nil {
		r.peakQueue = grown(r.peakQueue, m)
	}
}

// grown returns a copy of s extended with zeros to m entries.
func grown(s []int64, m int) []int64 {
	out := make([]int64, m)
	copy(out, s)
	return out
}

// peakSlabLocked returns the peak-queue slab, allocating it as long as
// the traversal slab on first use.
func (r *Recorder) peakSlabLocked() []int64 {
	if r.peakQueue == nil {
		r.peakQueue = make([]int64, len(r.traversals))
	}
	return r.peakQueue
}

// Arcs returns the current per-arc slab size (0 for a nil recorder).
func (r *Recorder) Arcs() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traversals)
}

// ArcTraverse records one packet hop over the flat arc index.
func (r *Recorder) ArcTraverse(arc int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if arc >= 0 && arc < len(r.traversals) {
		r.traversals[arc]++
	}
	r.mu.Unlock()
	r.arcTotal.Add(1)
}

// QueueDepth records the depth of the flat arc's output queue after an
// enqueue: the histogram takes every sample, the per-arc slab and the
// max_queue gauge keep the peaks.
func (r *Recorder) QueueDepth(arc int, depth int) {
	if r == nil {
		return
	}
	d := int64(depth)
	r.queue.Observe(d)
	r.maxQueue.SetMax(d)
	if d <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if arc >= 0 && arc < len(r.traversals) {
		pq := r.peakSlabLocked()
		pq[arc] = max(pq[arc], d)
	}
}

// NodeQueueDepth records a per-node hold-queue depth (fault runs queue
// at nodes, not arcs), feeding the same histogram and peak gauge.
func (r *Recorder) NodeQueueDepth(depth int) {
	if r == nil {
		return
	}
	d := int64(depth)
	r.queue.Observe(d)
	r.maxQueue.SetMax(d)
}

// Deliver records a delivery with its end-to-end latency (cycles) and
// hop count.
func (r *Recorder) Deliver(latency, hops int) {
	if r == nil {
		return
	}
	r.delivered.Inc()
	r.latency.Observe(int64(latency))
	r.hops.Observe(int64(hops))
}

// Drop records an undelivered packet under its cause bucket.
func (r *Recorder) Drop(cause DropCause) {
	if r == nil {
		return
	}
	r.dropped.Inc()
	if cause >= 0 && cause < numDropCauses {
		r.drops[cause].Inc()
	}
}

// Shed records a packet refused by admission control (never injected;
// accounted outside both Delivered and Dropped).
func (r *Recorder) Shed() {
	if r == nil {
		return
	}
	r.shed.Inc()
}

// ShardFallback records a run that requested several lanes
// (WithShards > 1) but was forced onto one lane or a one-lane engine by
// an incompatible option set — the dispatch rule WithShards documents,
// surfaced as a counter so sweeps notice when their shard request is
// being silently ignored. The counter is registered lazily on first
// fallback (dispatch happens once per run, never in the cycle loop), so
// snapshots of runs that never fell back are unchanged.
func (r *Recorder) ShardFallback() {
	if r == nil {
		return
	}
	r.reg.Counter(MetricShardFallback).Inc()
}

// Hold records one hold-in-place backpressure event: a packet found its
// downstream queue full and stayed upstream. depth is the depth of the
// refusing queue, observed into the queue_full_depth histogram.
func (r *Recorder) Hold(depth int) {
	if r == nil {
		return
	}
	r.holds.Inc()
	r.queueFull.Observe(int64(depth))
}

// Reroute records a forward on an arc other than the primary router's
// choice.
func (r *Recorder) Reroute() {
	if r == nil {
		return
	}
	r.reroutes.Inc()
}

// Retry records a backoff requeue of a packet with no live out-arc.
func (r *Recorder) Retry() {
	if r == nil {
		return
	}
	r.retries.Inc()
}

// Deflect records a hot-potato hop that moved a packet off its shortest
// path.
func (r *Recorder) Deflect() {
	if r == nil {
		return
	}
	r.deflections.Inc()
}

// Arena records one scratch-arena checkout: reused from the pool or
// freshly allocated.
func (r *Recorder) Arena(reused bool) {
	if r == nil {
		return
	}
	if reused {
		r.arenaReused.Inc()
	} else {
		r.arenaAlloc.Inc()
	}
}

// RouterBuild records a routing-slab construction: wall time in
// nanoseconds and the slab footprint in bytes.
func (r *Recorder) RouterBuild(ns, bytes int64) {
	if r == nil {
		return
	}
	r.routerNS.Set(ns)
	r.routerBytes.Set(bytes)
}

// Nack records a failed transmission attempt on a physically-down arc
// (the sender learns by timeout/NACK — the self-healing detection
// signal).
func (r *Recorder) Nack() {
	if r == nil {
		return
	}
	r.healNacks.Inc()
}

// Detect records a locally confirmed arc failure: suspicion on the arc
// crossed the threshold and the node committed a link-state event.
func (r *Recorder) Detect() {
	if r == nil {
		return
	}
	r.healDetects.Inc()
}

// HealEvent records one committed link-state event (an epoch).
func (r *Recorder) HealEvent() {
	if r == nil {
		return
	}
	r.healEvents.Inc()
}

// RepairSlabBuild records one routing repair: a self-healing epoch's
// routing built on its first use.
func (r *Recorder) RepairSlabBuild() {
	if r == nil {
		return
	}
	r.healRepairs.Inc()
}

// Probe records one recovery or half-open probe sent by the control
// plane.
func (r *Recorder) Probe() {
	if r == nil {
		return
	}
	r.healProbes.Inc()
}

// ConvergeCycles records the convergence time of a self-healing run:
// cycles from the first committed event to the last node informed of
// the final epoch.
func (r *Recorder) ConvergeCycles(cycles int64) {
	if r == nil {
		return
	}
	r.healConverge.Set(cycles)
}

// QuarantineTrip records a circuit breaker tripping open.
func (r *Recorder) QuarantineTrip() {
	if r == nil {
		return
	}
	r.quarTrips.Inc()
}

// QuarantineHalfOpen records a breaker moving to half-open (probing).
func (r *Recorder) QuarantineHalfOpen() {
	if r == nil {
		return
	}
	r.quarHalf.Inc()
}

// QuarantineClose records a breaker closing after a successful probe.
func (r *Recorder) QuarantineClose() {
	if r == nil {
		return
	}
	r.quarCloses.Inc()
}

// ArcTraversals returns a copy of the per-arc traversal slab (nil for a
// nil or unsized recorder).
func (r *Recorder) ArcTraversals() []int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traversalsLocked()
}

// ArcPeakQueue returns a copy of the per-arc peak-queue slab (nil for a
// nil or unsized recorder; all zeros before any peak).
func (r *Recorder) ArcPeakQueue() []int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakQueueLocked()
}

// traversalsLocked copies the traversal slab (nil when unsized).
func (r *Recorder) traversalsLocked() []int64 {
	if len(r.traversals) == 0 {
		return nil
	}
	return append([]int64(nil), r.traversals...)
}

// peakQueueLocked copies the peak-queue slab at the traversal slab's
// length (nil when unsized).
func (r *Recorder) peakQueueLocked() []int64 {
	if len(r.traversals) == 0 {
		return nil
	}
	out := make([]int64, len(r.traversals))
	copy(out, r.peakQueue)
	return out
}

// SumArcTraversalsBy rolls the per-arc traversal slab up into two
// partitions of the arcs at once — on an OTIS machine, the
// transmitter-side and the receiver-side lenses — adding in-place into
// sums: flat arc a adds its count to sums[first[a]] and to
// sums[second[a]] (a negative group skips that side). The slab is read
// where it lies — no copy — in one forward pass under the recorder's
// lock, and a run of arcs in one first-side group is summed in a
// register before it is added. Arcs beyond the slab or either map add
// nothing, as does a nil or unsized recorder.
func (r *Recorder) SumArcTraversalsBy(first, second []int16, sums []int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := r.traversals
	n := min(len(first), len(second), len(tr))
	first, second = first[:n], second[:n]
	cur, acc := int16(-1), int64(0)
	for a, g := range first {
		t := tr[a]
		if g != cur {
			if cur >= 0 {
				sums[cur] += acc
			}
			cur, acc = g, 0
		}
		acc += t
		if h := second[a]; h >= 0 {
			sums[h] += t
		}
	}
	if cur >= 0 {
		sums[cur] += acc
	}
}

// MaxArcPeakQueueBy rolls the per-arc peak-queue slab up into two
// partitions of the arcs as SumArcTraversalsBy does, raising peaks
// in-place: peaks[first[a]] and peaks[second[a]] become at least the
// peak queue depth of flat arc a (a negative group skips that side).
func (r *Recorder) MaxArcPeakQueueBy(first, second []int16, peaks []int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pq := r.peakQueue
	n := min(len(first), len(second), len(r.traversals))
	for a, g := range first[:n] {
		var d int64 // every peak is zero before the slab exists
		if pq != nil {
			d = pq[a]
		}
		if g >= 0 && d > peaks[g] {
			peaks[g] = d
		}
		if h := second[a]; h >= 0 && d > peaks[h] {
			peaks[h] = d
		}
	}
}

// Snapshot marshals the recorder's registry plus its per-arc slabs into
// an OBS_run/v1 document. Per-lens roll-ups are a machine-level concept;
// machine.RunMetrics attaches them to this document.
func (r *Recorder) Snapshot() RunMetrics {
	if r == nil {
		return RunMetrics{Schema: RunMetricsSchema}
	}
	m := r.reg.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	if tr := r.traversalsLocked(); len(tr) > 0 {
		m.Arcs = &ArcMetrics{
			Arcs:       len(tr),
			Traversals: tr,
			PeakQueue:  r.peakQueueLocked(),
		}
	}
	return m
}
