package obs

import "math"

// Tally is the run-local side of a Recorder: plain counters, drop-cause
// buckets, histograms and per-arc traversal and peak-queue slabs that a
// single simulator run records into with no atomics and no locks. A run
// owns its tally exclusively (simnet keeps one in each pooled scratch
// arena), records every event into it, and folds it into the shared
// Recorder once, when the run ends, with Recorder.Merge. Every quantity
// a Recorder keeps is a sum, a maximum or a histogram, so the merged
// document is exactly the one that recording each event straight into
// the Recorder would have produced.
//
// The per-arc slabs are int32: a run moves at most one packet over an
// arc per cycle and holds fewer packets than math.MaxInt32, and the
// simulators guard both its cycles and its packet count to int32.
//
// Unlike the Recorder, a Tally is not nil-safe: a run without a
// recorder holds a nil *Tally, and its recording sites test it before
// each call.
type Tally struct {
	delivered   int64
	dropped     int64
	drops       [numDropCauses]int64
	shed        int64
	holds       int64
	retries     int64
	reroutes    int64
	deflections int64
	arenaReused int64
	arenaAlloc  int64

	latency   tallyHist
	queue     tallyHist
	hops      tallyHist
	queueFull tallyHist

	traversals []int32
	peakQueue  []int32
}

// smallValues bounds the values a tallyHist counts one by one in an
// array: a recorded run's queue depths, hop counts and most latencies
// lie in [0, smallValues), so recording one is a single increment.
const smallValues = 64

// tallyHist is the plain-integer twin of Histogram. Values in
// [0, smallValues) are counted in small and folded into the other
// fields only when the tally is merged; every other value goes through
// observe.
type tallyHist struct {
	count   int64
	sum     int64
	max     int64
	buckets [HistogramBuckets]int64
	small   [smallValues]int64
}

// observe records one value.
//
//lint:hotpath
func (h *tallyHist) observe(v int64) {
	h.count++
	h.sum += v
	h.max = max(h.max, v)
	h.buckets[bucketOf(v)]++
}

// add records one value, counting a small one in small.
//
//lint:hotpath
func (h *tallyHist) add(v int) {
	if uint(v) < smallValues {
		h.small[v]++
	} else {
		h.observe(int64(v))
	}
}

// fold moves the small-value counts into count, sum, max and buckets,
// leaving h what observing each value would have built.
func (h *tallyHist) fold() {
	for v, c := range h.small {
		if c == 0 {
			continue
		}
		h.count += c
		h.sum += int64(v) * c
		h.max = max(h.max, int64(v))
		h.buckets[bucketOf(int64(v))] += c
	}
	h.small = [smallValues]int64{}
}

// Reset zeroes the tally and sizes its per-arc slabs for m arcs,
// reusing their storage when it is large enough.
func (t *Tally) Reset(m int) {
	traversals, peakQueue := t.traversals, t.peakQueue
	if cap(traversals) < m {
		traversals = make([]int32, m)
		peakQueue = make([]int32, m)
	} else {
		traversals = traversals[:m]
		peakQueue = peakQueue[:m]
		clear(traversals)
		clear(peakQueue)
	}
	*t = Tally{}
	t.traversals, t.peakQueue = traversals, peakQueue
}

// ArcTraverse records one packet hop over the flat arc index.
//
//lint:hotpath
func (t *Tally) ArcTraverse(arc int) { t.traversals[arc]++ }

// QueueDepth records the depth of the flat arc's output queue after an
// enqueue, as Recorder.QueueDepth does. A depth past math.MaxInt32 —
// more packets than a run may hold — peaks at math.MaxInt32. It and
// NodeQueueDepth fit the inliner's budget (79 and 65 of 80), which
// keeps them inside the kernels' loops.
//
//lint:hotpath
func (t *Tally) QueueDepth(arc, depth int) {
	t.queue.add(depth)
	t.peakQueue[arc] = max(t.peakQueue[arc], int32(min(depth, math.MaxInt32)))
}

// NodeQueueDepth records a per-node hold-queue depth, as
// Recorder.NodeQueueDepth does.
//
//lint:hotpath
func (t *Tally) NodeQueueDepth(depth int) { t.queue.add(depth) }

// Deliver records a delivery with its latency (cycles) and hop count.
//
//lint:hotpath
func (t *Tally) Deliver(latency, hops int) {
	t.delivered++
	t.latency.add(latency)
	t.hops.add(hops)
}

// Drop records an undelivered packet under its cause bucket.
//
//lint:hotpath
func (t *Tally) Drop(cause DropCause) {
	t.dropped++
	if cause >= 0 && cause < numDropCauses {
		t.drops[cause]++
	}
}

// Shed records a packet refused by admission control.
//
//lint:hotpath
func (t *Tally) Shed() { t.shed++ }

// Hold records one hold-in-place backpressure event at the refusing
// queue's depth.
//
//lint:hotpath
func (t *Tally) Hold(depth int) {
	t.holds++
	t.queueFull.observe(int64(depth))
}

// Retry records a backoff requeue of a packet with no live out-arc.
//
//lint:hotpath
func (t *Tally) Retry() { t.retries++ }

// Reroute records a forward on an arc other than the primary router's
// choice.
//
//lint:hotpath
func (t *Tally) Reroute() { t.reroutes++ }

// Deflect records a hot-potato hop that moved a packet off its shortest
// path.
//
//lint:hotpath
func (t *Tally) Deflect() { t.deflections++ }

// Arena records one scratch-arena checkout: reused from the pool or
// freshly allocated.
func (t *Tally) Arena(reused bool) {
	if reused {
		t.arenaReused++
	} else {
		t.arenaAlloc++
	}
}

// Merge folds a run's tally into the recorder: one atomic update per
// non-zero counter and histogram bucket, and one pass over each per-arc
// slab with plain stores under the recorder's lock, instead of one
// update per event. It first folds t's small-value counts into t's
// histograms, which leaves t's totals unchanged. Arcs beyond the
// recorder's slab still count toward the arc_traversals_total counter,
// as Recorder.ArcTraverse counts them. Safe for concurrent use: sweep
// workers merge their own tallies into one shared recorder.
func (r *Recorder) Merge(t *Tally) {
	if r == nil || t == nil {
		return
	}
	addNonZero(r.delivered, t.delivered)
	addNonZero(r.dropped, t.dropped)
	for c := range t.drops {
		addNonZero(r.drops[c], t.drops[c])
	}
	addNonZero(r.shed, t.shed)
	addNonZero(r.holds, t.holds)
	addNonZero(r.retries, t.retries)
	addNonZero(r.reroutes, t.reroutes)
	addNonZero(r.deflections, t.deflections)
	addNonZero(r.arenaReused, t.arenaReused)
	addNonZero(r.arenaAlloc, t.arenaAlloc)
	t.latency.fold()
	t.queue.fold()
	t.hops.fold()
	r.latency.merge(&t.latency)
	r.queue.merge(&t.queue)
	r.hops.merge(&t.hops)
	r.queueFull.merge(&t.queueFull)
	if t.queue.count > 0 {
		r.maxQueue.SetMax(t.queue.max)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(len(t.traversals), len(r.traversals))
	tr, pq := r.traversals[:n], r.peakQueue
	var total int64
	for a, c := range t.traversals[:n] {
		tr[a] += int64(c)
		total += int64(c)
	}
	for _, c := range t.traversals[n:] {
		total += int64(c)
	}
	addNonZero(r.arcTotal, total)
	for a, d := range t.peakQueue[:n] {
		if d == 0 {
			continue
		}
		if pq == nil {
			pq = r.peakSlabLocked()
		}
		pq[a] = max(pq[a], int64(d))
	}
}

// addNonZero adds v to c, skipping the atomic update when v is zero.
func addNonZero(c *Counter, v int64) {
	if v != 0 {
		c.Add(v)
	}
}
