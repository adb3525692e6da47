package obs

import "sync/atomic"

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
	arenaReused int64
	arenaAlloc  int64

	latency   tallyHist
	queue     tallyHist
	hops      tallyHist
	queueFull tallyHist

	traversals []int64
	peakQueue  []int64
}

// tallyHist is the plain-integer twin of Histogram.
type tallyHist struct {
	count   int64
	sum     int64
	max     int64
	buckets [HistogramBuckets]int64
}

// observe records one value.
//
//lint:hotpath
func (h *tallyHist) observe(v int64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// Reset zeroes the tally and sizes its per-arc slabs for m arcs,
// reusing their storage when it is large enough.
func (t *Tally) Reset(m int) {
	traversals, peakQueue := t.traversals, t.peakQueue
	if cap(traversals) < m {
		traversals = make([]int64, m)
		peakQueue = make([]int64, m)
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
// enqueue, as Recorder.QueueDepth does.
//
//lint:hotpath
func (t *Tally) QueueDepth(arc, depth int) {
	d := int64(depth)
	t.queue.observe(d)
	if d > t.peakQueue[arc] {
		t.peakQueue[arc] = d
	}
}

// NodeQueueDepth records a per-node hold-queue depth, as
// Recorder.NodeQueueDepth does.
//
//lint:hotpath
func (t *Tally) NodeQueueDepth(depth int) { t.queue.observe(int64(depth)) }

// Deliver records a delivery with its latency (cycles) and hop count.
//
//lint:hotpath
func (t *Tally) Deliver(latency, hops int) {
	t.delivered++
	t.latency.observe(int64(latency))
	t.hops.observe(int64(hops))
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
// non-zero counter, histogram bucket and per-arc slab entry, instead of
// one per event. Arcs beyond the recorder's slab still count toward the
// arc_traversals_total counter, as Recorder.ArcTraverse counts them.
// Safe for concurrent use: sweep workers merge their own tallies into
// one shared recorder.
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
	addNonZero(r.arenaReused, t.arenaReused)
	addNonZero(r.arenaAlloc, t.arenaAlloc)
	r.latency.merge(&t.latency)
	r.queue.merge(&t.queue)
	r.hops.merge(&t.hops)
	r.queueFull.merge(&t.queueFull)
	if t.queue.count > 0 {
		r.maxQueue.SetMax(t.queue.max)
	}

	s := r.slabs.Load()
	var total int64
	for a, c := range t.traversals {
		if c == 0 {
			continue
		}
		total += c
		if s != nil && a < len(s.traversals) {
			atomic.AddInt64(&s.traversals[a], c)
		}
	}
	addNonZero(r.arcTotal, total)
	if s == nil {
		return
	}
	for a, d := range t.peakQueue {
		if d == 0 || a >= len(s.peakQueue) {
			continue
		}
		for {
			cur := atomic.LoadInt64(&s.peakQueue[a])
			if d <= cur || atomic.CompareAndSwapInt64(&s.peakQueue[a], cur, d) {
				break
			}
		}
	}
}

// addNonZero adds v to c, skipping the atomic update when v is zero.
func addNonZero(c *Counter, v int64) {
	if v != 0 {
		c.Add(v)
	}
}
