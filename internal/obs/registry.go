// Package obs is the simulation observability layer: a stdlib-only
// metrics substrate the packet simulators report into. It exists because
// SimResult-style aggregates say what a run *produced* but not how the
// network *behaved* — which arcs ran hot, how deep the queues got, which
// lens of an OTIS layout carried the traffic. The package provides
//
//   - Registry: named counters, gauges and fixed-bucket (power-of-two)
//     histograms, safe for concurrent use from sweep workers;
//   - Recorder: the instrument handle a run reports into. Every exported
//     Recorder method is nil-receiver guarded, so instrumented code can
//     call through a nil *Recorder and the uninstrumented fast path
//     stays branch-predictable and allocation-free (reprolint's recguard
//     analyzer enforces the guards). Its registry metrics update
//     atomically; its per-arc slabs are plain integers under one mutex;
//   - Tally: the run-local side of a Recorder. Every simnet engine
//     records each event of a run into a Tally with plain stores (small
//     queue depths, latencies and hop counts as one increment each),
//     then folds it into the Recorder with Recorder.Merge once, when the
//     run ends, taking the recorder's mutex once — so a recorder is
//     updated once per run, never per hop, and attaching one does not
//     change which engine runs (the sharded engine aside, which still
//     falls back to the sequential kernel);
//   - RunMetrics: a stable JSON document (schema "OBS_run/v1") built by
//     Snapshot, carrying the registry plus flat per-arc utilization
//     slabs and optional per-lens roll-ups.
//
// The package deliberately has no dependency on the simulators; simnet
// and machine import obs, never the reverse.
package obs

import (
	"expvar"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistogramBuckets is the fixed bucket count of every Histogram. Bucket
// 0 counts observations <= 0; bucket i (i >= 1) counts observations in
// [2^(i-1), 2^i - 1]; the last bucket absorbs everything larger. With 32
// buckets the histogram resolves latencies and queue depths up to ~2^31
// cycles, far beyond any simulation budget.
const HistogramBuckets = 32

// Histogram is a fixed power-of-two-bucket histogram, safe for
// concurrent use. It records count, sum and max alongside the buckets,
// so mean and tail position survive the bucketing.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [HistogramBuckets]atomic.Int64
}

// bucketOf returns the bucket index of v: 0 for v <= 0, otherwise the
// bit length of v clamped to the last bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// merge folds a run-local tally histogram into h, one atomic update
// per field and per non-empty bucket.
func (h *Histogram) merge(t *tallyHist) {
	if t.count == 0 {
		return
	}
	h.count.Add(t.count)
	h.sum.Add(t.sum)
	for {
		cur := h.max.Load()
		if t.max <= cur || h.max.CompareAndSwap(cur, t.max) {
			break
		}
	}
	for i, c := range t.buckets {
		if c != 0 {
			h.buckets[i].Add(c)
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 before any observation).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observation, 0 when empty (never NaN).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile of the recorded
// observations; see HistogramSnapshot.Quantile for the bound.
func (h *Histogram) Quantile(q float64) int64 {
	return h.snapshot().Quantile(q)
}

// snapshot copies the histogram into its JSON form, trimming trailing
// empty buckets so the document stays compact and stable.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	last := -1
	var raw [HistogramBuckets]int64
	for i := range raw {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	s.Buckets = append([]int64{}, raw[:last+1]...)
	return s
}

// Registry holds named metrics. Lookup is get-or-create and the returned
// handles are stable, so hot paths resolve names once and then update
// through the handle. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Names returns the registered metric names, sorted, for reporting.
func (r *Registry) Names() (counters, gauges, histograms []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	for n := range r.histograms {
		histograms = append(histograms, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(histograms)
	return counters, gauges, histograms
}

// Snapshot copies the registry into an OBS_run/v1 document (without the
// per-arc or per-lens sections, which only a Recorder can supply).
func (r *Registry) Snapshot() RunMetrics {
	m := RunMetrics{
		Schema:     RunMetricsSchema,
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		m.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		m.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		m.Histograms[name] = h.snapshot()
	}
	return m
}

// expvarRegs routes every name this package has published through an
// indirection map, because expvar.Publish panics on duplicate names and
// offers no unpublish. A long-lived service hosts one live Registry per
// tenant and tenants churn: the same name must be publishable again for
// a fresh Registry (the old closure would otherwise serve a dead
// tenant's data forever). The expvar.Func installed for a name reads
// the map on every snapshot, so PublishExpvar rebinds by overwriting
// the entry — latest registry wins, nothing panics.
var (
	expvarMu   sync.Mutex
	expvarRegs = map[string]*Registry{} // guarded by expvarMu
)

// PublishExpvar exposes the registry as an expvar variable under the
// given name (so `-pprof`-style debug servers serve it at /debug/vars).
// Names are a namespace per registry: publishing distinct registries
// under distinct names keeps them fully independent, and publishing a
// new registry under a previously used name rebinds that name to the
// new registry instead of panicking (expvar itself forbids duplicate
// Publish calls). A name already published by code outside this package
// is left alone.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, routed := expvarRegs[name]; routed {
		expvarRegs[name] = r
		return // the installed Func reads the map: rebind complete
	}
	if expvar.Get(name) != nil {
		return // foreign publisher owns the name; do not fight over it
	}
	expvarRegs[name] = r
	expvar.Publish(name, expvar.Func(func() any {
		expvarMu.Lock()
		reg := expvarRegs[name]
		expvarMu.Unlock()
		return reg.Snapshot()
	}))
}
