package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Times are
// nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // op id, -1 outside the op loop
}

// tracer keeps spans in memory for the traced run and writes them out
// when the benchmark ends. A disabled tracer records nothing, so the
// untraced runs that give the end-to-end metrics pay one branch per
// span. A tracer is used from one goroutine; concurrent callers record
// their own timestamps and add spans after joining.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	// op is the op id stamped on new spans.
	op int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), op: -1}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its child spans cover, in milliseconds.
func (t *tracer) selfTimes(name string) []float64 {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name || s.End < s.Start {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(s.Start, s.End, children[i]))/1e6)
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanSummary is the per-name roll-up written beside the spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// summary rolls the spans up by name, sorted by name.
func (t *tracer) summary() []spanSummary {
	seen := map[string]bool{}
	var names []string
	for _, s := range t.spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, name := range names {
		d, self := t.durations(name), t.selfTimes(name)
		out = append(out, spanSummary{Name: name, Count: len(d), TotalMS: sum(d), SelfMS: sum(self), P50MS: median(d)})
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
