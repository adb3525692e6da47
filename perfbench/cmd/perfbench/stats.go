package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: p90 needs at least 100 samples.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It is used where every sample is kept and
// the count is small, such as set-up repetitions.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses a quantile that fewer than minTail samples lie beyond, on
// either side, so p90 needs 100 samples and p50 needs 20.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0, 1)", q)
	}
	tail := math.Min(q, 1-q)
	if float64(len(xs))*tail < minTail-1e-9 {
		return 0, fmt.Errorf("percentile: p%g needs %d samples, have %d",
			q*100, int(math.Ceil(minTail/tail-1e-9)), len(xs))
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// simStats are the simulated statistics of one op: host-independent
// counts that a speed-only change must leave identical.
type simStats struct {
	Offered, Delivered, Dropped, Shed int64
	Cycles, TotalHops, MaxHops        int64
	TotalWait, LatencySum             int64
	MaxQueue, PeakResident            int64
	Reroutes, Retries                 int64
	Nacks, Detections, Repairs        int64
}

// add accumulates o into s: sums for counts, maxima for peaks.
func (s *simStats) add(o simStats) {
	s.Offered += o.Offered
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Shed += o.Shed
	s.Cycles += o.Cycles
	s.TotalHops += o.TotalHops
	s.MaxHops = max(s.MaxHops, o.MaxHops)
	s.TotalWait += o.TotalWait
	s.LatencySum += o.LatencySum
	s.MaxQueue = max(s.MaxQueue, o.MaxQueue)
	s.PeakResident = max(s.PeakResident, o.PeakResident)
	s.Reroutes += o.Reroutes
	s.Retries += o.Retries
	s.Nacks += o.Nacks
	s.Detections += o.Detections
	s.Repairs += o.Repairs
}

// accounted checks the conservation law every run must keep: each
// offered packet is delivered, dropped or shed, exactly once.
func (s simStats) accounted() error {
	if s.Delivered+s.Dropped+s.Shed != s.Offered {
		return fmt.Errorf("delivered %d + dropped %d + shed %d != offered %d",
			s.Delivered, s.Dropped, s.Shed, s.Offered)
	}
	return nil
}

// expectations holds the expected simStats of each input of a
// workload's pass, one entry per simulated run of the op. The first
// result seen for an input is recorded; every later op on that input
// must reproduce it exactly. Once the pass is complete its digest is
// compared with the golden digest for the workload and seed, when one is
// on file.
type expectations struct {
	want [][]simStats
	seen int
}

func newExpectations(inputs int) *expectations {
	return &expectations{want: make([][]simStats, inputs)}
}

// input maps an op id to the pass input it runs.
func (e *expectations) input(op int) int { return op % len(e.want) }

// check compares got with the expected statistics of op's input,
// recording them if this is the input's first result.
func (e *expectations) check(op int, got []simStats) error {
	i := e.input(op)
	w := e.want[i]
	if w == nil {
		e.want[i] = append([]simStats(nil), got...)
		e.seen++
		return nil
	}
	if len(w) != len(got) {
		return fmt.Errorf("input %d: %d runs, expected %d", i, len(got), len(w))
	}
	for k := range w {
		if w[k] != got[k] {
			return fmt.Errorf("input %d run %d: sim statistics differ from the expected values: %s", i, k, diffStats(w[k], got[k]))
		}
	}
	return nil
}

// complete reports whether every input of the pass has been recorded.
func (e *expectations) complete() bool { return e.seen == len(e.want) }

// pass sums run k's recorded statistics over the pass.
func (e *expectations) pass(k int) simStats {
	var sum simStats
	for _, w := range e.want {
		if k < len(w) {
			sum.add(w[k])
		}
	}
	return sum
}

// digest is an FNV-64a hash over every recorded statistic in input and
// run order: one value that changes if any simulated count of the pass
// does.
func (e *expectations) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range e.want {
		for _, st := range w {
			v := reflect.ValueOf(st)
			for f := 0; f < v.NumField(); f++ {
				binary.LittleEndian.PutUint64(buf[:], uint64(v.Field(f).Int()))
				_, _ = h.Write(buf[:]) // hash.Hash writes never fail
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// diffStats names the fields where two statistics differ.
func diffStats(want, got simStats) string {
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	var out []string
	for f := 0; f < wv.NumField(); f++ {
		if wv.Field(f).Int() != gv.Field(f).Int() {
			out = append(out, fmt.Sprintf("%s=%d (want %d)", wv.Type().Field(f).Name, gv.Field(f).Int(), wv.Field(f).Int()))
		}
	}
	return strings.Join(out, ", ")
}
