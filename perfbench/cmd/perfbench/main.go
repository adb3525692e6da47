// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four workloads from a seed and prints, as the last line of its
// standard output, one JSON object with the run's end-to-end metrics
// (untraced run) or per-layer metrics (traced run):
//
//	perfbench -workload otis_batch -seed 1 -seconds 30 -trace 0
//
// The workloads:
//
//	otis_batch   plain permutation runs on the OTIS(64,128) machine for B(2,12)
//	shift_scale  plain permutation runs on B(4,8), routed table-free
//	otis_lens    lens-outage studies on the OTIS machine: recorded run,
//	             faulted run, lens roll-up
//	serve_chaos  an open loop of HTTP requests to the cmd/serve binary
//
// Every input is generated from the seed before timing. Every op's
// output is checked; a failed check makes the run incorrect and the exit
// status 1. The benchmark times calls into each layer's public functions
// from outside; the program itself is not instrumented. See
// perfbench/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Run-shape constants shared by the workloads.
const (
	// setupRuns is how many times a run sets its workload up; setup_s
	// is the median.
	setupRuns = 5
	// minOps is the fewest measured ops a run makes, so that p90 has
	// ten samples beyond it.
	minOps = 100
	// maxErrors bounds the check failures a run keeps for its report.
	maxErrors = 20
)

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer
	serveBin string
	golden   goldens

	// setups holds each set-up repetition's time to first result, s.
	setups []float64
	// ops holds every measured op in completion order.
	ops []opRecord
	// exp checks each op against the pass's expected statistics;
	// passRun selects which run of an op the pass metrics describe.
	exp          *expectations
	passRun      int
	expectSource string // where the pass expectations came from
	// verify is the workload's own output check of an op's runs on a
	// pass input, beyond exact accounting.
	verify func(input int, runs []simStats) error
	heapMB float64
	// ungated holds end-to-end metrics reported beside the result line
	// but left out of it (see endToEnd).
	ungated map[string]metric
	buildMS float64 // median set-up build time
	layers  map[string]metric
	errs    []string
}

// opRecord is one measured op.
type opRecord struct {
	ms     float64 // latency
	end    float64 // completion, seconds after the measured phase began
	pkts   int64   // simulated packets delivered
	traced bool    // layer calls wrapped in spans (traced runs alternate)
	failed bool    // errored, failed a check, or missed the latency limit
}

// errorf records a failed check.
func (b *bench) errorf(format string, args ...any) {
	if len(b.errs) < maxErrors {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	} else if len(b.errs) == maxErrors {
		b.errs = append(b.errs, "(further check failures omitted)")
	}
}

// setLayer records a per-layer metric unless the workload's own path
// already set it; probes of layers the workload does not exercise fill
// only the gaps.
func (b *bench) setLayer(name string, value float64, unit string) {
	if _, ok := b.layers[name]; !ok {
		b.layers[name] = metric{Value: value, Unit: unit}
	}
}

// has reports whether every named per-layer metric is already set.
func (b *bench) has(names ...string) bool {
	for _, n := range names {
		if _, ok := b.layers[n]; !ok {
			return false
		}
	}
	return true
}

var workloads = map[string]func(*bench) error{
	"otis_batch":  otisBatch,
	"shift_scale": shiftScale,
	"otis_lens":   otisLens,
	"serve_chaos": serveChaos,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: otis_batch, shift_scale, otis_lens or serve_chaos")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	serveBin := fs.String("serve-bin", ".bench_build/bin/serve", "cmd/serve binary for serve_chaos")
	out := fs.String("out", ".bench_build", "directory for result and trace files")
	record := fs.String("record", "", "print golden pass digests for this comma-separated seed list and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		return recordGoldens(*record, *seconds)
	}
	fn, ok := workloads[*workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	golden, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		tr:       newTracer(*traceFlag == 1),
		serveBin: *serveBin,
		golden:   golden,
		layers:   map[string]metric{},
	}
	env := environment()
	if err := fn(b); err != nil {
		b.errorf("%v", err)
	}
	res := b.result()
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if err := b.writeFiles(*out, env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = os.Stdout.WriteString(table(b, env, res) + string(line) + "\n")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the run's metrics: the end-to-end set on an
// untraced run, the per-layer set on a traced one. Failed counts ops
// that errored, failed a check or missed the latency limit; only a
// failed check makes the run incorrect.
func (b *bench) result() result {
	res := result{Attempted: len(b.ops), Metrics: map[string]metric{}}
	for _, op := range b.ops {
		if op.failed {
			res.Failed++
		}
	}
	if b.tr.on {
		b.traceOverhead()
		for _, lm := range layerMetrics {
			m, ok := b.layers[lm.Name]
			if !ok {
				b.errorf("per-layer metric %s was not measured", lm.Name)
				continue
			}
			if m.Unit != lm.Unit {
				b.errorf("per-layer metric %s has unit %s, want %s", lm.Name, m.Unit, lm.Unit)
			}
			res.Metrics[lm.Name] = m
		}
	} else if len(b.ops) > 0 {
		res.Metrics = b.endToEnd()
	}
	if res.Attempted < 1 {
		b.errorf("no op was attempted")
		res.Attempted, res.Failed = 1, 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.errorf("metric %s is not a number", name)
			delete(res.Metrics, name)
		}
	}
	res.Correct = len(b.errs) == 0
	return res
}

// endToEnd computes the metrics a user of the system sees. The median
// op latency is reported in the table and the result file but left out
// of the result line: on the shared machine the benchmark was defined
// on, the host alternated between two speeds for seconds at a time, and
// the median otis_batch op moved with the share of time spent in each
// (16-29% between runs), while p90, which sits in the slower mode, and
// the throughputs moved less.
func (b *bench) endToEnd() map[string]metric {
	// Open-loop requests complete slightly out of order.
	ops := append([]opRecord(nil), b.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	var p50s, p90s []float64
	for _, w := range windows(ops, window, minOps) {
		ms := make([]float64, len(w))
		for i, op := range w {
			ms[i] = op.ms
		}
		p50, err := percentile(ms, 0.5)
		if err != nil {
			b.errorf("op_p50_ms: %v", err)
		}
		p90, err := percentile(ms, 0.9)
		if err != nil {
			b.errorf("op_p90_ms: %v", err)
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	var opsRates, pktRates []float64
	from := 0.0
	for _, w := range windows(ops, window, 1) {
		var pkts int64
		for _, op := range w {
			pkts += op.pkts
		}
		span := w[len(w)-1].end - from
		from = w[len(w)-1].end
		opsRates = append(opsRates, float64(len(w))/span)
		pktRates = append(pktRates, float64(pkts)/span)
	}
	b.ungated = map[string]metric{"op_p50_ms": {median(p50s), "ms"}}
	pass := b.passStats()
	return map[string]metric{
		"setup_s":            {median(b.setups), "s"},
		"ops_per_s":          {median(opsRates), "1/s"},
		"sim_pkts_per_s":     {median(pktRates), "1/s"},
		"op_p90_ms":          {median(p90s), "ms"},
		"delivered_frac":     {float64(pass.Delivered) / float64(pass.Offered), "frac"},
		"sim_latency_cycles": {float64(pass.LatencySum) / float64(pass.Delivered), "cycles"},
		"heap_live_mb":       {b.heapMB, "MiB"},
	}
}

// window is the shortest window, in seconds, the end-to-end metrics
// are taken over. Each metric is the median over windows of the
// window's value, so a burst of interference from the rest of the
// machine that slows a few windows does not move the result.
const window = 1.0

// windows splits ops, in completion order, into consecutive windows of
// at least span seconds and count ops; a short last window joins the
// one before it.
func windows(ops []opRecord, span float64, count int) [][]opRecord {
	var ends []int // exclusive end index of each window
	from, start := 0.0, 0
	for i, op := range ops {
		if op.end-from >= span && i+1-start >= count {
			ends = append(ends, i+1)
			from, start = op.end, i+1
		}
	}
	if len(ends) == 0 {
		ends = []int{len(ops)}
	}
	ends[len(ends)-1] = len(ops)
	out := make([][]opRecord, len(ends))
	prev := 0
	for k, e := range ends {
		out[k], prev = ops[prev:e], e
	}
	return out
}

// passStats sums the pass's expected statistics of run passRun.
func (b *bench) passStats() simStats {
	if b.exp == nil {
		return simStats{}
	}
	return b.exp.pass(b.passRun)
}

// traceOverhead compares the traced ops with the untraced ops of the
// same traced run.
func (b *bench) traceOverhead() {
	var on, off []float64
	for _, op := range b.ops {
		if op.traced {
			on = append(on, op.ms)
		} else {
			off = append(off, op.ms)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		b.errorf("trace overhead: %d traced and %d untraced ops", len(on), len(off))
		return
	}
	b.setLayer("bench.trace_overhead_frac", median(on)/median(off)-1, "frac")
}

// writeFiles writes the result with its environment record, and on a
// traced run the spans, under dir.
func (b *bench) writeFiles(dir string, env envRecord, res result) error {
	mode := "e2e"
	if b.tr.on {
		mode = "trace"
	}
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, mode))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "traced": b.tr.on,
		"env": env, "result": res, "ungated": b.ungated, "setups_s": b.setups, "errors": b.errs,
	}
	if b.tr.on {
		doc["layers"] = layerReport(b.layers)
		doc["span_summary"] = b.tr.summary()
		doc["spans"] = b.tr.spans
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed runs f inside a span and returns its duration in milliseconds.
func (b *bench) timed(name string, parent int, f func() error) (float64, error) {
	sp := b.tr.begin(name, parent)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	b.tr.end(sp)
	return millis(d), err
}

// clock helpers.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / 1e6 }

// heapLiveMB forces collection and returns the live heap in MiB. Two
// cycles, so that objects a sync.Pool parked in its victim cache are
// freed rather than counted.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
