package main

import (
	"fmt"
	"sort"
	"strings"
)

// layerMetric documents one per-layer metric of the traced run: how it
// is measured, whether it is host time or a simulated count, and which
// end-to-end metric on which workload a change to the layer should move
// or leave unchanged. Simulated metrics repeat exactly for a seed.
type layerMetric struct {
	Name      string `json:"name"`
	Unit      string `json:"unit"`
	Sim       bool   `json:"sim"`
	Measured  string `json:"measured"`
	Moves     string `json:"moves"`
	Unchanged string `json:"unchanged"`
}

// layerMetrics is every per-layer metric a traced run reports. A
// workload that does not exercise a layer measures it with a probe on
// the layer's canonical instance (the OTIS(64,128) machine, or a short
// cmd/serve session).
var layerMetrics = []layerMetric{
	{"machine.build_ms", "ms", false, "span around machine.Build(2, 12)", "setup_s @ otis_batch, otis_lens", "shift_scale, serve_chaos"},
	{"simnet.router_build_ms", "ms", false, "simnet.NewTableRouter(m.Physical), timed once", "setup_s (about 90% of it) @ otis_*", "shift_scale"},
	{"simnet.router_slab_mb", "MiB", false, "TableRouter.Footprint()", "heap_live_mb @ otis_*", "shift_scale"},
	{"digraph.iso_verify_ms", "ms", false, "digraph.VerifyIsomorphism as machine.Build calls it", "setup_s @ otis_*", "shift_scale"},
	{"otis.witness_ms", "ms", false, "otis.LayoutWitness as machine.Build calls it", "setup_s @ otis_*", "shift_scale"},
	{"optics.verify_ms", "ms", false, "Bench.VerifyTranspose as machine.Build calls it", "setup_s @ otis_*", "shift_scale"},
	{"digraph.dist_slab_ms", "ms", false, "m.Physical.DistanceSlab(), the slab the first faulted run builds lazily", "setup_s @ otis_lens", "otis_batch"},
	{"digraph.dist_slab_mb", "MiB", false, "4 bytes per ordered node pair of that slab", "heap_live_mb @ otis_lens", "otis_batch"},
	{"debruijn.build_ms", "ms", false, "debruijn.DeBruijn(d, D) of the workload's network", "setup_s @ shift_scale", "otis_*"},
	{"simnet.new_network_ms", "ms", false, "simnet.NewNetwork, including Recognize", "setup_s @ shift_scale", "otis_*"},
	{"simnet.first_run_ms", "ms", false, "the cold first op of set-up", "setup_s @ otis_batch, shift_scale, otis_lens", "serve_chaos"},
	{"simnet.run_ms_p50", "ms", false, "span around each plain RunOpts", "op_p50_ms, sim_pkts_per_s @ otis_batch, shift_scale", "serve_chaos"},
	{"simnet.ns_per_hop", "ns", false, "plain run time over Result.TotalHops", "sim_pkts_per_s @ otis_batch, shift_scale", "serve_chaos"},
	{"simnet.ns_per_cycle", "ns", false, "plain run time over Result.Cycles", "sim_pkts_per_s @ shift_scale more than @ otis_batch", "serve_chaos"},
	{"simnet.route_ns_per_hop", "ns", false, "walking each packet's route with Router.NextArc and Digraph.Out", "sim_pkts_per_s @ shift_scale more than @ otis_batch", "serve_chaos"},
	{"simnet.hops_per_pkt", "hops", true, "Result.TotalHops over packets offered", "sim_latency_cycles; identical under a speed-only change", "every workload"},
	{"simnet.wait_cycles_per_pkt", "cycles", true, "Result.TotalWait over packets delivered", "sim_latency_cycles; identical under a speed-only change", "every workload"},
	{"simnet.max_queue", "pkts", true, "largest Result.MaxQueue of the pass", "sim_latency_cycles; identical under a speed-only change", "every workload"},
	{"simnet.peak_resident", "pkts", true, "largest Result.PeakResident of the pass", "sim_latency_cycles; identical under a speed-only change", "every workload"},
	{"obs.recorded_run_ms_p50", "ms", false, "span around the recorded healthy run", "op_p50_ms @ otis_lens", "otis_batch, shift_scale"},
	{"obs.overhead_x", "x", false, "recorded over plain run time on the same inputs", "op_p50_ms @ otis_lens", "otis_batch, shift_scale"},
	{"simnet.fault_run_ms_p50", "ms", false, "span around the lens-faulted run", "op_p50_ms, op_p90_ms @ otis_lens", "otis_batch, shift_scale"},
	{"simnet.fault_retries_per_pkt", "1/pkt", true, "FaultResult.Retries over packets offered", "op_p90_ms @ otis_lens", "-"},
	{"simnet.fault_reroutes", "1/run", true, "FaultResult.Reroutes per faulted run", "op_p90_ms @ otis_lens", "-"},
	{"machine.lens_rollup_ms", "ms", false, "span around both LensUtilization calls", "op_p50_ms @ otis_lens (about 3% of the op)", "-"},
	{"cmd_serve.http_ms_p50", "ms", false, "client send-to-receive time minus the response's LatencyNS", "op_p50_ms @ serve_chaos (about 80% of it)", "batch workloads"},
	{"cmd_serve.resp_kb", "KiB", false, "mean response size", "op_p50_ms @ serve_chaos", "batch workloads"},
	{"serve.sched_ms_p50", "ms", false, "Outcome.LatencyNS: queue wait plus SelfHealing.Run", "op_p90_ms @ serve_chaos", "batch workloads"},
	{"serve.sched_ms_p90", "ms", false, "Outcome.LatencyNS, p90", "op_p90_ms @ serve_chaos", "batch workloads"},
	{"serve.submit_ms_p50", "ms", false, "in-process replay through serve.New and Scheduler.Submit", "splits op_p50_ms @ serve_chaos into HTTP and scheduler+heal", "-"},
	{"simnet.heal_repairs", "1/kreq", true, "Outcome.Heal.Repairs, final per session, per 1,000 requests", "op_p90_ms @ serve_chaos", "-"},
	{"simnet.heal_nacks", "1/kreq", true, "Outcome.Heal.Nacks per 1,000 requests", "op_p90_ms @ serve_chaos", "-"},
	{"simnet.heal_detections", "1/kreq", true, "Outcome.Heal.Detections per 1,000 requests", "op_p90_ms @ serve_chaos", "-"},
	{"cmd_serve.session_create_ms", "ms", false, "POST /v1/session", "setup_s @ serve_chaos", "-"},
	{"bench.gen_late_ms_p50", "ms", false, "open-loop send time minus due time", "op_*_ms @ serve_chaos with no program change (harness health)", "-"},
	{"bench.gen_late_ms_p90", "ms", false, "open-loop send time minus due time, p90", "op_*_ms @ serve_chaos with no program change (harness health)", "-"},
	{"bench.trace_overhead_frac", "frac", false, "median traced op over median untraced op of the traced run, minus 1", "none", "-"},
}

// layerRow is one per-layer metric with its documentation, as written
// to the traced run's result file.
type layerRow struct {
	layerMetric
	Value float64 `json:"value"`
}

func layerReport(layers map[string]metric) []layerRow {
	var out []layerRow
	for _, lm := range layerMetrics {
		if m, ok := layers[lm.Name]; ok {
			out = append(out, layerRow{lm, m.Value})
		}
	}
	return out
}

// table renders the environment and every metric by name with its
// unit, printed ahead of the result line.
func table(b *bench, env envRecord, res result) string {
	var sb strings.Builder
	line := func(format string, args ...any) { sb.WriteString(fmt.Sprintf(format, args...)) }
	line("# perfbench %s seed=%d seconds=%g traced=%v\n", b.workload, b.seed, b.seconds, b.tr.on)
	line("# env cpu=%q cpus=%d nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		env.CPUModel, env.CPUs, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.SourceSHA256)
	line("# ops attempted=%d failed=%d correct=%v expectations=%s\n", res.Attempted, res.Failed, res.Correct, b.expectSource)
	if b.tr.on {
		for _, lm := range layerMetrics {
			kind := "host"
			if lm.Sim {
				kind = "sim"
			}
			if m, ok := res.Metrics[lm.Name]; ok {
				line("%-30s %14.6g %-7s %-4s moves: %s\n", lm.Name, m.Value, m.Unit, kind, lm.Moves)
			}
		}
		return sb.String()
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line("%-20s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for n, m := range b.ungated {
		line("%-20s %14.6g %s (not in the result line)\n", n, m.Value, m.Unit)
	}
	return sb.String()
}
