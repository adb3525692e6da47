package machine

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// BenchmarkLensFaultRun times the fault kernel against the lane kernel
// on the paper's machine, OTIS(64,128) wiring B(2,12): each iteration
// runs one permutation as a plain run and the same permutation with one
// lens down for cycles 2–17, the lens cycling through a seeded order of
// all 192. The fault/plain metric is the ratio of the two summed times,
// so a faster or slower host cancels out of it.
func BenchmarkLensFaultRun(b *testing.B) {
	m, err := Build(2, 12, optics.DefaultPitch)
	if err != nil {
		b.Fatal(err)
	}
	pkts := simnet.Permutation(m.Nodes(), 1)
	lenses := rand.New(rand.NewSource(1)).Perm(m.Lenses())
	plans := make([]*simnet.FaultPlan, len(lenses))
	for i, lens := range lenses {
		if plans[i], err = m.LensFaultPlan(2, 16, lens); err != nil {
			b.Fatal(err)
		}
	}
	var plain, fault time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := m.RunOpts(simnet.Fixed(pkts)); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plans[i%len(plans)])); err != nil {
			b.Fatal(err)
		}
		plain += t1.Sub(t0)
		fault += time.Since(t1)
	}
	b.ReportMetric(float64(fault)/float64(plain), "fault/plain")
	b.ReportMetric(float64(fault.Microseconds())/float64(b.N), "fault_µs/op")
}

// BenchmarkLensHealSession is BenchmarkLensFaultRun's twin for
// self-healing sessions on the same machine: each iteration runs 8,192
// uniform packets through the oracle fault engine with transmitter lens
// 0 down permanently, then opens a session on the same plan and runs the
// same packets through it twice. The session/oracle metric is a
// session's time per Run as a multiple of the oracle run's, so a faster
// or slower host cancels out of it.
func BenchmarkLensHealSession(b *testing.B) {
	m, err := Build(2, 12, optics.DefaultPitch)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := m.LensFaultPlan(0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	pkts := simnet.UniformRandom(m.Nodes(), 8192, 1)
	var oracle, session time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := m.RunOpts(simnet.Fixed(pkts), simnet.WithFaults(plan)); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		s, err := m.SelfHeal(plan, simnet.HealConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if _, err := s.Run(pkts); err != nil {
				b.Fatal(err)
			}
		}
		oracle += t1.Sub(t0)
		session += time.Since(t1)
	}
	b.ReportMetric(float64(session)/float64(2*oracle), "session/oracle")
	b.ReportMetric(float64(session.Milliseconds())/float64(b.N), "session_ms/op")
}

// BenchmarkRecordedRun times telemetry on the paper's machine as the
// otis_lens study records it: each iteration runs one permutation plain
// and recorded into a fresh recorder, then the same permutation with
// one lens down for cycles 2–17, unrecorded and recorded into a fresh
// recorder, the lens cycling through a seeded order of all 192. The
// recorded/plain and recorded_fault/fault metrics are ratios of summed
// times, so a faster or slower host cancels out of them.
func BenchmarkRecordedRun(b *testing.B) {
	m, err := Build(2, 12, optics.DefaultPitch)
	if err != nil {
		b.Fatal(err)
	}
	pkts := simnet.Permutation(m.Nodes(), 1)
	lenses := rand.New(rand.NewSource(1)).Perm(m.Lenses())
	plans := make([]simnet.RunOption, len(lenses))
	for i, lens := range lenses {
		plan, err := m.LensFaultPlan(2, 16, lens)
		if err != nil {
			b.Fatal(err)
		}
		plans[i] = simnet.WithFaults(plan)
	}
	run := func(sum *time.Duration, opts ...simnet.RunOption) {
		t0 := time.Now()
		if _, err := m.RunOpts(simnet.Fixed(pkts), opts...); err != nil {
			b.Fatal(err)
		}
		*sum += time.Since(t0)
	}
	var plain, recorded, fault, recordedFault time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := plans[i%len(plans)]
		run(&plain)
		run(&recorded, simnet.WithRecorder(obs.NewRecorder(nil)))
		run(&fault, plan)
		run(&recordedFault, plan, simnet.WithRecorder(obs.NewRecorder(nil)))
	}
	b.ReportMetric(float64(recorded)/float64(plain), "recorded/plain")
	b.ReportMetric(float64(recordedFault)/float64(fault), "recorded_fault/fault")
}
