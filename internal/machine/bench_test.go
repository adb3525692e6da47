package machine

import (
	"math/rand"
	"testing"
	"time"

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
