package simnet

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
)

// routingConfig is one way of routing a congruence-form B(d, D) the
// concurrency tests run under.
type routingConfig struct {
	name string
	opt  NetworkOption
}

// routingConfigs returns the table, congruence-form shift routing, and
// a witness router on g's own labels. Both shift configurations carry
// each packet's state in the pooled arenas' carried-state slabs, the
// witness router through its letter map.
func routingConfigs(t *testing.T, g *digraph.Digraph) []routingConfig {
	labels := make([]int, g.N())
	for u := range labels {
		labels[u] = u
	}
	wr, err := NewWitnessRouter(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	return []routingConfig{
		{"table", WithRouting(TableRouting)},
		{"shift", WithRouting(ShiftRouting)},
		{"witness", WithRouter(wr)},
	}
}

// TestConcurrentRunOptsSharedNetwork is the service-mode concurrency
// contract: one compiled Network (shared routing slabs, pooled arenas
// with their carried-state slabs) must serve many goroutines calling
// RunOpts at once, each run producing exactly the report the same
// options produce alone, under table, shift and witness routing. Run
// under -race in check.sh; any shared mutable state in the arenas, the
// recorder, admission, or the fault engine shows up either as a race
// report or as a diverging result.
func TestConcurrentRunOptsSharedNetwork(t *testing.T) {
	g := debruijn.DeBruijn(3, 4)
	for _, rc := range routingConfigs(t, g) {
		concurrentRunOpts(t, g, rc)
	}
}

func concurrentRunOpts(t *testing.T, g *digraph.Digraph, rc routingConfig) {
	nw, err := NewNetwork(g, rc.opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlanFor(g).LinkDown(3, 12, 2, 1).NodeDown(7, 9, 5)

	// Option variants covering every engine RunOpts dispatches to:
	// lean sequential, sharded, bounded, admission-controlled, traced,
	// and the fault engine. Seeds differ per variant so the workloads
	// are not accidentally identical.
	variants := []struct {
		name string
		opts []RunOption
	}{
		{"lean", []RunOption{WithSeed(11)}},
		{"sharded", []RunOption{WithSeed(12), WithShards(4)}},
		{"bounded", []RunOption{WithSeed(13), WithQueueCapacity(8)}},
		{"admission", []RunOption{WithSeed(14), WithAdmission(AdmissionConfig{Rate: 500, Burst: 32})}},
		{"traced", []RunOption{WithSeed(15), WithTrace()}},
		{"faults", []RunOption{WithSeed(16), WithFaults(plan)}},
	}

	// Sequential baselines, one per variant, before any concurrency.
	want := make([]RunReport, len(variants))
	for i, v := range variants {
		rep, err := nw.RunOpts(UniformLoad(2*g.N()), v.opts...)
		if err != nil {
			t.Fatalf("%s baseline: %v", v.name, err)
		}
		want[i] = rep
	}

	const workers = 24
	const runsPerWorker = 4
	var wg sync.WaitGroup
	wg.Add(workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runsPerWorker; r++ {
				i := (w + r) % len(variants)
				v := variants[i]
				opts := v.opts
				if v.name == "lean" {
					// Some lean runs carry a private recorder: per-run
					// instrumentation must not leak between goroutines.
					rec := obs.NewRecorder(obs.NewRegistry())
					opts = append(append([]RunOption{}, opts...), WithRecorder(rec))
				}
				rep, err := nw.RunOpts(UniformLoad(2*g.N()), opts...)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(want[i], rep) {
					t.Errorf("%s worker %d run %d: concurrent %s run diverged from its sequential baseline", rc.name, w, r, v.name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSelfHealSessionsSharedNetwork pins the session-service
// substrate: many independent SelfHealing sessions over ONE compiled
// Network (sharing its read-only router, each keeping its own epoch
// routing), each serialized internally but all running concurrently,
// with per-session exact accounting. This is the invariant cmd/serve's
// scheduler builds on.
func TestConcurrentSelfHealSessionsSharedNetwork(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	for _, rc := range routingConfigs(t, g) {
		concurrentSelfHeal(t, g, rc)
	}
}

func concurrentSelfHeal(t *testing.T, g *digraph.Digraph, rc routingConfig) {
	nw, err := NewNetwork(g, rc.opt)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const runsPerSession = 3
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			plan := NewFaultPlanFor(g).LinkDown(2+w%5, 10, w%g.N(), 0)
			sess, err := nw.SelfHeal(plan, HealConfig{})
			if err != nil {
				t.Errorf("session %d: %v", w, err)
				return
			}
			for r := 0; r < runsPerSession; r++ {
				pkts := UniformRandom(g.N(), 3*g.N(), int64(100+w))
				hr, err := sess.Run(pkts)
				if err != nil {
					t.Errorf("session %d run %d: %v", w, r, err)
					return
				}
				if offered := len(pkts); hr.Delivered+hr.Dropped+hr.Shed != offered {
					t.Errorf("session %d run %d: %d delivered + %d dropped + %d shed != %d offered",
						w, r, hr.Delivered, hr.Dropped, hr.Shed, offered)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
