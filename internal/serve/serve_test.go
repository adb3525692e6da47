package serve

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/simnet"
)

// fakeClock is a manually-advanced deterministic clock.
type fakeClock struct {
	t atomic.Int64
}

func (c *fakeClock) now() int64        { return c.t.Load() }
func (c *fakeClock) advance(d int64)   { c.t.Add(d) }
func (c *fakeClock) set(v int64) int64 { c.t.Store(v); return v }

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(debruijn.DeBruijn(2, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSession(t *testing.T, s *Scheduler, tc TenantConfig) int64 {
	t.Helper()
	sid, err := s.CreateSession(tc)
	if err != nil {
		t.Fatal(err)
	}
	return sid
}

func workload(s *Scheduler, n int, seed int64) []simnet.Packet {
	return simnet.UniformRandom(s.g.N(), n, seed)
}

func TestSubmitDeliversAndAccounts(t *testing.T) {
	s := newTestScheduler(t, Config{})
	if err := s.Start(2); err != nil {
		t.Fatal(err)
	}
	sid := mustSession(t, s, TenantConfig{Tenant: "acme"})

	const runs = 5
	const pktsPerRun = 24
	for i := 0; i < runs; i++ {
		out, err := s.Submit(sid, workload(s, pktsPerRun, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != StatusOK {
			t.Fatalf("run %d: status %q cause %q", i, out.Status, out.Cause)
		}
		if got := out.Heal.Delivered + out.Heal.Dropped + out.Heal.Shed; got != pktsPerRun {
			t.Fatalf("run %d: accounting %d != offered %d", i, got, pktsPerRun)
		}
	}

	st, err := s.Status(sid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != runs {
		t.Errorf("status runs = %d, want %d", st.Runs, runs)
	}
	if st.Cycle == 0 {
		t.Error("session clock did not advance across runs")
	}

	tn := s.Tenant("acme")
	offered := tn.offered.Value()
	if offered != runs*pktsPerRun {
		t.Errorf("offered = %d, want %d", offered, runs*pktsPerRun)
	}
	if got := tn.delivered.Value() + tn.dropped.Value() + tn.shed.Value(); got != offered {
		t.Errorf("tenant accounting %d != offered %d", got, offered)
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRefusesPacketsOutsideTheNetwork: a workload with a Src or a
// Dst outside [0, n) is misuse. Submit returns an error before counting
// anything offered, and the session keeps serving valid work.
func TestSubmitRefusesPacketsOutsideTheNetwork(t *testing.T) {
	s := newTestScheduler(t, Config{ChaosRate: -1})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	sid := mustSession(t, s, TenantConfig{Tenant: "acme"})
	n := s.g.N()
	for _, bad := range []simnet.Packet{{Src: 99, Dst: 1}, {Src: 1, Dst: n}, {Src: -1, Dst: 1}, {Src: 1, Dst: -1}} {
		pkts := append(workload(s, 8, 1), bad)
		if _, err := s.Submit(sid, pkts); err == nil || !strings.Contains(err.Error(), "outside the network") {
			t.Errorf("Submit with packet %d→%d: error %v, want a refusal", bad.Src, bad.Dst, err)
		}
	}
	if got := s.Tenant("acme").offered.Value(); got != 0 {
		t.Errorf("refused workloads counted %d packets offered, want 0", got)
	}
	out, err := s.Submit(sid, workload(s, 8, 2))
	if err != nil || out.Status != StatusOK || out.Heal.Delivered+out.Heal.Dropped != 8 {
		t.Fatalf("valid Submit after the refusals: %+v, %v", out, err)
	}
	if got := s.Tenant("acme").offered.Value(); got != 8 {
		t.Errorf("offered = %d after one valid 8-packet Submit, want 8", got)
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionStatePersistsAcrossRuns(t *testing.T) {
	// The whole point of sessions: the self-healing clock keeps
	// counting across Submits, so chaos with session-absolute starts
	// stays continuous.
	s := newTestScheduler(t, Config{ChaosRate: 10})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	sid := mustSession(t, s, TenantConfig{Tenant: "acme"})
	var prev int
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(sid, workload(s, 32, int64(i))); err != nil {
			t.Fatal(err)
		}
		st, err := s.Status(sid)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycle <= prev {
			t.Fatalf("run %d: session clock %d did not advance past %d", i, st.Cycle, prev)
		}
		prev = st.Cycle
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionShedsAndRefills(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1)
	s := newTestScheduler(t, Config{Now: clk.now})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	// 10 packets/second, burst 20: the first 20-packet submit drains
	// the bucket, the next sheds, and a one-second advance readmits.
	sid := mustSession(t, s, TenantConfig{
		Tenant:    "limited",
		Admission: &AdmissionConfig{Rate: 10, Burst: 20},
	})
	out, err := s.Submit(sid, workload(s, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusOK {
		t.Fatalf("first submit: %q (%s)", out.Status, out.Cause)
	}
	out, err = s.Submit(sid, workload(s, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusShed || out.Cause != "admission" {
		t.Fatalf("over-budget submit: %q cause %q, want shed/admission", out.Status, out.Cause)
	}
	clk.advance(1_000_000_000)
	out, err = s.Submit(sid, workload(s, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusOK {
		t.Fatalf("post-refill submit: %q (%s)", out.Status, out.Cause)
	}
	tn := s.Tenant("limited")
	if got := tn.shedBy[ShedAdmission].Value(); got != 20 {
		t.Errorf("shed_admission = %d, want 20", got)
	}
	if got := tn.delivered.Value() + tn.dropped.Value() + tn.shed.Value(); got != tn.offered.Value() {
		t.Errorf("tenant accounting %d != offered %d", got, tn.offered.Value())
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestDeadlineShedsQueuedWork(t *testing.T) {
	// The default logical clock advances 1000 units per reading, so a
	// RequestTimeout of 1 is deterministically expired by the time the
	// worker's execute() reads the clock again — the queued-too-long
	// path without real sleeps.
	s := newTestScheduler(t, Config{})
	sid := mustSession(t, s, TenantConfig{Tenant: "acme", RequestTimeout: 1})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	out, err := s.Submit(sid, workload(s, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusShed || out.Cause != "deadline" {
		t.Fatalf("deadline request: %q cause %q, want shed/deadline", out.Status, out.Cause)
	}
	tn := s.Tenant("acme")
	if got := tn.deadlineMiss.Value(); got != 1 {
		t.Errorf("deadline_miss = %d, want 1", got)
	}
	if got := tn.shedBy[ShedDeadline].Value(); got != 8 {
		t.Errorf("shed_deadline = %d, want 8", got)
	}
	if got := tn.delivered.Value() + tn.dropped.Value() + tn.shed.Value(); got != tn.offered.Value() {
		t.Errorf("tenant accounting %d != offered %d", got, tn.offered.Value())
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFullSheds(t *testing.T) {
	s := newTestScheduler(t, Config{QueueDepth: 1})
	sid := mustSession(t, s, TenantConfig{Tenant: "acme"})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	// Saturate: with depth 1 and concurrent submits, at least one must
	// shed queue_full or all must succeed serially — drive enough
	// concurrent submitters that overflow is certain.
	const submitters = 8
	var wg sync.WaitGroup
	var shedQF atomic.Int64
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func(i int) {
			defer wg.Done()
			out, err := s.Submit(sid, workload(s, 256, int64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			if out.Status == StatusShed && out.Cause == "queue_full" {
				shedQF.Add(1)
			}
		}(i)
	}
	wg.Wait()
	tn := s.Tenant("acme")
	if got := tn.delivered.Value() + tn.dropped.Value() + tn.shed.Value(); got != tn.offered.Value() {
		t.Errorf("tenant accounting %d != offered %d", got, tn.offered.Value())
	}
	if shedQF.Load() != tn.shedBy[ShedQueueFull].Value()/256 {
		t.Errorf("queue_full outcomes %d inconsistent with counter %d", shedQF.Load(), tn.shedBy[ShedQueueFull].Value())
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseSessionShedsAndFreesSlot(t *testing.T) {
	s := newTestScheduler(t, Config{MaxSessions: 1})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}
	sid := mustSession(t, s, TenantConfig{Tenant: "acme"})
	if _, err := s.CreateSession(TenantConfig{Tenant: "acme"}); err == nil {
		t.Fatal("second session fit a MaxSessions=1 table")
	}
	if err := s.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	out, err := s.Submit(sid, workload(s, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusShed || out.Cause != "closed" {
		t.Fatalf("submit to closed session: %q cause %q", out.Status, out.Cause)
	}
	// The slot is free again.
	if _, err := s.CreateSession(TenantConfig{Tenant: "acme"}); err != nil {
		t.Fatalf("slot not freed by close: %v", err)
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// panicRouter is a custom Router whose every decision panics.
type panicRouter struct{}

func (panicRouter) NextArc(at, dst int) int { panic("serve_test: router fault") }

// TestPanickingRunShedsAndClosesOnlyItsSession: a session whose Run
// panics sheds that request as failed and closes, while a session of
// another tenant on the same scheduler keeps delivering, every tenant's
// accounting stays exact, and the drain completes.
func TestPanickingRunShedsAndClosesOnlyItsSession(t *testing.T) {
	s := newTestScheduler(t, Config{ChaosRate: -1})
	healthy := s.nw
	broken, err := simnet.NewNetwork(s.g, simnet.WithRouter(panicRouter{}))
	if err != nil {
		t.Fatal(err)
	}
	s.nw = broken
	bad := mustSession(t, s, TenantConfig{Tenant: "bad"})
	s.nw = healthy
	good := mustSession(t, s, TenantConfig{Tenant: "good"})
	if err := s.Start(1); err != nil {
		t.Fatal(err)
	}

	const pkts = 16
	submit := func(sid int64, seed int64) Outcome {
		t.Helper()
		out, err := s.Submit(sid, workload(s, pkts, seed))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := submit(bad, 1); out.Status != StatusShed || out.Cause != "failed" || out.Shed != pkts || out.Err == "" {
		t.Fatalf("panicking run: %+v, want all %d packets shed as failed with an error", out, pkts)
	}
	if out := submit(good, 2); out.Status != StatusOK || out.Heal.Delivered != pkts {
		t.Fatalf("healthy session after a panic elsewhere: %+v", out)
	}
	if out := submit(bad, 3); out.Status != StatusShed || out.Cause != "closed" {
		t.Fatalf("request to the panicked session: %+v, want shed as closed", out)
	}
	if st, err := s.Status(bad); err != nil || !st.Closed {
		t.Fatalf("panicked session status %+v (%v), want closed", st, err)
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	rep := s.SLOReport()
	if rep.Sessions != 1 {
		t.Errorf("%d live sessions after the panic, want 1", rep.Sessions)
	}
	for _, e := range rep.Tenants {
		if e.Delivered+e.Dropped+e.Shed != e.Offered {
			t.Errorf("tenant %q: delivered %d + dropped %d + shed %d != offered %d",
				e.Tenant, e.Delivered, e.Dropped, e.Shed, e.Offered)
		}
	}
	if tot := rep.Total; tot.Offered != 3*pkts || tot.Delivered+tot.Dropped+tot.Shed != tot.Offered {
		t.Errorf("aggregate: delivered %d + dropped %d + shed %d, offered %d (want %d)",
			tot.Delivered, tot.Dropped, tot.Shed, tot.Offered, 3*pkts)
	}
	if tn := s.Tenant("bad"); tn.shedBy[ShedFailed].Value() != pkts || tn.shedBy[ShedClosed].Value() != pkts {
		t.Errorf("tenant bad shed %d failed and %d closed, want %d each",
			tn.shedBy[ShedFailed].Value(), tn.shedBy[ShedClosed].Value(), pkts)
	}
}

func TestGracefulDrainExactAccounting(t *testing.T) {
	s := newTestScheduler(t, Config{ChaosRate: 5})
	if err := s.Start(2); err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	sids := make([]int64, sessions)
	for i := range sids {
		sids[i] = mustSession(t, s, TenantConfig{Tenant: "acme"})
	}
	// Drive load from many goroutines, then shut down in the middle of
	// it; every submit must come back either ok or shed, never lost.
	var wg sync.WaitGroup
	var done atomic.Int64
	const submitters = 16
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				out, err := s.Submit(sids[(i+r)%sessions], workload(s, 64, int64(i*100+r)))
				if err != nil {
					t.Error(err)
					return
				}
				if out.Status != StatusOK && out.Status != StatusShed {
					t.Errorf("outcome status %q", out.Status)
					return
				}
				done.Add(1)
			}
		}(i)
	}
	// Let some work land, then drain concurrently with the submitters.
	for done.Load() < submitters {
		runtime.Gosched()
	}
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	tn := s.Tenant("acme")
	offered := tn.offered.Value()
	if offered != submitters*6*64 {
		t.Fatalf("offered = %d, want %d", offered, submitters*6*64)
	}
	if got := tn.delivered.Value() + tn.dropped.Value() + tn.shed.Value(); got != offered {
		t.Fatalf("post-drain accounting %d != offered %d — packets lost in drain", got, offered)
	}
	// Post-drain submits shed immediately with cause draining.
	out, err := s.Submit(sids[0], workload(s, 8, 999))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != StatusShed || out.Cause != "draining" {
		t.Fatalf("post-drain submit: %q cause %q", out.Status, out.Cause)
	}
}

func TestChaosPlansAreDeterministicPerSession(t *testing.T) {
	mk := func() *Scheduler {
		s := newTestScheduler(t, Config{ChaosRate: 8, ChaosSeed: 42})
		if err := s.Start(1); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	sa := mustSession(t, a, TenantConfig{Tenant: "x"})
	sb := mustSession(t, b, TenantConfig{Tenant: "x"})
	oa, err := a.Submit(sa, workload(a, 128, 7))
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Submit(sb, workload(b, 128, 7))
	if err != nil {
		t.Fatal(err)
	}
	if oa.Heal.Delivered != ob.Heal.Delivered || oa.Heal.Nacks != ob.Heal.Nacks ||
		oa.Heal.EventsCommitted != ob.Heal.EventsCommitted {
		t.Fatalf("same seed, same session id, different chaos: %+v vs %+v", oa.Heal, ob.Heal)
	}
	if _, err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestTenantConfigValidation(t *testing.T) {
	s := newTestScheduler(t, Config{})
	cases := []TenantConfig{
		{},
		{Tenant: "x", Admission: &AdmissionConfig{Rate: 0}},
		{Tenant: "x", QueueCapacity: -1},
		{Tenant: "x", RequestTimeout: -5},
	}
	for i, tc := range cases {
		if _, err := s.CreateSession(tc); err == nil {
			t.Errorf("case %d (%+v): invalid config accepted", i, tc)
		}
	}
	if _, err := s.Submit(99, workload(s, 4, 1)); err == nil || !strings.Contains(err.Error(), "not started") {
		t.Errorf("submit before start: %v", err)
	}
}
