package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestThousandConcurrentSessions is the ROADMAP acceptance load test:
// >= 1000 concurrent persistent self-healing sessions over ONE shared
// compiled Network, driven from many goroutines with always-on chaos,
// with
//
//   - exact aggregate accounting: per tenant and in total, Delivered +
//     Dropped + Shed == Offered, bit-exact, no packet lost;
//   - zero deadline misses at rated load (the timeout is sized to the
//     worst queueing the configuration allows);
//   - graceful drain within the configured deadline while chaos is
//     active, submits racing the shutdown;
//   - no goroutine left behind: after the drain the process runs as
//     many goroutines as before Start.
//
// Run under -race by scripts/check.sh: any shared mutable state across
// sessions (arenas, routing slabs, registries, the scheduler itself)
// is a race report here.
func TestThousandConcurrentSessions(t *testing.T) {
	const (
		tenants      = 50
		perTenant    = 20 // 1000 sessions
		sessions     = tenants * perTenant
		runsPer      = 2
		pktsPerRun   = 8
		submitters   = 32
		queueDepth   = 32
		drainBudget  = 1 << 40 // logical-clock units; generous but finite
		requestLimit = 1 << 40
	)
	s := newTestScheduler(t, Config{
		MaxSessions:   sessions,
		QueueDepth:    queueDepth,
		DrainDeadline: drainBudget,
		ChaosRate:     4,
		ChaosSeed:     7,
	})
	goroutines := runtime.NumGoroutine()
	if err := s.Start(8); err != nil {
		t.Fatal(err)
	}

	tenantNames := make([]string, tenants)
	sids := make([]int64, 0, sessions)
	for ti := 0; ti < tenants; ti++ {
		name := "tenant_" + itoa2(ti)
		tenantNames[ti] = name
		for k := 0; k < perTenant; k++ {
			sid, err := s.CreateSession(TenantConfig{
				Tenant:         name,
				RequestTimeout: requestLimit,
			})
			if err != nil {
				t.Fatal(err)
			}
			sids = append(sids, sid)
		}
	}
	if len(sids) != sessions {
		t.Fatalf("created %d sessions, want %d", len(sids), sessions)
	}

	// Every session gets runsPer submits, partitioned across submitter
	// goroutines so all sessions are exercised and submits overlap.
	var wg sync.WaitGroup
	wg.Add(submitters)
	var mu sync.Mutex
	outcomes := map[string]int{}
	for w := 0; w < submitters; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < sessions; i += submitters {
				for r := 0; r < runsPer; r++ {
					out, err := s.Submit(sids[i], simnet.UniformRandom(s.g.N(), pktsPerRun, int64(i*runsPer+r)))
					if err != nil {
						t.Errorf("session %d: %v", sids[i], err)
						return
					}
					key := out.Status
					if out.Status == StatusShed {
						key = out.Cause
					}
					mu.Lock()
					outcomes[key]++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	stats, err := s.Shutdown()
	if err != nil {
		t.Fatalf("drain overran its deadline: %v", err)
	}
	if stats.Sessions != sessions {
		t.Errorf("drained %d sessions, want %d", stats.Sessions, sessions)
	}
	waitForGoroutines(t, goroutines)

	rep := s.SLOReport()
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSLOReport(data); err != nil {
		t.Fatalf("SLO report does not validate after load: %v", err)
	}
	if len(rep.Tenants) != tenants {
		t.Fatalf("report has %d tenants, want %d", len(rep.Tenants), tenants)
	}
	wantOffered := int64(sessions * runsPer * pktsPerRun)
	if rep.Total.Offered != wantOffered {
		t.Errorf("total offered = %d, want %d", rep.Total.Offered, wantOffered)
	}
	if got := rep.Total.Delivered + rep.Total.Dropped + rep.Total.Shed; got != rep.Total.Offered {
		t.Errorf("aggregate accounting %d != offered %d — packets lost", got, rep.Total.Offered)
	}
	for _, e := range rep.Tenants {
		if e.Offered != int64(perTenant*runsPer*pktsPerRun) {
			t.Errorf("tenant %s offered %d, want %d", e.Tenant, e.Offered, perTenant*runsPer*pktsPerRun)
		}
		if e.DeadlineMisses != 0 {
			t.Errorf("tenant %s missed %d deadlines at rated load", e.Tenant, e.DeadlineMisses)
		}
		if e.ChaosFaults == 0 {
			t.Errorf("tenant %s has no chaos faults; chaos must be always-on", e.Tenant)
		}
	}
	if outcomes[StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", outcomes)
	}
	t.Logf("outcomes: %v; drain took %d clock units over %d sessions", outcomes, stats.Duration, stats.Sessions)
}

// TestDrainUnderFire shuts down while submitters are still pounding the
// scheduler and chaos is active: the drain must complete, every submit
// must resolve (ok or shed, never hang), and accounting must stay
// exact.
func TestDrainUnderFire(t *testing.T) {
	const sessions = 64
	s := newTestScheduler(t, Config{
		MaxSessions:   sessions,
		ChaosRate:     8,
		DrainDeadline: 1 << 40,
	})
	if err := s.Start(4); err != nil {
		t.Fatal(err)
	}
	sids := make([]int64, sessions)
	for i := range sids {
		var err error
		sids[i], err = s.CreateSession(TenantConfig{Tenant: "fire"})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const submitters = 16
	wg.Add(submitters)
	start := make(chan struct{})
	for w := 0; w < submitters; w++ {
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < 20; r++ {
				if _, err := s.Submit(sids[(w*7+r)%sessions], simnet.UniformRandom(s.g.N(), 16, int64(w*100+r))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	close(start)
	// Shut down immediately — most submits race the drain.
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	tn := s.Tenant("fire")
	if got := tn.delivered.Value() + tn.dropped.Value() + tn.shed.Value(); got != tn.offered.Value() {
		t.Fatalf("accounting %d != offered %d after drain under fire", got, tn.offered.Value())
	}
	if tn.offered.Value() != submitters*20*16 {
		t.Fatalf("offered %d, want %d", tn.offered.Value(), submitters*20*16)
	}
}

// waitForGoroutines polls until no more than want goroutines run: an
// exited goroutine may take a moment to leave the count, a leaked one
// never does.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the drain, %d before Start", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// itoa2 is a tiny zero-dependency int formatter for tenant names.
func itoa2(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
