package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// AdmissionConfig is the per-tenant token-bucket source regulator, the
// service-plane face of the PR 7 data-plane admission (which regulates
// per cycle inside a run; this regulates per clock unit across
// requests). Refused packets are shed with cause ShedAdmission.
type AdmissionConfig struct {
	// Rate is the sustained admission rate in packets per second
	// (packets per 1e9 clock units; must be > 0).
	Rate float64
	// Burst is the bucket depth in packets (0: max(1, ⌈Rate⌉)).
	Burst int
}

// TenantConfig names a tenant and carries its knobs. The tenant record
// is created by the tenant's first CreateSession; later sessions share
// it and only the per-session fields (QueueCapacity, HoldBudget) are
// re-read.
type TenantConfig struct {
	// Tenant is the tenant name (required, also the metrics namespace).
	Tenant string
	// Admission, when non-nil, rate-limits the tenant's offered packets
	// across all its sessions.
	Admission *AdmissionConfig
	// QueueCapacity bounds each simulated node's queue inside the
	// tenant's sessions (simnet.WithQueueCapacity semantics; 0:
	// unbounded).
	QueueCapacity int
	// HoldBudget is the per-packet hold-in-place budget under bounded
	// queues (0: simnet default).
	HoldBudget int
	// RequestTimeout is the per-request deadline in clock units
	// (nanoseconds under the real clock). A request not finished by
	// submit+RequestTimeout is shed if still queued, or counted as a
	// deadline miss if it completed late (0: none).
	RequestTimeout int64
	// MaxRetries bounds re-running a request whose Run failed (0: no
	// retry).
	MaxRetries int
}

func (tc TenantConfig) validate() error {
	if tc.Admission != nil && tc.Admission.Rate <= 0 {
		return fmt.Errorf("serve: tenant %q: Admission.Rate must be > 0, got %v", tc.Tenant, tc.Admission.Rate)
	}
	if tc.QueueCapacity < 0 || tc.HoldBudget < 0 || tc.RequestTimeout < 0 || tc.MaxRetries < 0 {
		return fmt.Errorf("serve: tenant %q: negative knob", tc.Tenant)
	}
	return nil
}

// ShedCause says why the service refused packets. Causes are disjoint;
// their per-tenant counters sum to the tenant's Shed total.
type ShedCause int

const (
	// ShedAdmission: the tenant's token bucket refused the packets.
	ShedAdmission ShedCause = iota
	// ShedQueueFull: the session's request queue was full at submit.
	ShedQueueFull
	// ShedDeadline: the request's deadline passed while it was queued.
	ShedDeadline
	// ShedDraining: the scheduler was shutting down.
	ShedDraining
	// ShedClosed: the session was closed.
	ShedClosed
	// ShedFailed: the run errored out after the retry budget, or
	// panicked; the packets the failed run did not account are shed
	// here (all of them after a panic, which also closes the session).
	ShedFailed

	numShedCauses
)

var shedCauseNames = [numShedCauses]string{
	"admission", "queue_full", "deadline", "draining", "closed", "failed",
}

// String returns the cause's snake_case name (the metric suffix).
func (c ShedCause) String() string {
	if c < 0 || c >= numShedCauses {
		return "unknown"
	}
	return shedCauseNames[c]
}

// Outcome statuses.
const (
	// StatusOK: the run completed; Heal carries its result.
	StatusOK = "ok"
	// StatusShed: the service refused the packets; Cause says why.
	StatusShed = "shed"
)

// Outcome is the result of one Submit. Exactly one of the two shapes
// holds: Status "ok" with the HealResult, or Status "shed" with the
// cause and the shed packet count.
type Outcome struct {
	Status string
	// Cause is the shed cause name when Status is "shed".
	Cause string
	// Shed is how many packets were shed (the whole request).
	Shed int
	// Heal is the run's result when Status is "ok" (and carries partial
	// accounting when a failed run shed its remainder).
	Heal simnet.HealResult
	// LatencyNS is submit-to-completion time in clock units.
	LatencyNS int64
	// Err is the run error string after the retry budget, if any.
	Err string
}

// request is one queued Submit.
type request struct {
	pkts      []simnet.Packet
	submitted int64
	deadline  int64 // 0: none
	done      chan Outcome
}

// Session is one persistent self-healing simulation owned by a tenant.
// The embedded SelfHealing is NOT thread-safe: only the one worker that
// holds the session's scheduled bit touches heal, which is what makes
// the scheduler's serialization correct by construction.
type Session struct {
	id     int64
	tenant *Tenant
	heal   *simnet.SelfHealing
	queue  chan *request

	// scheduled is true iff the session is on the ready list or a
	// worker is serving it.
	scheduled atomic.Bool
	closed    atomic.Bool

	mu        sync.Mutex
	runs      int64 // guarded by mu
	lastCycle int   // guarded by mu
	lastEpoch int   // guarded by mu
	converged bool  // guarded by mu
}

// Tenant is the shared record of one tenant: metrics registry, counter
// handles (resolved once), admission bucket and knobs.
type Tenant struct {
	name       string
	bucket     *bucket
	timeout    int64
	maxRetries int

	reg          *obs.Registry
	offered      *obs.Counter
	delivered    *obs.Counter
	dropped      *obs.Counter
	shed         *obs.Counter
	shedBy       [numShedCauses]*obs.Counter
	runs         *obs.Counter
	runRetries   *obs.Counter
	deadlineMiss *obs.Counter
	chaosFaults  *obs.Counter
	nacks        *obs.Counter
	detections   *obs.Counter
	repairs      *obs.Counter
	healEvents   *obs.Counter
	latency      *obs.Histogram
	sessions     *obs.Gauge
	liveSessions atomic.Int64 // mirrored into the sessions gauge
}

// sessionDelta adjusts the tenant's live-session count and its gauge.
func (t *Tenant) sessionDelta(d int64) {
	t.sessions.Set(t.liveSessions.Add(d))
}

func newTenant(tc TenantConfig) *Tenant {
	reg := obs.NewRegistry()
	t := &Tenant{
		name:         tc.Tenant,
		timeout:      tc.RequestTimeout,
		maxRetries:   tc.MaxRetries,
		reg:          reg,
		offered:      reg.Counter("offered"),
		delivered:    reg.Counter("delivered"),
		dropped:      reg.Counter("dropped"),
		shed:         reg.Counter("shed"),
		runs:         reg.Counter("runs"),
		runRetries:   reg.Counter("run_retries"),
		deadlineMiss: reg.Counter("deadline_miss"),
		chaosFaults:  reg.Counter("chaos_faults"),
		nacks:        reg.Counter("heal_nacks"),
		detections:   reg.Counter("heal_detections"),
		repairs:      reg.Counter("heal_repairs"),
		healEvents:   reg.Counter("heal_events"),
		latency:      reg.Histogram("latency_us"),
		sessions:     reg.Gauge("sessions"),
	}
	for c := ShedCause(0); c < numShedCauses; c++ {
		t.shedBy[c] = reg.Counter("shed_" + c.String())
	}
	if tc.Admission != nil {
		t.bucket = newBucket(*tc.Admission)
	}
	return t
}

// Registry returns the tenant's metrics registry.
func (t *Tenant) Registry() *obs.Registry { return t.reg }

// shedOutcome counts n packets shed for cause and builds the Outcome.
func (t *Tenant) shedOutcome(cause ShedCause, n int) Outcome {
	t.shed.Add(int64(n))
	t.shedBy[cause].Add(int64(n))
	return Outcome{Status: StatusShed, Cause: cause.String(), Shed: n}
}

// bucket is the tenant token bucket over the injected clock.
type bucket struct {
	rate  float64 // tokens per 1e9 clock units
	burst float64

	mu     sync.Mutex
	tokens float64 // guarded by mu
	last   int64   // guarded by mu
}

func newBucket(cfg AdmissionConfig) *bucket {
	burst := float64(cfg.Burst)
	if cfg.Burst <= 0 {
		burst = cfg.Rate
		if burst < 1 {
			burst = 1
		}
	}
	return &bucket{rate: cfg.Rate, burst: burst, tokens: burst}
}

// take refills by the elapsed clock and consumes n tokens if available.
func (b *bucket) take(now int64, n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last == 0 {
		b.last = now
	}
	if dt := now - b.last; dt > 0 {
		b.tokens += float64(dt) * b.rate / 1e9
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// SessionStatus is the snapshot one /session/status request sees.
type SessionStatus struct {
	Session int64  `json:"session"`
	Tenant  string `json:"tenant"`
	Closed  bool   `json:"closed"`
	// Runs, Cycle, Epoch and Converged describe the persistent healing
	// state after the session's latest completed run.
	Runs      int64 `json:"runs"`
	Cycle     int   `json:"cycle"`
	Epoch     int   `json:"epoch"`
	Converged bool  `json:"converged"`
	// Queued is the request-queue depth at snapshot time.
	Queued int `json:"queued"`
}

// Status returns a session's snapshot.
func (s *Scheduler) Status(sid int64) (SessionStatus, error) {
	s.mu.Lock()
	sess := s.sessions[sid]
	s.mu.Unlock()
	if sess == nil {
		return SessionStatus{}, fmt.Errorf("serve: no session %d", sid)
	}
	return sess.status(), nil
}

func (sess *Session) status() SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return SessionStatus{
		Session:   sess.id,
		Tenant:    sess.tenant.name,
		Closed:    sess.closed.Load(),
		Runs:      sess.runs,
		Cycle:     sess.lastCycle,
		Epoch:     sess.lastEpoch,
		Converged: sess.converged,
		Queued:    len(sess.queue),
	}
}

// Sessions returns every session's snapshot, sorted by session ID.
func (s *Scheduler) Sessions() []SessionStatus {
	s.mu.Lock()
	list := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	out := make([]SessionStatus, len(list))
	for i, sess := range list {
		out[i] = sess.status()
	}
	return out
}

// Tenant returns a tenant record by name (nil when unknown) — the hook
// for per-tenant expvar or direct registry reads.
func (s *Scheduler) Tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}
