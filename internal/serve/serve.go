// Package serve is the multi-tenant session service layer: a concurrent
// scheduler hosting many long-lived self-healing simulation sessions
// over ONE shared compiled simnet.Network. It is the "millions of
// users" surface of the ROADMAP — where the batch-shaped simulators
// (one caller, one Run, exit) become a long-lived process that stays
// correct and bounded while tenants churn, faults fire continuously and
// offered load exceeds capacity.
//
// The shape:
//
//   - a Session wraps a persistent simnet.SelfHealing state — the
//     session clock, epoch routing and event log survive across requests,
//     so every tenant lives in the converged self-healed regime of its
//     own chaos history. SelfHealing is not thread-safe; the scheduler
//     serializes each session's requests while running any number of
//     sessions concurrently (the Network itself is safe for concurrent
//     runs via pooled arenas and shared read-only slabs);
//   - every session is born with a chaos fault plan (the PR 5 chaos
//     smoke, always-on): seeded, session-absolute faults at a
//     configurable rate, so background failure is the steady state, not
//     a test mode;
//   - per-tenant admission control (token bucket over the injected
//     clock) and per-session bounded queues with exact shed accounting:
//     every offered packet ends in exactly one of Delivered, Dropped or
//     Shed — Delivered+Dropped+Shed == Offered per tenant, per session
//     and in aggregate, including across graceful drain;
//   - per-tenant obs.Registry (expvar-publishable — registries are
//     namespaced by name and rebindable, so tenant churn cannot panic
//     the process) and an SLO_report/v1 JSON document with p99 latency,
//     delivered fraction and shed fraction per tenant.
//
// Scheduling is a ready-list of sessions served by a bounded worker
// pool. A session is on the ready list iff it has queued requests and
// no worker is serving it (the scheduled bit); workers drain a
// session's queue completely before releasing it, so per-session FIFO
// order holds and no session can be served by two workers at once.
//
// The package never reads the wall clock (the determinism analyzer
// forbids it outside cmd/*): time enters through Config.Now, which
// cmd/serve wires to time.Now and tests wire to fake clocks.
package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/digraph"
	"repro/internal/simnet"
)

// Config tunes a Scheduler. The zero value selects workable defaults
// for every field.
type Config struct {
	// MaxSessions bounds the live (created and not closed) sessions
	// (0: 4096). CreateSession refuses beyond the bound — session-table
	// admission control, the overload answer at the control plane.
	MaxSessions int
	// QueueDepth bounds each session's pending-request queue (0: 16).
	// A full queue sheds at submit with cause ShedQueueFull.
	QueueDepth int
	// DrainDeadline is the shutdown budget in clock units (Config.Now
	// deltas; nanoseconds under the real clock). Shutdown always drains
	// completely — in-flight runs finish, queued requests shed — but
	// reports an error if draining overran the deadline (0: no
	// deadline).
	DrainDeadline int64
	// ChaosRate is the background fault intensity: expected faults per
	// 1000 session cycles over each session's chaos horizon (0: 2; < 0:
	// chaos off). Faults are transient (bounded duration), so sessions
	// degrade and recover forever instead of decaying monotonically.
	ChaosRate float64
	// ChaosHorizon is how many session-absolute cycles of chaos each
	// session's plan covers (0: 65536).
	ChaosHorizon int
	// ChaosSeed seeds the per-session chaos streams; session i draws
	// from seed ChaosSeed+i, so plans are deterministic per scheduler
	// configuration (0: 1).
	ChaosSeed int64
	// Now is the clock: a monotonically non-decreasing tick count,
	// nanoseconds when wired to time.Now().UnixNano. When nil the
	// scheduler uses an internal logical clock advancing 1000 units per
	// reading — deterministic, which keeps library tests and the SLO
	// golden reproducible.
	Now func() int64
	// ExpvarPrefix, when non-empty, publishes every tenant's registry
	// as expvar "<prefix>_<tenant>" (rebind-safe across tenant churn).
	ExpvarPrefix string
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.ChaosRate == 0 {
		c.ChaosRate = 2
	}
	if c.ChaosHorizon <= 0 {
		c.ChaosHorizon = 1 << 16
	}
	if c.ChaosSeed == 0 {
		c.ChaosSeed = 1
	}
	return c
}

// DrainStats reports how a Shutdown went. Accounting never leaks:
// queued requests were shed (counted per tenant), in-flight runs
// completed.
type DrainStats struct {
	// Duration is the drain time in clock units.
	Duration int64
	// Sessions is the number of live sessions drained.
	Sessions int
}

// Scheduler is the concurrent session service. Create with New, start
// workers with Start, then CreateSession/Submit from any number of
// goroutines; Shutdown drains gracefully. All methods are safe for
// concurrent use.
type Scheduler struct {
	nw  *simnet.Network
	g   *digraph.Digraph
	cfg Config

	// gate is the accept gate: Submit holds it for reading across the
	// draining check and the enqueue, Shutdown holds it for writing to
	// flip draining — so no request can be half-enqueued when the drain
	// begins, which is what makes the drain accounting exact.
	gate     sync.RWMutex
	draining atomic.Bool
	started  atomic.Bool

	mu       sync.Mutex
	sessions map[int64]*Session // guarded by mu
	tenants  map[string]*Tenant // guarded by mu
	nextSID  int64              // guarded by mu
	live     int                // guarded by mu

	readyMu sync.Mutex
	readyQ  []*Session // guarded by readyMu
	stopped bool       // guarded by readyMu
	readyC  *sync.Cond

	wg   sync.WaitGroup
	tick atomic.Int64 // fallback logical clock when cfg.Now is nil
}

// New builds a scheduler over its own compiled Network for g, routed as
// simnet.NewNetwork chooses (AutoRouting).
func New(g *digraph.Digraph, cfg Config) (*Scheduler, error) {
	if g == nil {
		return nil, fmt.Errorf("serve: nil digraph")
	}
	nw, err := simnet.NewNetwork(g)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		nw:       nw,
		g:        g,
		cfg:      cfg.withDefaults(),
		sessions: map[int64]*Session{},
		tenants:  map[string]*Tenant{},
	}
	s.readyC = sync.NewCond(&s.readyMu)
	return s, nil
}

// Network returns the shared compiled network (for direct RunOpts
// traffic next to the session service — the Network is safe for
// concurrent runs).
func (s *Scheduler) Network() *simnet.Network { return s.nw }

// now reads the injected clock, or the deterministic fallback.
func (s *Scheduler) now() int64 {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return s.tick.Add(1000)
}

// Start spawns the worker pool. workers bounds the concurrent session
// runs (values < 1 are raised to 1). Start may be called once.
func (s *Scheduler) Start(workers int) error {
	if workers < 1 {
		workers = 1
	}
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("serve: scheduler already started")
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return nil
}

// worker serves ready sessions until shutdown empties the ready list.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.readyMu.Lock()
		for len(s.readyQ) == 0 && !s.stopped {
			s.readyC.Wait()
		}
		if len(s.readyQ) == 0 {
			// stopped and nothing left: every queue is empty (a session
			// with queued requests always holds a ready entry or an
			// active server).
			s.readyMu.Unlock()
			return
		}
		sess := s.readyQ[0]
		s.readyQ = s.readyQ[1:]
		s.readyMu.Unlock()
		s.serveSession(sess)
	}
}

// serveSession drains one session's queue. The session's scheduled bit
// is true for the whole time (set by the Submit that enqueued it), so
// no other worker can enter; the re-check after clearing it closes the
// race against a Submit that enqueued between "queue empty" and the
// Store.
func (s *Scheduler) serveSession(sess *Session) {
	for {
		for {
			select {
			case req := <-sess.queue:
				s.execute(sess, req)
			default:
				goto drained
			}
		}
	drained:
		sess.scheduled.Store(false)
		if len(sess.queue) == 0 || !sess.scheduled.CompareAndSwap(false, true) {
			return
		}
	}
}

// notify puts a session on the ready list. Callers must have won the
// scheduled CAS.
func (s *Scheduler) notify(sess *Session) {
	s.readyMu.Lock()
	s.readyQ = append(s.readyQ, sess)
	s.readyMu.Unlock()
	s.readyC.Signal()
}

// CreateSession opens a persistent self-healing session for the tenant
// named in tc, with its own always-on chaos plan, and returns the
// session ID. The first session of a tenant creates the tenant record
// (registry, admission bucket); later sessions share it — tc's tenant-
// level knobs are read only on that first call.
func (s *Scheduler) CreateSession(tc TenantConfig) (int64, error) {
	if tc.Tenant == "" {
		return 0, fmt.Errorf("serve: TenantConfig.Tenant must be non-empty")
	}
	if err := tc.validate(); err != nil {
		return 0, err
	}
	if s.draining.Load() {
		return 0, fmt.Errorf("serve: scheduler is draining")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live >= s.cfg.MaxSessions {
		return 0, fmt.Errorf("serve: session table full (%d live sessions)", s.live)
	}
	t := s.tenants[tc.Tenant]
	if t == nil {
		t = newTenant(tc)
		s.tenants[tc.Tenant] = t
		if s.cfg.ExpvarPrefix != "" {
			t.reg.PublishExpvar(s.cfg.ExpvarPrefix + "_" + tc.Tenant)
		}
	}
	sid := s.nextSID
	s.nextSID++

	// Always-on chaos: a seeded, session-absolute fault plan covering
	// the session's chaos horizon. Deterministic per (seed, session).
	var plan *simnet.FaultPlan
	faults := 0
	if s.cfg.ChaosRate > 0 {
		rng := rand.New(rand.NewSource(s.cfg.ChaosSeed + sid))
		plan, faults = chaosPlan(rng, s.g, s.cfg.ChaosRate, s.cfg.ChaosHorizon)
	} else {
		plan = simnet.NewFaultPlanFor(s.g)
	}
	heal, err := s.nw.SelfHeal(plan, simnet.HealConfig{QueueCapacity: tc.QueueCapacity, HoldBudget: tc.HoldBudget})
	if err != nil {
		return 0, err
	}
	sess := &Session{
		id:     sid,
		tenant: t,
		heal:   heal,
		queue:  make(chan *request, s.cfg.QueueDepth),
	}
	s.sessions[sid] = sess
	s.live++
	t.sessionDelta(1)
	t.chaosFaults.Add(int64(faults))
	return sid, nil
}

// CloseSession stops a session accepting work and frees its slot in
// the session table. Queued requests are shed with cause ShedClosed;
// the tenant's accounting stays exact. The session's metrics remain in
// its tenant's registry.
func (s *Scheduler) CloseSession(sid int64) error {
	s.mu.Lock()
	sess := s.sessions[sid]
	s.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("serve: no session %d", sid)
	}
	// Wake the session so a worker sheds anything still queued.
	if s.markClosed(sess) && sess.scheduled.CompareAndSwap(false, true) {
		s.notify(sess)
	}
	return nil
}

// markClosed closes sess and frees its session-table slot, reporting
// whether this call closed it.
func (s *Scheduler) markClosed(sess *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed.Swap(true) {
		return false
	}
	s.live--
	sess.tenant.sessionDelta(-1)
	return true
}

// Submit offers a workload to a session and blocks until the request
// completed or was shed. The returned Outcome always accounts every
// packet: either a HealResult (Delivered+Dropped == offered) or a shed
// with its cause. The error is non-nil only for unknown sessions and
// misuse — an empty workload, or a packet whose Src or Dst lies outside
// the network's nodes, refused before anything is offered; load-induced
// refusals are Outcomes, not errors.
func (s *Scheduler) Submit(sid int64, pkts []simnet.Packet) (Outcome, error) {
	if !s.started.Load() {
		return Outcome{}, fmt.Errorf("serve: scheduler not started")
	}
	if len(pkts) == 0 {
		return Outcome{}, fmt.Errorf("serve: empty workload")
	}
	nodes := s.g.N()
	for _, p := range pkts {
		if p.Src < 0 || p.Src >= nodes || p.Dst < 0 || p.Dst >= nodes {
			return Outcome{}, fmt.Errorf("serve: packet %d runs %d→%d, outside the network's nodes [0, %d)", p.ID, p.Src, p.Dst, nodes)
		}
	}
	s.mu.Lock()
	sess := s.sessions[sid]
	s.mu.Unlock()
	if sess == nil {
		return Outcome{}, fmt.Errorf("serve: no session %d", sid)
	}
	t := sess.tenant
	n := len(pkts)
	t.offered.Add(int64(n))
	now := s.now()

	s.gate.RLock()
	if s.draining.Load() {
		s.gate.RUnlock()
		return t.shedOutcome(ShedDraining, n), nil
	}
	if sess.closed.Load() {
		s.gate.RUnlock()
		return t.shedOutcome(ShedClosed, n), nil
	}
	if t.bucket != nil && !t.bucket.take(now, n) {
		s.gate.RUnlock()
		return t.shedOutcome(ShedAdmission, n), nil
	}
	req := &request{pkts: pkts, submitted: now, done: make(chan Outcome, 1)}
	if t.timeout > 0 {
		req.deadline = now + t.timeout
	}
	select {
	case sess.queue <- req:
	default:
		s.gate.RUnlock()
		return t.shedOutcome(ShedQueueFull, n), nil
	}
	if sess.scheduled.CompareAndSwap(false, true) {
		s.notify(sess)
	}
	s.gate.RUnlock()
	return <-req.done, nil
}

// execute runs one request on its session (the calling worker owns the
// session). Shed decisions repeat here because draining, closing or the
// deadline may have arrived while the request sat queued.
func (s *Scheduler) execute(sess *Session, req *request) {
	t := sess.tenant
	n := len(req.pkts)
	now := s.now()
	switch {
	case s.draining.Load():
		req.done <- t.shedOutcome(ShedDraining, n)
		return
	case sess.closed.Load():
		req.done <- t.shedOutcome(ShedClosed, n)
		return
	case req.deadline > 0 && now > req.deadline:
		t.deadlineMiss.Add(1)
		req.done <- t.shedOutcome(ShedDeadline, n)
		return
	}

	// Bounded retries: a failed Run (config/plan errors surfacing late)
	// is retried up to the tenant's budget; what the failed attempts
	// already accounted stays counted, the remainder sheds as
	// ShedFailed so the tenant invariant survives even errors.
	var hr simnet.HealResult
	var err error
	for attempt := 0; ; attempt++ {
		var crash any
		hr, crash, err = runRecovered(sess.heal, req.pkts)
		if crash != nil {
			// The run stopped partway through the session's healing
			// state, and none of its packets were counted: shed them
			// all, and close the session rather than run on torn state.
			s.markClosed(sess)
			out := t.shedOutcome(ShedFailed, n)
			out.Err = fmt.Sprintf("serve: session %d: run panicked: %v", sess.id, crash)
			req.done <- out
			return
		}
		if err == nil || attempt >= t.maxRetries {
			break
		}
		t.runRetries.Add(1)
	}
	end := s.now()

	t.runs.Add(1)
	t.delivered.Add(int64(hr.Delivered))
	t.dropped.Add(int64(hr.Dropped))
	t.nacks.Add(int64(hr.Nacks))
	t.detections.Add(int64(hr.Detections))
	t.repairs.Add(int64(hr.Repairs))
	t.healEvents.Add(int64(hr.EventsCommitted))
	lat := end - req.submitted
	t.latency.Observe(lat / 1000)
	if req.deadline > 0 && end > req.deadline {
		t.deadlineMiss.Add(1)
	}

	sess.mu.Lock()
	sess.runs++
	sess.lastCycle = sess.heal.Cycle()
	sess.lastEpoch = sess.heal.Epoch()
	sess.converged = sess.heal.Converged()
	sess.mu.Unlock()

	out := Outcome{Status: StatusOK, Heal: hr, LatencyNS: lat}
	if err != nil {
		// Partial accounting from the failed attempt is already in
		// Delivered/Dropped; shed the remainder.
		rest := n - hr.Delivered - hr.Dropped
		if rest < 0 {
			rest = 0
		}
		out = t.shedOutcome(ShedFailed, rest)
		out.Heal = hr
		out.Err = err.Error()
	}
	req.done <- out
}

// runRecovered runs pkts on heal and turns a panic into its value, so
// one failing session cannot take down the worker serving every other.
func runRecovered(heal *simnet.SelfHealing, pkts []simnet.Packet) (hr simnet.HealResult, crash any, err error) {
	defer func() { crash = recover() }()
	hr, err = heal.Run(pkts)
	return hr, nil, err
}

// Shutdown drains the scheduler: no new work is accepted, in-flight
// runs complete, queued requests shed with cause ShedDraining, workers
// exit. It reports the drain duration against Config.DrainDeadline —
// the drain itself always completes (runs are cycle-bounded), only the
// deadline verdict varies. Shutdown is not idempotent; call it once.
func (s *Scheduler) Shutdown() (DrainStats, error) {
	start := s.now()
	s.gate.Lock()
	already := s.draining.Swap(true)
	s.gate.Unlock()
	if already {
		return DrainStats{}, fmt.Errorf("serve: already shut down")
	}
	s.readyMu.Lock()
	s.stopped = true
	s.readyMu.Unlock()
	s.readyC.Broadcast()
	s.wg.Wait()
	stats := DrainStats{Duration: s.now() - start}
	s.mu.Lock()
	stats.Sessions = s.live
	s.mu.Unlock()
	if dl := s.cfg.DrainDeadline; dl > 0 && stats.Duration > dl {
		return stats, fmt.Errorf("serve: drain took %d, deadline %d", stats.Duration, dl)
	}
	return stats, nil
}
