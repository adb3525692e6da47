package simnet

// Run budgets. Each is computed here and nowhere else: the cycle budget
// and the hold budget by one function each, shared by the plain engine
// and the fault loop, and the TTL and retry ladder of the fault loop as
// fixed constants. Everything is pure arithmetic on the run's own state
// — no clocks, no randomness — so seeded runs stay byte-identical.

// The retry ladder of the fault loop: a packet that finds no live useful
// out-arc is requeued up to maxRetries times, retry k waiting
// backoffBase<<(k-1) cycles capped at backoffCap, and then dropped.
const (
	maxRetries  = 8
	backoffBase = 1
	backoffCap  = 64
)

// backoff returns the delay in cycles before retry attempt (1-based).
func backoff(attempt int) int {
	return min(backoffBase<<(attempt-1), backoffCap)
}

// ttl is the per-packet hop budget of the fault loop: 4·diameter+8, or
// 2n when the digraph is not strongly connected.
func (nw *Network) ttl() int {
	if d := nw.diameter(); d >= 0 {
		return 4*d + 8
	}
	return 2 * nw.g.N()
}

// cycleBudget is a run of pkts packets' cycle bound: the run's own (a
// load sweep's), else the Network's (WithMaxCycles), else a generous
// 64·n·HopLatency + 16·pkts + 1024, widened for the admission regulator
// to trickle the whole workload in and, on the fault loop (retries), for
// every retry of the backoff ladder to play out.
func (nw *Network) cycleBudget(tun runTuning, pkts int, retries bool) int {
	if tun.budget > 0 {
		return tun.budget
	}
	if nw.cfg.MaxCycles > 0 {
		return nw.cfg.MaxCycles
	}
	budget := nw.defaultBudget(pkts, nw.cfg.HopLatency)
	if retries {
		budget += maxRetries * backoffCap
	}
	if tun.admit != nil {
		budget += int(float64(pkts)/tun.admit.rate) + tun.admit.maxDelay
	}
	return budget
}

// defaultBudget is the generous cycle bound of a network with no
// MaxCycles.
func (nw *Network) defaultBudget(pkts, hopLatency int) int {
	return 64*nw.g.N()*hopLatency + 16*pkts + 1024
}

// withDefaults resolves the hold budget a queue bound implies:
// 4·qcap+16 hold-in-place cycles per packet unless the run set one.
func (t runTuning) withDefaults() runTuning {
	if t.qcap > 0 && t.hold < 1 {
		t.hold = 4*t.qcap + 16
	}
	return t
}
