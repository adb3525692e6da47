package simnet

import (
	"repro/internal/digraph"
)

// Fault-aware routing. The de Bruijn digraph promises λ = d−1 arc-
// disjoint paths between every pair (claim X-CONN); this router turns
// that structural redundancy into runtime behaviour. Decisions depend on
// which faults are active:
//
//   - No fault: the primary router's arc, untouched.
//   - Transient faults only: the primary arc if it is up, else a
//     deflection onto the best live alternate out-arc ranked by
//     fault-free distance — the d−1 arc-disjoint alternatives every de
//     Bruijn node offers. Transients heal, so a locally-greedy dodge
//     (bounded by the run loop's TTL and retry budget) is enough. The
//     primary router answers the distance (distSource): in closed form
//     under shift routing, by a walk of its slab under a table.
//   - Permanent faults active: exact shortest paths of the residual
//     digraph — the "rebuild the tables" a control plane does. Local
//     dodging is NOT enough here: a fault-blind primary path can lead
//     over live arcs into a region silenced downstream (a lens fault
//     turns whole node blocks into sinks), so the router must be
//     path-aware, not arc-aware. It routes by residual columns
//     (column.go), kept until another permanent fault activates.
//     Transient faults on top of permanent ones deflect by residual
//     distance.
//   - -1 when the destination is unreachable or every useful out-arc is
//     down; the run loop answers with bounded retry/backoff and,
//     eventually, a clean drop.
//
// The router never returns a downed arc: that is the invariant the
// property tests check.

// FaultAwareRouter wraps a primary Router with awareness of a FaultState.
type FaultAwareRouter struct {
	g       *digraph.Digraph
	primary Router
	state   *FaultState

	// faultFree ranks deflections when no permanent fault is active by
	// the primary's fault-free distance; the router owns it.
	faultFree distSource
	shift     *DeBruijnRouter

	// res routes around the permanent faults active at version
	// resVersion; it is rebuilt when the version changes.
	res        *residual
	resVersion int
}

// NewFaultAwareRouter builds the router. state may be nil (or empty), in
// which case decisions are exactly the primary's. Deflections rank by
// the primary's own fault-free distance; no all-pairs table is built.
func NewFaultAwareRouter(g *digraph.Digraph, primary Router, state *FaultState) *FaultAwareRouter {
	shift, _ := primary.(*DeBruijnRouter)
	return &FaultAwareRouter{g: g, primary: primary, state: state, faultFree: distSource{g: g, router: primary}, shift: shift}
}

// NextArc implements Router: the cascade above, or -1.
func (r *FaultAwareRouter) NextArc(at, dst int) int {
	if at == dst {
		return -1
	}
	return r.fromPrimary(at, dst, r.primary.NextArc(at, dst))
}

// fromPrimary is the NextArc cascade for at ≠ dst, started from p, the
// primary router's decision for (at, dst) — which the fault engine
// caches per packet instead of asking the primary again.
func (r *FaultAwareRouter) fromPrimary(at, dst, p int) int {
	if r.state.Empty() {
		return p
	}
	up := func(k int) bool { return !r.state.ArcDown(at, k) }
	if r.state.PermanentVersion() == 0 {
		// Transient faults only: primary, else deflect by fault-free
		// distance.
		if p >= 0 && up(p) {
			return p
		}
		return deflect(r.g, at, p, up, func(v int) int32 { return r.faultFree.dist(v, dst) })
	}
	// Permanent faults active: exact residual shortest paths.
	res := r.residual()
	arc := res.route(r.shift, at, dst)
	if arc < 0 {
		return -1 // unreachable under the permanent faults: no arc helps
	}
	hop := r.g.Out(at)[arc]
	for k, v := range r.g.Out(at) {
		if v == hop && up(k) {
			return k
		}
	}
	// The residual arc is transiently down too: deflect by residual
	// distance so the dodge cannot re-enter a silenced region.
	col := res.column(dst)
	return deflect(r.g, at, p, up, func(v int) int32 { return res.walk(col, v, dst) })
}

// residual returns the routing around the permanent faults active now,
// rebuilt when one has activated since the last call.
func (r *FaultAwareRouter) residual() *residual {
	if version := r.state.PermanentVersion(); r.res == nil || version != r.resVersion {
		r.res, r.resVersion = newResidual(r.g, r.state.arcBase, r.state.permanentlyDown()), version
	}
	return r.res
}

// deflect returns the out-arc of at, other than avoid and loops, that up
// accepts and whose head is nearest the destination by dist (the first
// such arc on a tie), or -1 when no such head reaches it.
func deflect(g *digraph.Digraph, at, avoid int, up func(k int) bool, dist func(v int) int32) int {
	best := -1
	bestDist := int32(-1)
	for k, v := range g.Out(at) {
		if k == avoid || v == at || !up(k) {
			continue
		}
		dv := dist(v)
		if dv == digraph.Unreachable {
			continue
		}
		if best < 0 || dv < bestDist {
			best, bestDist = k, dv
		}
	}
	return best
}
