package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/digraph"
)

// Runtime fault injection. The paper's machines are built from physical
// optics — VCSELs, lenses, lenslet arrays — hardware that degrades and
// fails while the machine is running. The static fault experiments
// (delete arcs, rebuild, re-route) only show that the residual graph is
// usable; this engine models faults as *events on the running network*:
// a FaultPlan schedules link, node and lens faults at given cycles, and
// a fault run (RunOpts with WithFaults) applies them mid-flight without
// rebuilding the digraph. A lens fault is the OTIS-specific correlated
// failure: one lens carries a whole group of beams (arcs), computed by
// the otis layer, and all of them die together.

// FaultKind classifies scheduled faults.
type FaultKind int

const (
	// FaultLink downs a single directed link (one arc of the digraph).
	FaultLink FaultKind = iota
	// FaultNode downs a node: every arc entering or leaving it, and the
	// node neither forwards nor absorbs packets while down.
	FaultNode
	// FaultLens downs a correlated arc group — the beams routed through
	// one physical lens of an OTIS layout (see otis.Layout.LensArcs).
	FaultLens
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultLink:
		return "link"
	case FaultNode:
		return "node"
	case FaultLens:
		return "lens"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Arc identifies one directed link as (tail vertex, adjacency position).
// Position — not head vertex — because the digraphs are multigraphs and
// the simulator's queues and pipelines are per-position.
type Arc struct {
	Tail  int
	Index int
}

// Fault is one scheduled failure.
type Fault struct {
	Kind FaultKind
	// Start is the first cycle at which the fault is active.
	Start int
	// Duration is the number of cycles the fault lasts; <= 0 means
	// permanent.
	Duration int
	// Arc is the failed link (FaultLink).
	Arc Arc
	// Node is the failed node (FaultNode).
	Node int
	// Lens labels the failed lens (FaultLens); informational.
	Lens int
	// Arcs is the expanded arc group of a lens fault (FaultLens).
	Arcs []Arc
}

// Permanent reports whether the fault never heals.
func (f Fault) Permanent() bool { return f.Duration <= 0 }

// String renders e.g. "link (5#1) down @12 for 30" or "lens 3 down @0 permanently".
func (f Fault) String() string {
	dur := "permanently"
	if !f.Permanent() {
		dur = fmt.Sprintf("for %d", f.Duration)
	}
	switch f.Kind {
	case FaultLink:
		return fmt.Sprintf("link (%d#%d) down @%d %s", f.Arc.Tail, f.Arc.Index, f.Start, dur)
	case FaultNode:
		return fmt.Sprintf("node %d down @%d %s", f.Node, f.Start, dur)
	case FaultLens:
		return fmt.Sprintf("lens %d (%d arcs) down @%d %s", f.Lens, len(f.Arcs), f.Start, dur)
	}
	return fmt.Sprintf("%v down @%d %s", f.Kind, f.Start, dur)
}

// FaultPlan schedules faults against a run. The zero value (and nil) is
// the empty plan. A plan built with NewFaultPlanFor validates every
// fault as it is added; a plain NewFaultPlan plan is validated when it
// is compiled against a digraph.
type FaultPlan struct {
	faults []Fault
	g      *digraph.Digraph // bound digraph for eager validation (may be nil)
	err    error            // first validation error, reported by Err and Compile
}

// NewFaultPlan returns an empty plan. Faults are validated when the
// plan is compiled (Compile reports the first invalid fault).
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// NewFaultPlanFor returns an empty plan bound to g: every builder call
// validates its fault against g immediately, and the first invalid
// fault is reported by Err (and again by Compile) with a descriptive
// error instead of surfacing mid-run. Subsequent faults after an error
// are still recorded so Err describes the first mistake, not the last.
func NewFaultPlanFor(g *digraph.Digraph) *FaultPlan { return &FaultPlan{g: g} }

// Err returns the first validation error recorded so far. Bound plans
// (NewFaultPlanFor) validate every field eagerly; unbound plans check
// only graph-independent fields (start, duration) here and defer the
// rest to Compile.
func (p *FaultPlan) Err() error {
	if p == nil {
		return nil
	}
	return p.err
}

// add records the fault, eagerly validating against the bound digraph.
func (p *FaultPlan) add(f Fault) *FaultPlan {
	p.faults = append(p.faults, f)
	if p.err == nil {
		if err := validateFault(f, p.g); err != nil {
			p.err = err
		}
	}
	return p
}

// validateFault checks one fault's fields. g may be nil (unbound plan),
// in which case only graph-independent fields are checked.
func validateFault(f Fault, g *digraph.Digraph) error {
	if f.Start < 0 {
		return fmt.Errorf("simnet: %v: start cycle %d < 0", f.Kind, f.Start)
	}
	if f.Duration < 0 {
		return fmt.Errorf("simnet: %v: duration %d < 0 (use 0 for a permanent fault)", f.Kind, f.Duration)
	}
	if g == nil {
		return nil
	}
	n := g.N()
	checkArc := func(a Arc) error {
		if a.Tail < 0 || a.Tail >= n {
			return fmt.Errorf("simnet: %v: arc tail %d out of range [0,%d)", f.Kind, a.Tail, n)
		}
		if a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return fmt.Errorf("simnet: %v: arc (%d#%d) out of range (node %d has %d out-arcs)",
				f.Kind, a.Tail, a.Index, a.Tail, g.OutDegree(a.Tail))
		}
		return nil
	}
	switch f.Kind {
	case FaultLink:
		return checkArc(f.Arc)
	case FaultNode:
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("simnet: %v: node %d out of range [0,%d)", f.Kind, f.Node, n)
		}
	case FaultLens:
		if f.Lens < 0 {
			return fmt.Errorf("simnet: %v: lens %d < 0", f.Kind, f.Lens)
		}
		for _, a := range f.Arcs {
			if err := checkArc(a); err != nil {
				return fmt.Errorf("%w (lens %d)", err, f.Lens)
			}
		}
	}
	return nil
}

// LinkDown schedules the arc at (tail, index) to fail at cycle start for
// duration cycles (0: permanent).
func (p *FaultPlan) LinkDown(start, duration, tail, index int) *FaultPlan {
	return p.add(Fault{Kind: FaultLink, Start: start, Duration: duration,
		Arc: Arc{Tail: tail, Index: index}})
}

// NodeDown schedules node to fail at cycle start for duration cycles
// (0: permanent).
func (p *FaultPlan) NodeDown(start, duration, node int) *FaultPlan {
	return p.add(Fault{Kind: FaultNode, Start: start, Duration: duration, Node: node})
}

// LensDown schedules a lens fault: the given arc group (typically from
// otis.Layout.LensArcs, mapped to (tail, index) pairs) fails together at
// cycle start for duration cycles (0: permanent). lens is a label for
// reporting.
func (p *FaultPlan) LensDown(start, duration, lens int, arcs []Arc) *FaultPlan {
	group := make([]Arc, len(arcs))
	copy(group, arcs)
	return p.add(Fault{Kind: FaultLens, Start: start, Duration: duration,
		Lens: lens, Arcs: group})
}

// Faults returns the scheduled faults in insertion order.
func (p *FaultPlan) Faults() []Fault {
	if p == nil {
		return nil
	}
	out := make([]Fault, len(p.faults))
	copy(out, p.faults)
	return out
}

// span is a half-open down interval [start, end); end < 0 means forever.
type span struct {
	start, end int
}

func (s span) contains(cycle int) bool {
	return cycle >= s.start && (s.end < 0 || cycle < s.end)
}

// FaultState is a compiled FaultPlan bound to a digraph: per-arc and
// per-node down intervals, with a current-cycle cursor the run loop
// advances. The intervals are one list per kind, keyed by flat arc (the
// simulator's arcBase[tail]+index layout) or node and sorted by key, each
// key's spans in plan order: one entry per faulted arc or node, with no
// per-arc offset slab and no hashing. A version counter over the set of
// *active permanent* faults tells routers when to recompute residual
// paths.
//
// On top of the spans sits the fault view of the current cycle: a bitmap
// of the arcs down now, one of the nodes down now, and the permanent
// version now. Which spans contain a cycle changes only at a span's
// start or end, so the view holds over the whole window between the two
// boundaries around the cycle, and Advance rebuilds it only when the
// cycle leaves that window (in either direction). ArcDown, NodeDown and
// PermanentVersion answer from it with one bit test or one field read.
type FaultState struct {
	arcBase   []int32 // arcBase[u]: flat index of node u's first out-arc
	arcSpans  []flatSpan
	nodeSpans []flatSpan
	// permStarts holds the start cycles of permanent arc faults, sorted;
	// PermanentVersion is the count of starts <= current cycle.
	permStarts []int
	cycle      int

	// bounds holds the distinct span starts and ends, sorted: where the
	// views change.
	bounds []int
	// The view of cycle: arcDown bit f ⇔ flat arc f is down, nodeDown bit
	// u ⇔ a node fault is active on u (each nil when no span of its kind
	// exists), and version the permanent version. It is valid for every
	// cycle in [viewLo, viewHi).
	arcDown, nodeDown []uint64
	version           int
	viewLo, viewHi    int
}

// flatSpan is one compiled down interval keyed by its flat arc or node
// index.
type flatSpan struct {
	key int
	sp  span
}

// Compile validates the plan against g and expands node and lens faults
// to their arc groups: a node fault downs all out-arcs and in-arcs of
// the node, a lens fault downs its listed group.
func (p *FaultPlan) Compile(g *digraph.Digraph) (*FaultState, error) {
	return p.compile(g, arcBaseOf(g))
}

// compile is Compile on g's CSR index arcBase (arcBaseOf(g)), which the
// state shares and never writes: a Network compiles on its own.
func (p *FaultPlan) compile(g *digraph.Digraph, arcBase []int32) (*FaultState, error) {
	st := &FaultState{cycle: -1, viewLo: math.MinInt, viewHi: math.MaxInt}
	if p == nil {
		return st, nil
	}
	if p.err != nil {
		return nil, p.err
	}
	n := g.N()
	st.arcBase = arcBase
	addArc := func(a Arc, sp span) error {
		if a.Tail < 0 || a.Tail >= n || a.Index < 0 || a.Index >= g.OutDegree(a.Tail) {
			return fmt.Errorf("simnet: fault arc (%d#%d) out of range", a.Tail, a.Index)
		}
		st.arcSpans = append(st.arcSpans, flatSpan{key: int(st.arcBase[a.Tail]) + a.Index, sp: sp})
		if sp.end < 0 {
			st.permStarts = append(st.permStarts, sp.start)
		}
		return nil
	}
	for _, f := range p.faults {
		if err := validateFault(f, g); err != nil {
			return nil, err
		}
		sp := span{start: f.Start, end: -1}
		if !f.Permanent() {
			sp.end = f.Start + f.Duration
		}
		switch f.Kind {
		case FaultLink:
			if err := addArc(f.Arc, sp); err != nil {
				return nil, err
			}
		case FaultNode:
			if f.Node < 0 || f.Node >= n {
				return nil, fmt.Errorf("simnet: fault node %d out of range [0,%d)", f.Node, n)
			}
			st.nodeSpans = append(st.nodeSpans, flatSpan{key: f.Node, sp: sp})
			for k := 0; k < g.OutDegree(f.Node); k++ {
				if err := addArc(Arc{Tail: f.Node, Index: k}, sp); err != nil {
					return nil, err
				}
			}
			for u := 0; u < n; u++ {
				for k, v := range g.Out(u) {
					if v == f.Node && u != f.Node {
						if err := addArc(Arc{Tail: u, Index: k}, sp); err != nil {
							return nil, err
						}
					}
				}
			}
		case FaultLens:
			for _, a := range f.Arcs {
				if err := addArc(a, sp); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("simnet: unknown fault kind %v", f.Kind)
		}
	}
	byKey := func(a, b flatSpan) int { return cmp.Compare(a.key, b.key) }
	slices.SortStableFunc(st.arcSpans, byKey)
	slices.SortStableFunc(st.nodeSpans, byKey)
	sort.Ints(st.permStarts)
	if len(st.arcSpans) > 0 {
		st.arcDown = make([]uint64, (g.M()+63)/64)
	}
	if len(st.nodeSpans) > 0 {
		st.nodeDown = make([]uint64, (n+63)/64)
	}
	for _, spans := range [][]flatSpan{st.arcSpans, st.nodeSpans} {
		for _, e := range spans {
			st.bounds = append(st.bounds, e.sp.start)
			if e.sp.end >= 0 {
				st.bounds = append(st.bounds, e.sp.end)
			}
		}
	}
	slices.Sort(st.bounds)
	st.bounds = slices.Compact(st.bounds)
	st.rebuildView()
	return st, nil
}

// Empty reports whether no fault is scheduled.
func (s *FaultState) Empty() bool {
	return s == nil || (len(s.arcSpans) == 0 && len(s.nodeSpans) == 0)
}

// Advance sets the current cycle, rebuilding the fault view when the
// cycle leaves the window the view holds over.
func (s *FaultState) Advance(cycle int) {
	s.cycle = cycle
	if cycle < s.viewLo || cycle >= s.viewHi {
		s.rebuildView()
	}
}

// rebuildView recomputes the view at s.cycle from the spans and the
// window [viewLo, viewHi) between the span boundaries around it: the
// bitmaps' words plus the spans, not all M arcs.
func (s *FaultState) rebuildView() {
	c := s.cycle
	markDown(s.arcDown, s.arcSpans, c)
	markDown(s.nodeDown, s.nodeSpans, c)
	s.version = sort.SearchInts(s.permStarts, c+1)
	k := sort.SearchInts(s.bounds, c+1) // bounds[k-1] <= c < bounds[k]
	s.viewLo, s.viewHi = math.MinInt, math.MaxInt
	if k > 0 {
		s.viewLo = s.bounds[k-1]
	}
	if k < len(s.bounds) {
		s.viewHi = s.bounds[k]
	}
}

// markDown sets exactly the bits of the keys with a span containing
// cycle.
func markDown(bits []uint64, spans []flatSpan, cycle int) {
	clearBits(bits)
	for _, e := range spans {
		if e.sp.contains(cycle) {
			bits[e.key>>6] |= 1 << (uint(e.key) & 63)
		}
	}
}

// ArcDown reports whether the arc at (tail, index) is down at the
// current cycle: one bit test of the view.
func (s *FaultState) ArcDown(tail, index int) bool {
	if s == nil || s.arcDown == nil || tail < 0 || tail+1 >= len(s.arcBase) || index < 0 {
		return false
	}
	f := int(s.arcBase[tail]) + index
	return f < int(s.arcBase[tail+1]) && s.arcDown[f>>6]&(1<<(uint(f)&63)) != 0
}

// NodeDown reports whether a node fault is active on node at the current
// cycle. (Arc faults touching the node are reported by ArcDown, not
// here.)
func (s *FaultState) NodeDown(node int) bool {
	if s == nil || node < 0 || node>>6 >= len(s.nodeDown) {
		return false
	}
	return s.nodeDown[node>>6]&(1<<(uint(node)&63)) != 0
}

// permanentlyDown lists the arcs a permanent fault active at the current
// cycle holds down, in ascending (tail, index) order: one walk of the
// faulted arcs' spans, not of all M arcs.
func (s *FaultState) permanentlyDown() []Arc {
	var down []Arc
	last := -1
	for _, e := range s.arcSpans {
		if e.key == last || e.sp.end >= 0 || s.cycle < e.sp.start {
			continue
		}
		last = e.key
		tail := sort.Search(len(s.arcBase)-1, func(u int) bool { return int(s.arcBase[u+1]) > e.key })
		down = append(down, Arc{Tail: tail, Index: e.key - int(s.arcBase[tail])})
	}
	return down
}

// PermanentVersion counts the permanent arc faults active at the current
// cycle. Routers cache residual shortest paths keyed by this version:
// it only changes when a new permanent fault activates.
func (s *FaultState) PermanentVersion() int {
	if s == nil {
		return 0
	}
	return s.version
}
