package simnet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/obs"
	"repro/internal/otis"
	"repro/internal/perm"
	"repro/internal/word"
)

// witnessGraph is one digraph the paper proves isomorphic to B(d, D),
// with the shift router that routes it.
type witnessGraph struct {
	name string
	g    *digraph.Digraph
	r    *DeBruijnRouter
	D    int
}

// otisWitness returns the lens-minimizing OTIS layout of B(d, D) and its
// witness router; ok is false when no layout exists.
func otisWitness(t testing.TB, d, D int) (witnessGraph, bool) {
	layout, ok := otis.OptimalLayout(d, D)
	if !ok {
		return witnessGraph{}, false
	}
	h, err := otis.H(layout.P(), layout.Q(), d)
	if err != nil {
		t.Fatal(err)
	}
	label, err := otis.LayoutWitness(d, layout.PPrime, layout.QPrime)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewWitnessRouter(h, label)
	if err != nil {
		t.Fatalf("%v: %v", layout, err)
	}
	return witnessGraph{name: layout.String(), g: h, r: r, D: D}, true
}

// witnessCatalog returns the graphs of the witness-routing gates: the
// OTIS layouts of B(2, D) for D ≤ maxD2 and of B(3, D) for D ≤ 6,
// II(d, d^D) and B_σ through the paper's witnesses, and congruence-form
// B(d, D) under the plain shift router, D = 1 and d = 5 included.
func witnessCatalog(t testing.TB, maxD2 int) []witnessGraph {
	var cat []witnessGraph
	for _, dd := range []struct{ d, maxD int }{{2, maxD2}, {3, 6}} {
		for D := 1; D <= dd.maxD; D++ {
			if w, ok := otisWitness(t, dd.d, D); ok {
				cat = append(cat, w)
			}
		}
	}
	for _, tc := range []struct{ d, D int }{{2, 1}, {2, 5}, {3, 4}, {4, 3}} {
		ii := debruijn.ImaseItoh(tc.d, word.Pow(tc.d, tc.D))
		r, err := NewWitnessRouter(ii, debruijn.WitnessIIToB(tc.d, tc.D))
		if err != nil {
			t.Fatal(err)
		}
		cat = append(cat, witnessGraph{name: fmt.Sprintf("II(%d,%d^%d)", tc.d, tc.d, tc.D), g: ii, r: r, D: tc.D})
		sigma := perm.MustFromFunc(tc.d, func(i int) int { return (i + 1) % tc.d })
		bs := debruijn.BSigma(tc.d, tc.D, sigma)
		r, err = NewWitnessRouter(bs, debruijn.WitnessW(tc.d, tc.D, sigma))
		if err != nil {
			t.Fatal(err)
		}
		cat = append(cat, witnessGraph{name: fmt.Sprintf("Bsigma(%d,%d)", tc.d, tc.D), g: bs, r: r, D: tc.D})
	}
	for _, tc := range []struct{ d, D int }{{2, 1}, {5, 1}, {2, 6}, {3, 4}, {5, 3}} {
		cat = append(cat, witnessGraph{name: fmt.Sprintf("B(%d,%d)", tc.d, tc.D),
			g: debruijn.DeBruijn(tc.d, tc.D), r: NewDeBruijnRouter(tc.d, tc.D), D: tc.D})
	}
	return cat
}

// TestWitnessNextArcMatchesTableEverywhere is the witness router's
// differential gate: on every (at, dst) pair of every catalog graph —
// 16,777,216 pairs on OTIS(64,128) ⊢ B(2,12) — its NextArc equals the
// shortest-path table's. Shortest paths in B(d, D) are unique, so
// exact agreement is the expectation, not luck.
func TestWitnessNextArcMatchesTableEverywhere(t *testing.T) {
	for _, w := range witnessCatalog(t, 12) {
		tab := NewTableRouter(w.g)
		n := w.g.N()
		for at := 0; at < n; at++ {
			for dst := 0; dst < n; dst++ {
				if a, b := tab.NextArc(at, dst), w.r.NextArc(at, dst); a != b {
					t.Fatalf("%s: NextArc(%d, %d) = %d (table) vs %d (witness)", w.name, at, dst, a, b)
				}
			}
		}
	}
}

// TestCarriedStateMatchesRecomputedOverlap steps every packet of seeded
// permutations hop by hop with the carried state, as the engines do
// under a witness router (congruence-form routers are stepped too, with
// the identity letter map): at every node the carried state equals the
// state start recomputes from scratch, the stepped arc equals NextArc,
// and the walk ends at the destination with every letter shifted out,
// in exactly the closed-form distance (at most D hops).
func TestCarriedStateMatchesRecomputedOverlap(t *testing.T) {
	for _, w := range witnessCatalog(t, 12) {
		n := w.g.N()
		for seed := int64(1); seed <= 2; seed++ {
			for _, p := range Permutation(n, seed) {
				if p.Src == p.Dst {
					continue
				}
				at, hops := p.Src, 0
				state := w.r.start(at, p.Dst)
				for at != p.Dst {
					if want := w.r.start(at, p.Dst); state != want {
						t.Fatalf("%s: packet %d→%d at node %d after %d hops carries %d, recomputed %d",
							w.name, p.Src, p.Dst, at, hops, state, want)
					}
					arc, next := w.r.step(at, state)
					if want := w.r.NextArc(at, p.Dst); arc != want {
						t.Fatalf("%s: packet %d→%d at node %d steps arc %d, NextArc says %d", w.name, p.Src, p.Dst, at, arc, want)
					}
					at, state = w.g.Out(at)[arc], next
					hops++
					if hops > w.D {
						t.Fatalf("%s: packet %d→%d exceeded the diameter %d", w.name, p.Src, p.Dst, w.D)
					}
				}
				if state != 0 || int32(hops) != w.r.distance(p.Src, p.Dst) {
					t.Fatalf("%s: packet %d→%d arrived after %d hops with state %d, closed-form distance %d",
						w.name, p.Src, p.Dst, hops, state, w.r.distance(p.Src, p.Dst))
				}
			}
		}
	}
}

// TestClosedFormDistanceMatchesSlab: on every catalog graph the
// closed-form fault-free distance D − overlap equals the all-pairs BFS
// slab it replaces, pair for pair, and the closed-form diameter equals
// the digraph's.
func TestClosedFormDistanceMatchesSlab(t *testing.T) {
	for _, w := range witnessCatalog(t, 9) {
		dist := w.g.DistanceSlab()
		n := w.g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := w.r.distance(u, v), dist[u*n+v]; got != want {
					t.Fatalf("%s: distance(%d, %d) = %d, slab says %d", w.name, u, v, got, want)
				}
			}
		}
		if got, want := w.r.diameter(), w.g.Diameter(); got != want {
			t.Fatalf("%s: closed-form diameter %d, digraph diameter %d", w.name, got, want)
		}
	}
}

// TestDivisorMatchesDivision pins the multiply-and-shift division step
// reads a carried state's leading digit with — by d^(D−1), so every
// power of d in the int32 range, p = 1 included — against the hardware
// division, at the edges of each quotient and on seeded random
// dividends below 2^31.
func TestDivisorMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 2; d <= 12; d++ {
		for p := 1; p <= math.MaxInt32; p *= d {
			v := newDivisor(p)
			xs := []int{0, 1, p - 1, p, p + 1, 2*p - 1, math.MaxInt32 - 1, math.MaxInt32}
			for i := 0; i < 2000; i++ {
				xs = append(xs, rng.Intn(math.MaxInt32+1))
			}
			for _, x := range xs {
				if x < 0 || x > math.MaxInt32 {
					continue
				}
				if got, want := int(v.quo(int32(x))), x/p; got != want {
					t.Fatalf("d=%d p=%d: quo(%d) = %d, want %d", d, p, x, got, want)
				}
			}
			if p > math.MaxInt32/d {
				break
			}
		}
	}
}

// TestWitnessRouterRejectsBadWitness: NewWitnessRouter refuses a map
// that is not an isomorphism onto B(d, D) — here the OTIS wiring with
// the identity labels, which is the trap shift routing falls into
// without a witness.
func TestWitnessRouterRejectsBadWitness(t *testing.T) {
	h, _ := otisB26(t)
	id := make([]int, h.N())
	for u := range id {
		id[u] = u
	}
	if _, err := NewWitnessRouter(h, id); err == nil {
		t.Fatal("identity labels on the OTIS wiring certified")
	}
	if _, err := NewWitnessRouter(h, id[:10]); err == nil {
		t.Fatal("short label map certified")
	}
}

// otisB26Witness returns the OTIS wiring of B(2,6), the arc group each
// of its lenses carries and the witness router that routes it
// table-free — the witness-routed topology of the frozen-reference
// matrices.
func otisB26Witness(t interface{ Fatal(...any) }) (*digraph.Digraph, [][]Arc, *DeBruijnRouter) {
	h, lenses := otisB26(t)
	layout, _ := otis.OptimalLayout(2, 6)
	label, err := otis.LayoutWitness(2, layout.PPrime, layout.QPrime)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewWitnessRouter(h, label)
	if err != nil {
		t.Fatal(err)
	}
	return h, lenses, r
}

// TestWitnessRoutingMatchesTableRuns runs the same seeded workloads on
// the OTIS wiring of B(2,6) table-routed and witness-routed and requires
// DeepEqual reports — results, event traces and OBS_run/v1 documents —
// on plain, recorded, traced, bounded, admission-controlled,
// transient- and permanent-lens-fault runs and two-Run self-healing
// sessions. The witness network must build neither the n² distance slab
// nor, outside self-healing, any next-arc slab.
func TestWitnessRoutingMatchesTableRuns(t *testing.T) {
	h, lenses, wr := otisB26Witness(t)
	table, err := NewNetwork(h, WithRouting(TableRouting))
	if err != nil {
		t.Fatal(err)
	}
	witness, err := NewNetwork(h, WithRouter(wr))
	if err != nil {
		t.Fatal(err)
	}
	if witness.Routing() != ShiftRouting {
		t.Fatalf("witness network routes %v, want shift", witness.Routing())
	}
	n := h.N()
	runs := []struct {
		name string
		w    Workload
		opts []RunOption
	}{
		{"plain", PermutationLoad(), nil},
		{"uniform", UniformLoad(4 * n), nil},
		{"traced", UniformLoad(2 * n), []RunOption{WithTrace()}},
		{"bounded", UniformLoad(4 * n), []RunOption{WithQueueCapacity(1)}},
		{"admission", UniformLoad(4 * n), []RunOption{WithQueueCapacity(2), WithAdmission(AdmissionConfig{Rate: 3, Burst: 2})}},
		{"lens_transient", UniformLoad(3 * n), []RunOption{WithFaults(NewFaultPlan().LensDown(2, 12, 5, lenses[5]))}},
		{"lens_transient_traced", UniformLoad(3 * n), []RunOption{WithTrace(), WithFaults(NewFaultPlan().LensDown(1, 20, 9, lenses[9]))}},
		{"lens_permanent", UniformLoad(3 * n), []RunOption{WithFaults(NewFaultPlan().LensDown(4, 0, 3, lenses[3]))}},
	}
	reroutes := 0
	for _, rc := range runs {
		for seed := int64(1); seed <= 3; seed++ {
			report := func(nw *Network) (RunReport, []byte) {
				rec := obs.NewRecorder(obs.NewRegistry())
				opts := append([]RunOption{WithSeed(seed), WithRecorder(rec)}, rc.opts...)
				rep, err := nw.RunOpts(rc.w, opts...)
				if err != nil {
					t.Fatalf("%s seed %d: %v", rc.name, seed, err)
				}
				doc, err := rec.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return rep, []byte(stripArenaLines(string(doc)))
			}
			want, wantDoc := report(table)
			got, gotDoc := report(witness)
			if !reflect.DeepEqual(want, got) {
				want.Packets, got.Packets = nil, nil
				t.Fatalf("%s seed %d: reports diverge\ntable:   %+v\nwitness: %+v", rc.name, seed, want.FaultResult, got.FaultResult)
			}
			if !bytes.Equal(wantDoc, gotDoc) {
				t.Fatalf("%s seed %d: OBS documents diverge\ntable:\n%s\nwitness:\n%s", rc.name, seed, wantDoc, gotDoc)
			}
			reroutes += got.Reroutes
		}
	}
	if reroutes == 0 {
		t.Fatal("no fault run deflected: the closed-form ranking went unchecked")
	}

	for seed := int64(1); seed <= 2; seed++ {
		plan := NewFaultPlan().LensDown(3, 30, 7, lenses[7])
		sessions := make([]*SelfHealing, 2)
		for k, nw := range []*Network{table, witness} {
			if sessions[k], err = nw.SelfHeal(plan, HealConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		for wave := int64(1); wave <= 2; wave++ {
			pkts := UniformRandom(n, 3*n, seed*10+wave)
			want, err := sessions[0].Run(pkts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sessions[1].Run(pkts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				want.Packets, got.Packets = nil, nil
				t.Fatalf("heal seed %d wave %d: results diverge\ntable:   %+v\nwitness: %+v", seed, wave, want, got)
			}
		}
	}
}
