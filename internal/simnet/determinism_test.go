package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

// TestSeededRunIsByteIdentical is the regression test behind the
// determinism analyzer: the same seeded workload on the same topology
// must produce the same run, byte for byte — the rendered event trace
// and the OBS_run/v1 metrics document both. Each run builds a fresh
// Network (fresh router slab, fresh arena pool, fresh recorder), so any
// nondeterminism in construction or simulation — map iteration feeding
// the trace, wall-clock reads leaking into metrics, unseeded randomness
// — shows up as a diff here.
func TestSeededRunIsByteIdentical(t *testing.T) {
	runOnce := func() (string, []byte) {
		t.Helper()
		g := debruijn.DeBruijn(3, 5)
		nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(obs.NewRegistry())
		rep, err := nw.RunOpts(PermutationLoad(),
			WithSeed(20260808), WithTrace(), WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Delivered == 0 || len(rep.Events) == 0 {
			t.Fatalf("degenerate run: delivered=%d events=%d", rep.Delivered, len(rep.Events))
		}
		var sb strings.Builder
		for _, e := range rep.Events {
			sb.WriteString(e.String())
			sb.WriteByte('\n')
		}
		doc, err := rec.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), doc
	}

	trace1, doc1 := runOnce()
	trace2, doc2 := runOnce()

	if trace1 != trace2 {
		l1, l2 := strings.Split(trace1, "\n"), strings.Split(trace2, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("trace diverges at line %d:\nrun 1: %s\nrun 2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(l1), len(l2))
	}
	if !bytes.Equal(doc1, doc2) {
		t.Errorf("OBS_run/v1 documents differ:\nrun 1:\n%s\nrun 2:\n%s", doc1, doc2)
	}
}

// TestSeededHealSessionIsByteIdentical is the self-healing twin of
// TestSeededRunIsByteIdentical: a session on a fresh Network under a
// seeded lens outage, with the scripted quarantine monitor, runs two
// waves; the rendered results of both Runs (packet tables included) and
// the final OBS_run/v1 document must match a second session built the
// same way, byte for byte. The arena reuse counters are the one
// exception: whether the second Run finds the first Run's arena in the
// Network's sync.Pool is up to the runtime (the pool may drop items at
// any GC, and does so at random under -race), so they are stripped.
func TestSeededHealSessionIsByteIdentical(t *testing.T) {
	runOnce := func() (string, []byte) {
		t.Helper()
		g, lenses := otisB26(t)
		nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(obs.NewRegistry())
		nw.Observe(rec)
		rng := rand.New(rand.NewSource(20260808))
		lens := rng.Intn(len(lenses))
		plan := NewFaultPlan().LensDown(rng.Intn(8), 24+rng.Intn(16), lens, lenses[lens])
		mon := &quarMonitor{arc: lenses[(lens+1)%len(lenses)][0], at: 4}
		session, err := nw.SelfHeal(plan, HealConfig{Monitor: mon})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for wave := int64(1); wave <= 2; wave++ {
			res, err := session.Run(UniformRandom(g.N(), 4*g.N(), wave))
			if err != nil {
				t.Fatal(err)
			}
			if wave == 1 && (res.Delivered == 0 || res.Nacks == 0) {
				t.Fatalf("degenerate session: %v", res)
			}
			fmt.Fprintf(&sb, "%+v\n", res)
		}
		doc, err := rec.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), doc
	}

	res1, doc1 := runOnce()
	res2, doc2 := runOnce()
	if res1 != res2 {
		t.Fatalf("heal results differ:\nsession 1: %s\nsession 2: %s", res1, res2)
	}
	if stripArenaLines(string(doc1)) != stripArenaLines(string(doc2)) {
		t.Errorf("OBS_run/v1 documents differ:\nsession 1:\n%s\nsession 2:\n%s", doc1, doc2)
	}
}

// TestSeededWitnessRunIsByteIdentical is the witness-routed twin of
// TestSeededRunIsByteIdentical, on the OTIS wiring of B(2,6) routed
// table-free through its layout witness. A fresh Network runs a seeded
// traced permutation, then a traced lens-fault run, then the same
// permutation again — the third run reuses the pooled arena's
// carried-state slab, which the fault run left full of its own states —
// and the first and third results must be DeepEqual. A second fresh
// Network must then reproduce all three traces and the OBS_run/v1
// document byte for byte (arena reuse counters aside, as in the heal
// twin: whether a Run finds the pooled arena is up to the runtime).
func TestSeededWitnessRunIsByteIdentical(t *testing.T) {
	runOnce := func() (string, []byte) {
		t.Helper()
		g, lenses, r := otisB26Witness(t)
		nw, err := NewNetwork(g, WithRouter(r))
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(obs.NewRegistry())
		nw.Observe(rec)
		rng := rand.New(rand.NewSource(20260808))
		lens := rng.Intn(len(lenses))
		plan := NewFaultPlan().LensDown(rng.Intn(4), 12+rng.Intn(8), lens, lenses[lens])
		var sb strings.Builder
		var reps []RunReport
		for _, opts := range [][]RunOption{
			{WithSeed(20260808), WithTrace()},
			{WithSeed(20260808), WithTrace(), WithFaults(plan)},
			{WithSeed(20260808), WithTrace()},
		} {
			rep, err := nw.RunOpts(PermutationLoad(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Delivered == 0 || len(rep.Events) == 0 {
				t.Fatalf("degenerate run: delivered=%d events=%d", rep.Delivered, len(rep.Events))
			}
			reps = append(reps, rep)
			for _, e := range rep.Events {
				sb.WriteString(e.String())
				sb.WriteByte('\n')
			}
			fmt.Fprintf(&sb, "%+v\n", rep.FaultResult)
		}
		if reps[1].Reroutes == 0 {
			t.Fatalf("the lens fault deflected nothing: %v", reps[1].FaultResult)
		}
		if !reflect.DeepEqual(reps[0], reps[2]) {
			reps[0].Packets, reps[2].Packets = nil, nil
			t.Fatalf("the permutation after a fault run diverges from the first:\nfirst: %+v\nthird: %+v", reps[0].FaultResult, reps[2].FaultResult)
		}
		doc, err := rec.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), []byte(stripArenaLines(string(doc)))
	}

	trace1, doc1 := runOnce()
	trace2, doc2 := runOnce()
	if trace1 != trace2 {
		l1, l2 := strings.Split(trace1, "\n"), strings.Split(trace2, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("trace diverges at line %d:\nnetwork 1: %s\nnetwork 2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(l1), len(l2))
	}
	if !bytes.Equal(doc1, doc2) {
		t.Errorf("OBS_run/v1 documents differ:\nnetwork 1:\n%s\nnetwork 2:\n%s", doc1, doc2)
	}
}
