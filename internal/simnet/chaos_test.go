package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/debruijn"
)

// Chaos smoke test: 100 seeded random fault plans — mixed link, node
// and lens-style group faults, transient and permanent, against random
// workloads — must never break the accounting invariant (Delivered +
// Dropped == Offered) or produce an inconsistent trace. Every failure
// message carries the seed so a red run reproduces with one constant.

func randomChaosPlan(rng *rand.Rand, g interface {
	N() int
	OutDegree(int) int
}) *FaultPlan {
	plan := NewFaultPlan()
	for i, nf := 0, rng.Intn(7); i < nf; i++ {
		start := rng.Intn(100)
		duration := 0 // permanent
		if rng.Intn(3) > 0 {
			duration = 1 + rng.Intn(60)
		}
		switch rng.Intn(3) {
		case 0:
			tail := rng.Intn(g.N())
			plan.LinkDown(start, duration, tail, rng.Intn(g.OutDegree(tail)))
		case 1:
			plan.NodeDown(start, duration, rng.Intn(g.N()))
		case 2:
			group := make([]Arc, 0, 3)
			for j := 0; j < 3; j++ {
				tail := rng.Intn(g.N())
				group = append(group, Arc{Tail: tail, Index: rng.Intn(g.OutDegree(tail))})
			}
			plan.LensDown(start, duration, rng.Intn(8), group)
		}
	}
	return plan
}

func TestChaosRandomFaultPlans(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := randomChaosPlan(rng, g)
		pkts := make([]Packet, 40+rng.Intn(40))
		for i := range pkts {
			pkts[i] = Packet{
				ID:      i,
				Src:     rng.Intn(g.N()),
				Dst:     rng.Intn(g.N()),
				Release: rng.Intn(50),
			}
		}
		res, err := nw.RunOpts(Fixed(pkts), WithFaults(plan), WithTrace())
		if err != nil {
			t.Fatalf("seed %d: run failed: %v", seed, err)
		}
		if res.Delivered+res.Dropped != len(pkts) {
			t.Fatalf("seed %d: delivered %d + dropped %d != offered %d (%v)",
				seed, res.Delivered, res.Dropped, len(pkts), res)
		}
		if err := VerifyTrace(g, res.Packets, res.Events); err != nil {
			t.Fatalf("seed %d: inconsistent trace: %v", seed, err)
		}
	}
}

// TestChaosSelfHealingInvariant runs a lighter chaos pass through the
// self-healing engine: the same accounting invariant must hold with
// detection, gossip and repair in the loop.
func TestChaosSelfHealingInvariant(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		plan := randomChaosPlan(rng, g)
		session, err := nw.SelfHeal(plan, HealConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pkts := make([]Packet, 30+rng.Intn(30))
		for i := range pkts {
			pkts[i] = Packet{
				ID:      i,
				Src:     rng.Intn(g.N()),
				Dst:     rng.Intn(g.N()),
				Release: rng.Intn(50),
			}
		}
		res, err := session.Run(pkts)
		if err != nil {
			t.Fatalf("seed %d: run failed: %v", seed, err)
		}
		if res.Delivered+res.Dropped != len(pkts) {
			t.Fatalf("seed %d: delivered %d + dropped %d != offered %d (%v)",
				seed, res.Delivered, res.Dropped, len(pkts), res)
		}
	}
}
