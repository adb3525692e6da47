package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/debruijn"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples was reported; it needs 100")
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p90, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples was reported; it needs 20")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	tim := openLoop(8, 1000, 1, func(int) int { return -1 }, func(k int) {
		if k == 2 {
			time.Sleep(stall)
		}
	})
	if late := tim[1].late(); late > 20*time.Millisecond {
		t.Fatalf("request 1 was sent %v late before any stall", late)
	}
	for k := 3; k < len(tim); k++ {
		if tim[k].late() < stall/2 {
			t.Errorf("request %d was sent only %v late behind a %v stall", k, tim[k].late(), stall)
		}
		if tim[k].latency() < tim[k].late() {
			t.Errorf("request %d: latency %v does not include its lateness %v", k, tim[k].latency(), tim[k].late())
		}
	}
}

func TestOpenLoopKeepsSessionOrder(t *testing.T) {
	tim := openLoop(6, 10000, 3, func(k int) int { return k - 2 }, func(k int) {
		if k == 0 {
			time.Sleep(30 * time.Millisecond)
		}
	})
	// Request 2 follows request 0 on its session, so it is sent only
	// after request 0 completed.
	if tim[2].sent < tim[0].done {
		t.Fatalf("request 2 sent at %v before request 0 completed at %v", tim[2].sent, tim[0].done)
	}
}

func TestExpectationsRejectPerturbedResult(t *testing.T) {
	e := newExpectations(2)
	st := simStats{Offered: 64, Delivered: 63, Dropped: 1, TotalHops: 400, LatencySum: 500}
	if err := e.check(0, []simStats{st}); err != nil {
		t.Fatal(err)
	}
	if err := e.check(1, []simStats{{Offered: 64, Delivered: 64}}); err != nil {
		t.Fatal(err)
	}
	if !e.complete() {
		t.Fatal("pass of two inputs not complete after two ops")
	}
	digest := e.digest()
	if err := e.check(2, []simStats{st}); err != nil {
		t.Fatalf("op 2 repeats input 0 exactly: %v", err)
	}
	bad := st
	bad.TotalHops++
	err := e.check(4, []simStats{bad})
	if err == nil || !strings.Contains(err.Error(), "TotalHops") {
		t.Fatalf("perturbed result accepted or misreported: %v", err)
	}
	other := newExpectations(2)
	_ = other.check(0, []simStats{bad})
	_ = other.check(1, []simStats{{Offered: 64, Delivered: 64}})
	if other.digest() == digest {
		t.Fatal("perturbed pass has the same digest")
	}
	if err := (simStats{Offered: 64, Delivered: 60, Dropped: 3}).accounted(); err == nil {
		t.Fatal("a lost packet passed the accounting check")
	}
}

func TestDistanceMatchesBreadthFirstSearch(t *testing.T) {
	for _, c := range []struct{ d, D int }{{2, 5}, {3, 3}, {4, 2}} {
		g := debruijn.DeBruijn(c.d, c.D)
		slab := g.DistanceSlab()
		m := newDBDistance(c.d, c.D)
		n := g.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := m.dist(u, v), int(slab[u*n+v]); got != want {
					t.Fatalf("B(%d,%d): dist(%d,%d) = %d, BFS says %d", c.d, c.D, u, v, got, want)
				}
			}
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{on: true, op: -1}
	tr.spans = []span{
		{Name: "http", Start: 0, End: 100, Parent: -1},
		{Name: "sched", Start: 60, End: 100, Parent: 0},
		{Name: "sched", Start: 80, End: 120, Parent: 0}, // overlaps the first child and the parent's end
	}
	self := tr.selfTimes("http")
	if len(self) != 1 || self[0] != 60/1e6 {
		t.Fatalf("self time = %v ms, want 60 ns = %v ms", self, 60/1e6)
	}
}

func TestWindowsCoverEveryOp(t *testing.T) {
	var ops []opRecord
	for i := 1; i <= 25; i++ {
		ops = append(ops, opRecord{end: 0.1 * float64(i)})
	}
	ws := windows(ops, 1.0, 3)
	if len(ws) != 2 || len(ws[0]) != 10 || len(ws[1]) != 15 {
		t.Fatalf("windows of 25 ops over 2.5s = %d windows %v, want 10 and 15 ops", len(ws), ws)
	}
	if ws := windows(ops[:5], 1.0, 3); len(ws) != 1 || len(ws[0]) != 5 {
		t.Fatalf("a phase shorter than one window must stay one window, got %v", ws)
	}
}
