package simnet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/debruijn"
)

// TestTracedRunMatchesPlainRun: a traced run is the plain run plus its
// live event log, unbounded and with bounded queues (which the traced
// run must obey too).
func TestTracedRunMatchesPlainRun(t *testing.T) {
	g := debruijn.DeBruijn(2, 5)
	nw, err := NewNetwork(g, WithRouter(NewTableRouter(g)))
	if err != nil {
		t.Fatal(err)
	}
	bounded := []RunOption{WithQueueCapacity(1), WithHoldBudget(2)}
	for _, tc := range []struct {
		name string
		opts []RunOption
		pkts []Packet
	}{
		{"default", nil, UniformRandom(g.N(), 100, 101)},
		{"bounded", bounded, UniformRandom(g.N(), 192, 5)},
	} {
		plain, err := nw.RunOpts(Fixed(tc.pkts), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := nw.RunOpts(Fixed(tc.pkts), append(tc.opts, WithTrace())...)
		if err != nil {
			t.Fatal(err)
		}
		traced, events := rep.Result, rep.Events
		if !reflect.DeepEqual(plain.Result, traced) {
			t.Fatalf("%s: traced run diverged: %v vs %v", tc.name, plain, traced)
		}
		if len(events) == 0 {
			t.Fatalf("%s: no events recorded", tc.name)
		}
		if err := VerifyTrace(g, tc.pkts, events); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Events are live: each delivery is logged at the packet's
		// delivery cycle, and no injection precedes its release.
		byID := map[int]Packet{}
		for _, p := range traced.Packets {
			byID[p.ID] = p
		}
		for _, e := range events {
			p := byID[e.Packet]
			if e.Kind == EventDeliver && e.Cycle != p.Delivered {
				t.Fatalf("%s: packet %d delivered at cycle %d, logged at %d", tc.name, p.ID, p.Delivered, e.Cycle)
			}
			if e.Kind == EventInject && e.Cycle < p.Release {
				t.Fatalf("%s: packet %d released at %d, injected at %d", tc.name, p.ID, p.Release, e.Cycle)
			}
		}
	}
	// The bound bites on the bounded runs: the case is not a repeat.
	res, err := nw.RunOpts(Fixed(UniformRandom(g.N(), 192, 5)), bounded...)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedQueueFull == 0 || res.MaxQueue != 1 {
		t.Fatalf("bounded run: %d queue-full drops, MaxQueue %d; want drops at MaxQueue 1", res.DroppedQueueFull, res.MaxQueue)
	}
}

func TestTraceEventCounts(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	nw, _ := NewNetwork(g, WithRouter(NewDeBruijnRouter(2, 4)))
	pkts := []Packet{{ID: 0, Src: 1, Dst: 9}}
	rep, err := nw.RunOpts(Fixed(pkts), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	res, events := rep.Result, rep.Events
	if res.Delivered != 1 {
		t.Fatal("undelivered")
	}
	hops := res.Packets[0].Hops
	// inject + (depart+arrive)·hops + deliver.
	if want := 2 + 2*hops; len(events) != want {
		t.Fatalf("%d events, want %d: %v", len(events), want, events)
	}
	if events[0].Kind != EventInject || events[len(events)-1].Kind != EventDeliver {
		t.Error("trace endpoints wrong")
	}
}

func TestTraceStrings(t *testing.T) {
	e := Event{Cycle: 12, Kind: EventDepart, Packet: 3, Node: 5, Peer: 11}
	if got := e.String(); !strings.Contains(got, "depart") || !strings.Contains(got, "5→11") {
		t.Errorf("event string %q", got)
	}
	e2 := Event{Cycle: 1, Kind: EventInject, Packet: 0, Node: 2, Peer: -1}
	if got := e2.String(); !strings.Contains(got, "@2") {
		t.Errorf("event string %q", got)
	}
	for k := EventInject; k <= EventDeliver; k++ {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestVerifyTraceRejects(t *testing.T) {
	g := debruijn.DeBruijn(2, 3)
	pkts := []Packet{{ID: 0, Src: 0, Dst: 5}}
	bad := []Event{
		{Kind: EventInject, Packet: 0, Node: 0, Peer: -1},
		{Kind: EventDepart, Packet: 0, Node: 0, Peer: 5}, // 0→5 is not an arc
	}
	if VerifyTrace(g, pkts, bad) == nil {
		t.Error("non-arc depart accepted")
	}
	bad = []Event{
		{Kind: EventInject, Packet: 0, Node: 3, Peer: -1}, // wrong source
	}
	if VerifyTrace(g, pkts, bad) == nil {
		t.Error("wrong injection node accepted")
	}
	bad = []Event{
		{Cycle: 1, Kind: EventInject, Packet: 0, Node: 0, Peer: -1},
		{Cycle: 0, Kind: EventDepart, Packet: 0, Node: 0, Peer: 1}, // before its injection
	}
	if VerifyTrace(g, pkts, bad) == nil {
		t.Error("decreasing event cycles accepted")
	}
	bad = []Event{
		{Cycle: 0, Kind: EventInject, Packet: 0, Node: 0, Peer: -1},
		{Cycle: 2, Kind: EventDepart, Packet: 0, Node: 0, Peer: 1},
		{Cycle: 2, Kind: EventArrive, Packet: 0, Node: 1, Peer: 0}, // no wire time
	}
	if VerifyTrace(g, pkts, bad) == nil {
		t.Error("arrive in its depart cycle accepted")
	}
}
