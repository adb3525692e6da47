package simnet

import (
	"errors"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/digraph"
)

// fuzzBytes reads a fuzz input one byte at a time, as zeros once it is
// used up, so every input decodes to something.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// fuzzNetworks are the small digraphs FuzzRunOpts runs on: B(2,3)
// table- and shift-routed, K(2,3), and a 6-node digraph of two 3-cycles
// joined one way, with a self-loop, so some pairs are unreachable.
func fuzzNetworks(f *testing.F) []*Network {
	kautz, _ := debruijn.Kautz(2, 3)
	oneWay := digraph.FromFunc(6, func(u int) []int {
		return [][]int{{1, 3}, {2}, {0}, {4}, {5, 4}, {3}}[u]
	})
	b23 := debruijn.DeBruijn(2, 3)
	var nets []*Network
	for _, c := range []struct {
		g    *digraph.Digraph
		mode RoutingMode
	}{{b23, TableRouting}, {b23, ShiftRouting}, {kautz, TableRouting}, {oneWay, TableRouting}} {
		nw, err := NewNetwork(c.g, WithRouting(c.mode))
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, nw)
	}
	return nets
}

// FuzzRunOpts decodes bytes into one of fuzzNetworks, a set of run
// options — queue bound, hold budget, admission, shards, trace and a
// small fault plan, each valid or not — and up to 23 packets whose
// endpoints may lie outside the digraph, and checks RunOpts' contract on
// the result: an *OptionError (always, for an out-of-range endpoint), or
// a run that accounts every packet as delivered, dropped or shed, whose
// event log, when traced, passes VerifyTrace.
func FuzzRunOpts(f *testing.F) {
	nets := fuzzNetworks(f)
	// Seeds: net, flags, the flagged options' bytes, then the packet
	// count and each packet's source+1, destination+1 and release.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 2, 7, 0, 4, 6, 1, 8, 1, 0, 3, 3, 3}) // a plain table run
	f.Add([]byte{1, 48, 2, 2, 0, 3, 0, 1, 1, 5, 6, 1,
		5, 1, 8, 0, 4, 5, 1, 7, 2, 2, 6, 4, 0, 3, 7, 4}) // a traced shift-routed fault run
	f.Add([]byte{2, 7, 1, 3, 3, 2, 5,
		8, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 7, 1, 0, 8, 1, 0, 9, 1, 0}) // bounded, admission-controlled
	f.Add([]byte{1, 8, 4, 6, 1, 6, 0, 2, 4, 0, 3, 8, 0, 5, 1, 0, 7, 2, 0, 8, 3, 0}) // on 4 shards
	f.Add([]byte{3, 16, 4, 4, 1, 0, 1, 6, 0, 5, 5, 0, 6, 2, 0})                     // traced, an unreachable pair
	f.Add([]byte{0, 0, 2, 1, 9, 0, 2, 3, 0})                                        // an endpoint outside the digraph
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		nw := nets[in.next()%len(nets)]
		g, n := nw.g, nw.g.N()
		flags := in.next()
		var opts []RunOption
		if flags&1 != 0 {
			opts = append(opts, WithQueueCapacity(in.next()%4))
		}
		if flags&2 != 0 {
			opts = append(opts, WithHoldBudget(in.next()%8))
		}
		if flags&4 != 0 {
			opts = append(opts, WithAdmission(AdmissionConfig{
				Rate: float64(in.next()%9-1) / 2, Burst: in.next()%5 - 1, MaxDelay: in.next()%16 - 1}))
		}
		if flags&8 != 0 {
			opts = append(opts, WithShards(in.next()%(n+2)))
		}
		traced := flags&16 != 0
		if traced {
			opts = append(opts, WithTrace())
		}
		if flags&32 != 0 {
			plan := NewFaultPlanFor(g)
			for range in.next() % 4 {
				start, duration, u := in.next()%16, in.next()%8, in.next()%n
				switch in.next() % 3 {
				case 0:
					plan.LinkDown(start, duration, u, in.next()%g.OutDegree(u))
				case 1:
					plan.NodeDown(start, duration, u)
				default:
					plan.LensDown(start, duration, 0, []Arc{{Tail: u, Index: 0}, {Tail: (u + 1) % n, Index: 0}})
				}
			}
			if err := plan.Err(); err != nil {
				t.Fatal(err)
			}
			opts = append(opts, WithFaults(plan))
		}
		pkts := make([]Packet, in.next()%24)
		outside := false
		for i := range pkts {
			// Endpoints run over [-1, n]: one step past each end.
			src, dst := in.next()%(n+2)-1, in.next()%(n+2)-1
			outside = outside || src < 0 || src >= n || dst < 0 || dst >= n
			pkts[i] = Packet{ID: i, Src: src, Dst: dst, Release: in.next() % 32}
		}

		rep, err := nw.RunOpts(Fixed(pkts), opts...)
		if err != nil {
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			return
		}
		if outside {
			t.Fatalf("a packet outside the %d-node digraph ran: %v", n, rep.FaultResult)
		}
		if got := rep.Delivered + rep.Dropped + rep.Shed; got != len(pkts) {
			t.Fatalf("delivered %d + dropped %d + shed %d = %d, offered %d", rep.Delivered, rep.Dropped, rep.Shed, got, len(pkts))
		}
		if traced {
			if err := VerifyTrace(g, pkts, rep.Events); err != nil {
				t.Fatal(err)
			}
		}
	})
}
