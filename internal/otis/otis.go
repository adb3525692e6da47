// Package otis models the Optical Transpose Interconnection System
// (OTIS) architecture of Marsden, Marchand, Harvey and Esener, and the
// digraphs H(p, q, d) it realizes, following Section 4 of Coudert,
// Ferreira, Pérennes, "De Bruijn Isomorphisms and Free Space Optical
// Networks" (IPDPS 2000).
//
// OTIS(p, q) optically connects p groups of q transmitters to q groups of
// p receivers through p + q lenses: transmitter (i, j) reaches receiver
// (q-j-1, p-i-1). Given a degree d dividing pq, grouping consecutive
// transceivers by d yields the d-regular digraph H(p, q, d) on
// n = pq/d processing nodes (Section 4.2). The package provides the
// layout-existence criteria of Corollaries 4.2–4.6 and the exhaustive
// degree–diameter search behind Table 1.
package otis

import (
	"fmt"
	"math"

	"repro/internal/digraph"
)

// System describes an OTIS(p, q) free-space optical interconnect.
type System struct {
	P int // number of transmitter groups (= lenses on the transmitter side)
	Q int // transmitters per group (= lenses on the receiver side)
}

// NewSystem validates p, q ≥ 1 and returns the system.
func NewSystem(p, q int) (System, error) {
	if p < 1 || q < 1 {
		return System{}, fmt.Errorf("otis: need p, q >= 1, got (%d,%d)", p, q)
	}
	return System{P: p, Q: q}, nil
}

// Lenses returns the lens count p + q, the hardware cost the paper
// minimizes (two lenslet arrays of p and q lenses).
func (s System) Lenses() int { return s.P + s.Q }

// Transceivers returns the number of transmitter (equivalently receiver)
// units, m = pq.
func (s System) Transceivers() int { return s.P * s.Q }

// Receiver returns the receiver (group, index) reached by transmitter
// (i, j): the optical transpose (q-j-1, p-i-1).
func (s System) Receiver(i, j int) (ri, rj int) {
	if i < 0 || i >= s.P || j < 0 || j >= s.Q {
		panic(fmt.Sprintf("otis: transmitter (%d,%d) out of OTIS(%d,%d)", i, j, s.P, s.Q))
	}
	return s.Q - j - 1, s.P - i - 1
}

// Transmitter returns the transmitter (group, index) reaching receiver
// (ri, rj) — the inverse transpose.
func (s System) Transmitter(ri, rj int) (i, j int) {
	if ri < 0 || ri >= s.Q || rj < 0 || rj >= s.P {
		panic(fmt.Sprintf("otis: receiver (%d,%d) out of OTIS(%d,%d)", ri, rj, s.P, s.Q))
	}
	return s.P - rj - 1, s.Q - ri - 1
}

// TransmitterID returns the global transmitter number t = i·q + j.
func (s System) TransmitterID(i, j int) int { return i*s.Q + j }

// ReceiverID returns the global receiver number r = ri·p + rj.
func (s System) ReceiverID(ri, rj int) int { return ri*s.P + rj }

// ConnectionID returns the global receiver number reached by global
// transmitter t.
func (s System) ConnectionID(t int) int {
	i, j := t/s.Q, t%s.Q
	ri, rj := s.Receiver(i, j)
	return s.ReceiverID(ri, rj)
}

// H returns the d-regular digraph H(p, q, d) realized by OTIS(p, q) when
// each processing node owns d consecutive transmitters and d consecutive
// receivers (Section 4.2): node u ∈ Z_n (n = pq/d) has transmitters
// du+β and receivers du+β for β ∈ Z_d, and u → v iff some transmitter of
// u reaches some receiver of v. Out-neighbour β of u is listed at
// adjacency position β. Errors if d does not divide pq.
func H(p, q, d int) (*digraph.Digraph, error) {
	s, err := NewSystem(p, q)
	if err != nil {
		return nil, err
	}
	if d < 1 {
		return nil, fmt.Errorf("otis: degree %d < 1", d)
	}
	if q > math.MaxInt/p {
		return nil, fmt.Errorf("otis: pq = %d·%d overflows int", p, q)
	}
	m := s.Transceivers()
	if m%d != 0 {
		return nil, fmt.Errorf("otis: degree %d does not divide pq = %d", d, m)
	}
	// Transmitter t is out-arc t mod d of node ⌊t/d⌋, so the heads in
	// transmitter order are the adjacency lists back to back.
	heads := make([]int, m)
	for i := 0; i < p; i++ {
		for j := 0; j < q; j++ {
			heads[s.TransmitterID(i, j)] = s.ReceiverID(s.Receiver(i, j)) / d
		}
	}
	return digraph.Regular(m/d, d, heads), nil
}

// MustH is H panicking on error, for fixtures and tables.
func MustH(p, q, d int) *digraph.Digraph {
	g, err := H(p, q, d)
	if err != nil {
		//lint:ignore panicstyle the error from H already carries the "otis: " prefix
		panic(err)
	}
	return g
}

// NodeOfTransmitter returns the node owning global transmitter t.
func NodeOfTransmitter(t, d int) int { return t / d }

// NodeTransmitters returns the positions (group, index) of node u's d
// transmitters in OTIS(p, q), as the paper writes them:
// (⌊(du+β)/q⌋, (du+β) mod q) for β ∈ Z_d.
func (s System) NodeTransmitters(u, d int) [][2]int {
	out := make([][2]int, d)
	for beta := 0; beta < d; beta++ {
		t := d*u + beta
		out[beta] = [2]int{t / s.Q, t % s.Q}
	}
	return out
}

// NodeReceivers returns the positions (group, index) of node u's d
// receivers: (⌊(du+β)/p⌋, (du+β) mod p) for β ∈ Z_d.
func (s System) NodeReceivers(u, d int) [][2]int {
	out := make([][2]int, d)
	for beta := 0; beta < d; beta++ {
		r := d*u + beta
		out[beta] = [2]int{r / s.P, r % s.P}
	}
	return out
}
