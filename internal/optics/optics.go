// Package optics is the free-space optical hardware substrate of the
// reproduction: a paraxial (ideal thin-lens) model of the OTIS(p, q)
// two-lenslet-array interconnect of Marsden et al., which the paper treats
// as an exact transpose permutation between transmitters and receivers.
//
// The original system is physical hardware (VCSEL arrays, lenslet arrays,
// photoreceivers); we have no optics bench, so this package simulates the
// closest geometric equivalent and verifies, beam by beam, that the optical
// image of transmitter (i, j) is receiver (q-j-1, p-i-1) — the only
// property Section 4 of the paper uses. It also carries the hardware cost
// model (lens counts, apertures, optical power budget) that motivates
// minimizing p + q.
//
// Geometry (one transverse dimension; the physical system is separable in
// x and y so one dimension captures the mapping):
//
//	stage 1: lenslet array L1 has p lenses, one per transmitter group.
//	  Lens i images its q transmitters, inverted and magnified by p,
//	  across the full aperture of lenslet array L2 — transmitter (i, j)
//	  lands on lens q-j-1 of L2 regardless of i (the OTIS fan-out).
//	stage 2: lenslet array L2 has q lenses, one per receiver group.
//	  Lens k images the p lenses of L1, inverted and demagnified by q,
//	  onto its p receivers — a beam arriving from lens i of L1 lands on
//	  receiver (k, p-i-1).
//
// The composition is the optical transpose (i, j) ↦ (q-j-1, p-i-1).
package optics

import (
	"fmt"
	"math"
)

// Bench describes a concrete OTIS(p, q) optical bench.
type Bench struct {
	P, Q int

	// Pitch is the transceiver spacing in metres (VCSEL/receiver pitch).
	Pitch float64
	// FocalLength1 and FocalLength2 are the focal lengths of the two
	// lenslet arrays, derived from the geometry in NewBench.
	FocalLength1, FocalLength2 float64
	// Z01 is the transmitter-plane → L1 distance; Z12 the L1 → L2
	// distance; Z23 the L2 → receiver-plane distance (metres).
	Z01, Z12, Z23 float64
}

// DefaultPitch is a typical smart-pixel VCSEL pitch (250 µm, as in the
// UCSD demonstrators the paper cites).
const DefaultPitch = 250e-6

// NewBench builds a bench for OTIS(p, q) with the given transceiver pitch.
// The transmitter array has aperture A = p·q·pitch; stage 1 magnifies each
// group (width A/p) by p onto the L2 aperture (width A), and stage 2
// demagnifies the L1 aperture (width A) by q onto each receiver group
// (width A/q). Plane separations follow the thin-lens equation with an
// object distance of one focal length times (1+1/|M|).
func NewBench(p, q int, pitch float64) (*Bench, error) {
	if p < 1 || q < 1 {
		return nil, fmt.Errorf("optics: need p, q >= 1, got (%d,%d)", p, q)
	}
	if pitch <= 0 {
		return nil, fmt.Errorf("optics: pitch must be positive, got %g", pitch)
	}
	// Stage 1: magnification M1 = p. Pick the object distance so the
	// lens diameter (group width) comfortably exceeds the beam; the
	// standard imaging choice o = f(1+1/M) follows from 1/f = 1/o + 1/i
	// with i = M·o. We normalize f1 to 10× the group width, a typical
	// lenslet f-number regime.
	a := float64(p*q) * pitch // full aperture
	groupW := a / float64(p)
	f1 := 10 * groupW
	o1 := f1 * (float64(p) + 1) / float64(p)
	i1 := o1 * float64(p)
	// Stage 2: demagnification M2 = 1/q, object = the L1 plane. The
	// object distance is fixed by the bench: o2 = Z12 = i1. Solve the
	// thin-lens equation for f2 with i2 = o2/q.
	o2 := i1
	i2 := o2 / float64(q)
	f2 := o2 * i2 / (o2 + i2)
	return &Bench{
		P: p, Q: q,
		Pitch:        pitch,
		FocalLength1: f1,
		FocalLength2: f2,
		Z01:          o1,
		Z12:          i1,
		Z23:          i2,
	}, nil
}

// Aperture returns the transverse extent of the transceiver planes, in
// metres: m·pitch with m = pq.
func (b *Bench) Aperture() float64 { return float64(b.P*b.Q) * b.Pitch }

// Length returns the total optical path length of the bench.
func (b *Bench) Length() float64 { return b.Z01 + b.Z12 + b.Z23 }

// TransmitterX returns the transverse position (metres) of transmitter
// (i, j): group i of p, element j of q, on a uniform grid.
func (b *Bench) TransmitterX(i, j int) float64 {
	if i < 0 || i >= b.P || j < 0 || j >= b.Q {
		panic(fmt.Sprintf("optics: transmitter (%d,%d) out of OTIS(%d,%d)", i, j, b.P, b.Q))
	}
	return (float64(i*b.Q+j) + 0.5) * b.Pitch
}

// ReceiverX returns the transverse position of receiver (k, l): group k of
// q, element l of p.
func (b *Bench) ReceiverX(k, l int) float64 {
	if k < 0 || k >= b.Q || l < 0 || l >= b.P {
		panic(fmt.Sprintf("optics: receiver (%d,%d) out of OTIS(%d,%d)", k, l, b.P, b.Q))
	}
	return (float64(k*b.P+l) + 0.5) * b.Pitch
}

// Lens1X returns the centre of lens i of array L1 (which spans one
// transmitter group).
func (b *Bench) Lens1X(i int) float64 {
	return (float64(i) + 0.5) * b.Aperture() / float64(b.P)
}

// Lens2X returns the centre of lens k of array L2 (which spans one
// receiver group).
func (b *Bench) Lens2X(k int) float64 {
	return (float64(k) + 0.5) * b.Aperture() / float64(b.Q)
}

// Trajectory records a traced beam through the bench.
type Trajectory struct {
	I, J   int     // source transmitter (group, element)
	X0     float64 // launch position on the transmitter plane
	Lens1  int     // index of the L1 lens traversed
	X2     float64 // arrival position on the L2 plane
	Lens2  int     // index of the L2 lens traversed
	X3     float64 // arrival position on the receiver plane
	RxI    int     // receiver group hit
	RxJ    int     // receiver element hit
	Loss   float64 // optical loss along the path, in dB
	Length float64 // geometric path length (paraxial, metres)
}

// LensLossDB is the per-surface insertion loss assumed for each lenslet
// (anti-reflection coated doublet, ~0.25 dB per lens, two lenses).
const LensLossDB = 0.25

// Trace images transmitter (i, j) through both lenslet arrays and returns
// the full trajectory: the landing cell of land plus the optical loss and
// the geometric path length.
func (b *Bench) Trace(i, j int) Trajectory {
	l := b.land(i, j)
	return Trajectory{
		I: i, J: j,
		X0:     l.x0,
		Lens1:  i,
		X2:     l.x2,
		Lens2:  l.lens2,
		X3:     l.x3,
		RxI:    l.slot / b.P,
		RxJ:    l.slot % b.P,
		Loss:   2 * LensLossDB,
		Length: b.pathLength(l.x0, l.c1, l.x2, l.x3),
	}
}

// landing is where one beam crosses each plane of the bench.
type landing struct {
	x0, c1, x2, x3 float64 // transmitter, L1 centre, L2 plane, receiver plane
	lens2          int     // L2 lens traversed
	slot           int     // receiver cell hit: receiver (slot/p, slot mod p)
}

// land images transmitter (i, j) through both lenslet arrays to the
// receiver cell it hits. The imaging equations are exact in the paraxial
// model:
//
//	stage 1 (lens i of L1, inversion ×p about the lens centre):
//	    x2 = A/2 - p·(x0 - Lens1X(i))
//	stage 2 (lens k of L2, inversion ×1/q about the plane centre):
//	    x3 = Lens2X(k) - (Lens1X(i) - A/2)/q
func (b *Bench) land(i, j int) landing {
	x0 := b.TransmitterX(i, j)
	a := b.Aperture()
	c1 := b.Lens1X(i)
	// Stage 1: each group lens images its group across the full L2
	// aperture, inverted.
	x2 := a/2 - float64(b.P)*(x0-c1)
	lens2 := int(x2 / (a / float64(b.Q)))
	if lens2 == b.Q { // exact upper edge
		lens2 = b.Q - 1
	}
	// Stage 2: lens2 images the L1 plane onto its receiver group,
	// inverted and demagnified.
	x3 := b.Lens2X(lens2) - (c1-a/2)/float64(b.Q)
	// Identify the receiver cell containing x3.
	slot := int(x3 / b.Pitch)
	if slot == b.P*b.Q {
		slot = b.P*b.Q - 1
	}
	return landing{x0: x0, c1: c1, x2: x2, x3: x3, lens2: lens2, slot: slot}
}

// pathLength sums the three straight paraxial segments.
func (b *Bench) pathLength(x0, x1, x2, x3 float64) float64 {
	seg := func(dx, dz float64) float64 { return math.Hypot(dx, dz) }
	return seg(x1-x0, b.Z01) + seg(x2-x1, b.Z12) + seg(x3-x2, b.Z23)
}

// VerifyTranspose images every transmitter to its landing cell and checks
// that the cell is the OTIS transpose (q-j-1, p-i-1). It returns the first
// discrepancy, or nil if the bench realizes the interconnect exactly.
// Receiver (k, l) is cell k·p + l, so comparing cells compares receivers.
func (b *Bench) VerifyTranspose() error {
	for i := 0; i < b.P; i++ {
		for j := 0; j < b.Q; j++ {
			wantI, wantJ := b.Q-j-1, b.P-i-1
			if got := b.land(i, j).slot; got != wantI*b.P+wantJ {
				return fmt.Errorf("optics: transmitter (%d,%d) imaged to receiver (%d,%d), want (%d,%d)",
					i, j, got/b.P, got%b.P, wantI, wantJ)
			}
		}
	}
	return nil
}
