package core

import (
	"fmt"

	"repro/internal/debruijn"
	"repro/internal/machine"
	"repro/internal/optics"
	"repro/internal/simnet"
)

// End-to-end claims: the assembled machine and the operational regimes.

func init() {
	register(Claim{
		ID:        "X-MACHINE",
		Statement: "end-to-end machine: layout + optics + witness + routing audit",
		Check: func() error {
			m, err := machine.Build(2, 8, optics.DefaultPitch)
			if err != nil {
				return err
			}
			if _, err := m.Audit(); err != nil {
				return err
			}
			res, err := m.RunOpts(simnet.UniformLoad(512), simnet.WithSeed(123))
			if err != nil {
				return err
			}
			if res.Delivered != 512 || res.MaxHops > 8 {
				return fmt.Errorf("machine traffic: %v", res)
			}
			return nil
		},
	})

	register(Claim{
		ID:        "X-DEFLECT",
		Statement: "bufferless hot-potato routing delivers everything on B(d,D)",
		Check: func() error {
			g := debruijn.DeBruijn(2, 5)
			nw, err := simnet.NewNetwork(g)
			if err != nil {
				return err
			}
			dn, err := simnet.NewDeflection(nw)
			if err != nil {
				return err
			}
			res, err := dn.Run(simnet.UniformRandom(g.N(), 300, 124))
			if err != nil {
				return err
			}
			if res.Delivered != 300 {
				return fmt.Errorf("deflection lost packets: %v", res)
			}
			return nil
		},
	})

	register(Claim{
		ID:        "X-TDM",
		Statement: "König: d conflict-free TDM slots cover every optical beam",
		Check: func() error {
			g := debruijn.DeBruijn(2, 6)
			factors, err := g.OneFactorization(2)
			if err != nil {
				return err
			}
			return g.VerifyFactorization(factors)
		},
	})

	register(Claim{
		ID:        "X-TOL",
		Statement: "assembly tolerances: ~half-pitch receiver-plane alignment margin",
		Check: func() error {
			b, err := optics.NewBench(16, 32, optics.DefaultPitch)
			if err != nil {
				return err
			}
			tol := b.ReceiverShiftTolerance()
			if tol < b.Pitch/3 {
				return fmt.Errorf("receiver tolerance %.1f µm too tight", tol*1e6)
			}
			if b.MisalignmentErrors(0, 0) != 0 {
				return fmt.Errorf("aligned bench has beam errors")
			}
			return nil
		},
	})
}
