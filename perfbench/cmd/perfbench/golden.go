package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/debruijn"
	"repro/internal/machine"
	"repro/internal/optics"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// expected.json holds, per workload and seed, the digest of one pass's
// simulated statistics as the benchmark recorded them when it was
// defined (-record). A speed-only change reproduces every digest; a run
// whose seed has no entry checks each op against the run's own first
// pass instead.
//
//go:embed expected.json
var expectedJSON []byte

// golden is one pass's recorded outcome.
type golden struct {
	Digest     string `json:"digest"`
	Offered    int64  `json:"offered"`
	Delivered  int64  `json:"delivered"`
	LatencySum int64  `json:"latency_sum"`
}

// goldens maps goldenKey to the recorded pass.
type goldens map[string]golden

func goldenKey(workload string, seed int64, inputs int) string {
	return fmt.Sprintf("%s/seed=%d/inputs=%d", workload, seed, inputs)
}

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(expectedJSON, &g); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a completed pass with its golden, if any.
func (b *bench) checkGolden(inputs int, digest string) error {
	g, ok := b.golden[goldenKey(b.workload, b.seed, inputs)]
	if !ok {
		b.expectSource = "first pass of this run (no golden for this seed)"
		return nil
	}
	b.expectSource = "golden " + g.Digest
	if g.Digest != digest {
		pass := b.exp.pass(b.passRun)
		return fmt.Errorf("pass digest %s differs from the golden %s: simulated results changed (offered/delivered/latency sum %d/%d/%d, golden %d/%d/%d)",
			digest, g.Digest, pass.Offered, pass.Delivered, pass.LatencySum, g.Offered, g.Delivered, g.LatencySum)
	}
	return nil
}

// goldenOf records a completed pass.
func goldenOf(e *expectations, run int) golden {
	p := e.pass(run)
	return golden{Digest: e.digest(), Offered: p.Offered, Delivered: p.Delivered, LatencySum: p.LatencySum}
}

// recordGoldens prints the goldens of every workload for the listed
// seeds, computed without timing: the batch passes run once each, and
// serve_chaos replays its request sequence in process, which the traced
// run checks against HTTP request by request.
func recordGoldens(list string, runSeconds float64) int {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: -record:", err)
			return 2
		}
		seeds = append(seeds, s)
	}
	if err := writeGoldens(seeds, runSeconds); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -record:", err)
		return 1
	}
	return 0
}

func writeGoldens(seeds []int64, runSeconds float64) error {
	b := &bench{tr: newTracer(false), layers: map[string]metric{}}
	m, err := machine.Build(otisD, otisDiam, optics.DefaultPitch)
	if err != nil {
		return err
	}
	nw, err := simnet.NewNetwork(debruijn.DeBruijn(shiftD, shiftDiam))
	if err != nil {
		return err
	}
	out := goldens{}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		pool := permPool(rng, otisNodes, otisPool)
		e := newExpectations(otisPool)
		for i, pkts := range pool {
			runs, err := b.plainRun(m.RunOpts, pkts, "", -1, nil)
			if err != nil {
				return err
			}
			_ = e.check(i, runs) // first sight of each input only records
		}
		out[goldenKey("otis_batch", seed, otisPool)] = goldenOf(e, 0)

		rng = rand.New(rand.NewSource(seed))
		pool = permPool(rng, otisNodes, otisPool)
		lenses := rng.Perm(otisLenses)
		e = newExpectations(otisLenses)
		for i, lens := range lenses {
			runs, err := b.lensStudy(m, pool[i%otisPool], lens, -1)
			if err != nil {
				return err
			}
			_ = e.check(i, runs) // first sight of each input only records
		}
		out[goldenKey("otis_lens", seed, otisLenses)] = goldenOf(e, 1)

		rng = rand.New(rand.NewSource(seed))
		pool = permPool(rng, shiftNodes, shiftPool)
		e = newExpectations(shiftPool)
		for i, pkts := range pool {
			runs, err := b.plainRun(nw.RunOpts, pkts, "", -1, nil)
			if err != nil {
				return err
			}
			_ = e.check(i, runs) // first sight of each input only records
		}
		out[goldenKey("shift_scale", seed, shiftPool)] = goldenOf(e, 0)

		n := max(int(math.Round(chaosRate*runSeconds)), minOps+1)
		c := newChaosRun(b, seed, n)
		e = newExpectations(n)
		err := replaySequence(b.tr, -1, c.seeds, func(i int, out serve.Outcome, _ float64) error {
			return e.check(i, []simStats{healStats(out)})
		})
		if err != nil {
			return err
		}
		out[goldenKey("serve_chaos", seed, n)] = goldenOf(e, 0)
		fmt.Fprintf(os.Stderr, "perfbench: recorded seed %d\n", seed)
	}
	runtime.KeepAlive(m)
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(out[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		sb.WriteString(fmt.Sprintf("  %q: %s%s\n", k, v, sep))
	}
	sb.WriteString("}\n")
	_, err = os.Stdout.WriteString(sb.String())
	return err
}
