package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/debruijn"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// The serve_chaos workload: the cmd/serve binary on loopback with its
// default always-on chaos, driven over HTTP by an open loop.
const (
	serveD, serveDiam = 2, 8
	serveNodes        = 1 << serveDiam
	// chaosRate is the offered load in requests per second, well below
	// saturation on two vCPUs, so added CPU per request shows in the
	// latency tail before it shows in throughput.
	chaosRate     = 200.0
	chaosSessions = 64
	chaosTenants  = 8
	chaosPackets  = 64
	// chaosSlow is the latency limit: a slower request counts as failed.
	chaosSlow = 50 * time.Millisecond
	// probeRequests is the open loop's length when a batch workload's
	// traced run probes the service layers.
	probeRequests = 200
)

// server is one cmd/serve process on a loopback port.
type server struct {
	cmd            *exec.Cmd
	base           string
	client         *http.Client
	stdout, stderr bytes.Buffer
	exited         chan error
}

// startServer starts bin and waits until it answers HTTP.
func startServer(bin string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s := &server{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			exited: make(chan error, 1),
			client: &http.Client{
				Timeout: 60 * time.Second,
				Transport: &http.Transport{
					MaxConnsPerHost:     runtime.NumCPU(),
					MaxIdleConnsPerHost: runtime.NumCPU(),
					DisableCompression:  true,
				},
			},
		}
		s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port),
			"-d", strconv.Itoa(serveD), "-diam", strconv.Itoa(serveDiam),
			"-workers", strconv.Itoa(runtime.NumCPU()))
		s.cmd.Stdout = &s.stdout
		s.cmd.Stderr = &s.stderr
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() { s.exited <- s.cmd.Wait() }()
		if lastErr = s.waitReady(); lastErr == nil {
			return s, nil
		}
		_ = s.stop() // the readiness error is the one worth reporting
	}
	return nil, fmt.Errorf("cmd/serve did not come up: %w", lastErr)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

func (s *server) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			s.exited <- err
			return fmt.Errorf("exited early (%v): %s", err, s.stderr.String())
		default:
		}
		if _, err := s.get("/v1/sessions"); err == nil {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("no answer on %s within 20s", s.base)
}

// stop sends SIGTERM, which drains the scheduler, and waits for the
// process; it kills the process if the drain does not finish.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case err := <-s.exited: // already gone
			return fmt.Errorf("cmd/serve exited before stop: %v", err)
		default:
		}
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("cmd/serve drain: %v: %s", err, s.stderr.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill() // the wait below reports the outcome
		<-s.exited
		return fmt.Errorf("cmd/serve did not drain within 60s")
	}
}

// do sends one request and returns the body of a 200 response.
func (s *server) do(req *http.Request) ([]byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *server) get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	return s.do(req)
}

func (s *server) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

// sessionConfig is session j's creation request: 8 tenants, and the
// odd tenants' sessions bound their simulated queues at 4 packets.
// There is no admission limit and no deadline, because wall-clock sheds
// would make outcomes nondeterministic.
func sessionConfig(j int) serve.TenantConfig {
	tc := serve.TenantConfig{Tenant: fmt.Sprintf("tenant%d", j%chaosTenants)}
	if (j%chaosTenants)%2 == 1 {
		tc.QueueCapacity = 4
	}
	return tc
}

// chaosRun is one serve_chaos request sequence against one server.
type chaosRun struct {
	b     *bench
	seeds []int64  // request i's packet seed
	body  [][]byte // request i's pre-encoded POST /v1/run body
	srv   *server
	// createMS times each POST /v1/session of the live server.
	createMS []float64
	// resp holds each request's response body and error.
	resp []response
}

type response struct {
	body []byte
	err  error
}

// newChaosRun generates n requests from seed: request i goes to session
// i mod 64 with 64 packets drawn from its own seed.
func newChaosRun(b *bench, seed int64, n int) *chaosRun {
	rng := rand.New(rand.NewSource(seed))
	c := &chaosRun{b: b, seeds: make([]int64, n), body: make([][]byte, n), resp: make([]response, n)}
	for i := range c.seeds {
		c.seeds[i] = rng.Int63()
		c.body[i] = []byte(fmt.Sprintf(`{"session":%d,"packets":%d,"seed":%d}`, i%chaosSessions, chaosPackets, c.seeds[i]))
	}
	return c
}

// start launches a fresh server and opens the 64 sessions.
func (c *chaosRun) start(parent int) error {
	if c.srv != nil {
		return fmt.Errorf("server already running")
	}
	sp := c.b.tr.begin("cmd_serve.start", parent)
	srv, err := startServer(c.b.serveBin)
	c.b.tr.end(sp)
	if err != nil {
		return err
	}
	c.srv = srv
	c.createMS = c.createMS[:0]
	for j := 0; j < chaosSessions; j++ {
		tc := sessionConfig(j)
		body, err := json.Marshal(map[string]any{"tenant": tc.Tenant, "queue_capacity": tc.QueueCapacity})
		if err != nil {
			return err
		}
		var ref struct {
			Session int64 `json:"session"`
		}
		var data []byte
		ms, err := c.b.timed("cmd_serve.session_create", parent, func() error {
			var err error
			data, err = srv.post("/v1/session", body)
			return err
		})
		if err != nil {
			return fmt.Errorf("create session %d: %w", j, err)
		}
		if err := json.Unmarshal(data, &ref); err != nil || ref.Session != int64(j) {
			return fmt.Errorf("create session %d: got %q (%v)", j, data, err)
		}
		c.createMS = append(c.createMS, ms)
	}
	return nil
}

// stop stops the live server, if any.
func (c *chaosRun) stop() error {
	if c.srv == nil {
		return nil
	}
	err := c.srv.stop()
	c.srv = nil
	return err
}

// send performs request i and keeps its response for checking after
// the loop, so that decoding stays out of the measured latency.
func (c *chaosRun) send(i int) {
	body, err := c.srv.post("/v1/run", c.body[i])
	c.resp[i] = response{body: body, err: err}
}

// outcome decodes and checks request i's response.
func (c *chaosRun) outcome(i int) (serve.Outcome, simStats, error) {
	var out serve.Outcome
	if c.resp[i].err != nil {
		return out, simStats{}, c.resp[i].err
	}
	if err := json.Unmarshal(c.resp[i].body, &out); err != nil {
		return out, simStats{}, fmt.Errorf("decode outcome: %w", err)
	}
	st := healStats(out)
	if out.Status != serve.StatusOK {
		return out, st, fmt.Errorf("status %q (cause %q, %s)", out.Status, out.Cause, out.Err)
	}
	if len(out.Heal.Packets) != chaosPackets {
		return out, st, fmt.Errorf("outcome echoes %d packets, want %d", len(out.Heal.Packets), chaosPackets)
	}
	return out, st, nil
}

// healStats extracts a request's simulated statistics.
func healStats(out serve.Outcome) simStats {
	h := out.Heal
	st := statsOf(simnet.RunReport{FaultResult: h.FaultResult}, chaosPackets)
	st.Shed += int64(out.Shed)
	st.Nacks = int64(h.Nacks)
	st.Detections = int64(h.Detections)
	st.Repairs = int64(h.Repairs)
	return st
}

// first runs request 0, the cold first op of set-up.
func (c *chaosRun) first(parent int) ([]simStats, error) {
	sp := c.b.tr.begin("cmd_serve.http", parent)
	c.send(0)
	c.b.tr.end(sp)
	_, st, err := c.outcome(0)
	if err != nil {
		return nil, fmt.Errorf("request 0: %w", err)
	}
	return []simStats{st}, nil
}

// loop offers requests 1..n-1 at chaosRate; the responses are kept
// for checking afterwards.
func (c *chaosRun) loop() []timing {
	return openLoop(len(c.seeds)-1, chaosRate, runtime.NumCPU(),
		func(k int) int { return k - chaosSessions }, // request k+1 follows request k+1-64 on its session
		func(k int) { c.send(k + 1) })
}

// account checks every measured request and records it as an op.
func (c *chaosRun) account(tim []timing) []serve.Outcome {
	b := c.b
	outs := make([]serve.Outcome, len(c.seeds))
	for k, t := range tim {
		i := k + 1
		rec := opRecord{ms: millis(t.latency()), end: seconds(t.done), traced: b.tr.on && i%2 == 0}
		out, st, err := c.outcome(i)
		outs[i] = out
		if err == nil {
			err = b.expect(i, []simStats{st})
		}
		if err != nil {
			b.errorf("request %d: %v", i, err)
			rec.failed = true
		} else {
			rec.pkts = st.Delivered
		}
		// Over the latency limit is a miss, not a wrong answer: it counts
		// as failed without failing the run's checks.
		rec.failed = rec.failed || t.latency() > chaosSlow
		b.ops = append(b.ops, rec)
	}
	return outs
}

// checkSLO validates the server's SLO report and matches its totals
// with the client's sums over every request sent.
func (c *chaosRun) checkSLO() error {
	data, err := c.srv.get("/v1/slo")
	if err != nil {
		return err
	}
	if err := serve.ValidateSLOReport(data); err != nil {
		return fmt.Errorf("SLO report: %w", err)
	}
	var rep serve.SLOReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("SLO report: %w", err)
	}
	var want simStats
	for i := range c.resp {
		_, st, err := c.outcome(i)
		if err != nil {
			return fmt.Errorf("SLO totals: request %d has no outcome: %w", i, err)
		}
		want.add(st)
	}
	got := rep.Total
	if got.Offered != want.Offered || got.Delivered != want.Delivered || got.Dropped != want.Dropped || got.Shed != want.Shed || rep.Sessions != chaosSessions {
		return fmt.Errorf("SLO totals offered/delivered/dropped/shed %d/%d/%d/%d over %d sessions, client sums %d/%d/%d/%d over %d",
			got.Offered, got.Delivered, got.Dropped, got.Shed, rep.Sessions, want.Offered, want.Delivered, want.Dropped, want.Shed, chaosSessions)
	}
	return nil
}

// serverHeapMB forces a collection in the server and reads its live heap.
func (c *chaosRun) serverHeapMB() (float64, error) {
	if _, err := c.srv.get("/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	data, err := c.srv.get("/debug/vars")
	if err != nil {
		return 0, err
	}
	var vars struct {
		Memstats struct {
			HeapAlloc uint64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		return 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return float64(vars.Memstats.HeapAlloc) / (1 << 20), nil
}

// finish checks the SLO report and stops the server, whose drain must
// succeed and print a valid final report.
func (c *chaosRun) finish() error {
	if err := c.checkSLO(); err != nil {
		return err
	}
	srv := c.srv
	if err := c.stop(); err != nil {
		return err
	}
	if err := serve.ValidateSLOReport(srv.stdout.Bytes()); err != nil {
		return fmt.Errorf("final SLO report on drain: %w", err)
	}
	return nil
}

// setLayers reports the service per-layer metrics of a request
// sequence, recording each request's HTTP span with the server-reported
// scheduler time as its child.
func (c *chaosRun) setLayers(tim []timing, outs []serve.Outcome, epoch time.Time) error {
	b := c.b
	var httpMS, schedMS, lateMS []float64
	var bytesSum float64
	var nacks, detections int64
	repairs := map[int]int64{}
	for k, t := range tim {
		i := k + 1
		out := outs[i]
		sched := time.Duration(out.LatencyNS)
		sp := b.tr.add("cmd_serve.http", epoch.Add(t.sent), epoch.Add(t.done), -1)
		b.tr.add("serve.scheduler", epoch.Add(t.done-sched), epoch.Add(t.done), sp)
		httpMS = append(httpMS, millis(t.done-t.sent-sched))
		schedMS = append(schedMS, millis(sched))
		lateMS = append(lateMS, millis(t.late()))
		bytesSum += float64(len(c.resp[i].body))
		nacks += int64(out.Heal.Nacks)
		detections += int64(out.Heal.Detections)
		repairs[i%chaosSessions] = int64(out.Heal.Repairs) // cumulative per session
	}
	var repairSum int64
	for _, r := range repairs {
		repairSum += r
	}
	perK := 1000 / float64(len(tim))
	sched90, err := percentile(schedMS, 0.9)
	if err != nil {
		return fmt.Errorf("serve.sched_ms_p90: %w", err)
	}
	late90, err := percentile(lateMS, 0.9)
	if err != nil {
		return fmt.Errorf("bench.gen_late_ms_p90: %w", err)
	}
	b.setLayer("cmd_serve.http_ms_p50", median(httpMS), "ms")
	b.setLayer("cmd_serve.resp_kb", bytesSum/float64(len(tim))/1024, "KiB")
	b.setLayer("serve.sched_ms_p50", median(schedMS), "ms")
	b.setLayer("serve.sched_ms_p90", sched90, "ms")
	b.setLayer("simnet.heal_repairs", float64(repairSum)*perK, "1/kreq")
	b.setLayer("simnet.heal_nacks", float64(nacks)*perK, "1/kreq")
	b.setLayer("simnet.heal_detections", float64(detections)*perK, "1/kreq")
	b.setLayer("cmd_serve.session_create_ms", median(c.createMS), "ms")
	b.setLayer("bench.gen_late_ms_p50", median(lateMS), "ms")
	b.setLayer("bench.gen_late_ms_p90", late90, "ms")
	return nil
}

// replay submits the same request sequence in process and checks that
// every request's simulated statistics match what the server returned.
func (c *chaosRun) replay(parent int) error {
	var submitMS []float64
	err := replaySequence(c.b.tr, parent, c.seeds, func(i int, out serve.Outcome, ms float64) error {
		submitMS = append(submitMS, ms)
		_, want, err := c.outcome(i)
		if err != nil {
			return nil // already counted as a failed request
		}
		if got := healStats(out); got != want {
			return fmt.Errorf("replay: request %d differs from HTTP: %s", i, diffStats(want, got))
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.b.setLayer("serve.submit_ms_p50", median(submitMS), "ms")
	return nil
}

// replaySequence submits requests in process, one at a time, through
// serve.New and Scheduler.Submit, with the sessions and defaults
// cmd/serve uses, and passes each outcome and its Submit time to each.
func replaySequence(tr *tracer, parent int, seeds []int64, each func(i int, out serve.Outcome, ms float64) error) (err error) {
	sched, err := serve.New(debruijn.DeBruijn(serveD, serveDiam), serve.Config{})
	if err != nil {
		return err
	}
	if err := sched.Start(runtime.NumCPU()); err != nil {
		return err
	}
	defer func() {
		if _, serr := sched.Shutdown(); err == nil && serr != nil {
			err = fmt.Errorf("replay: shutdown: %w", serr)
		}
	}()
	for j := 0; j < chaosSessions; j++ {
		sid, err := sched.CreateSession(sessionConfig(j))
		if err != nil || sid != int64(j) {
			return fmt.Errorf("replay: session %d: got %d (%v)", j, sid, err)
		}
	}
	for i, seed := range seeds {
		pkts := simnet.UniformLoad(chaosPackets).Packets(serveNodes, seed)
		sp := tr.begin("serve.submit", parent)
		t0 := time.Now()
		out, err := sched.Submit(int64(i%chaosSessions), pkts)
		ms := millis(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay: request %d: %w", i, err)
		}
		if err := each(i, out, ms); err != nil {
			return err
		}
	}
	return nil
}

// serveChaos: the HTTP → scheduler → heal → SLO path tenants use.
func serveChaos(b *bench) error {
	n := int(math.Round(chaosRate * b.seconds))
	if n < minOps+1 {
		n = minOps + 1
	}
	c := newChaosRun(b, b.seed, n)
	defer func() { _ = c.stop() }() // error paths only; finish stops and checks
	b.exp = newExpectations(n)
	_, err := setupReps(b, setupHooks[*chaosRun]{
		build: func(parent int) (*chaosRun, error) { return c, c.start(parent) },
		first: func(c *chaosRun, parent int) ([]simStats, error) { return c.first(parent) },
		reset: func(c *chaosRun) error { return c.stop() },
	})
	if err != nil {
		return err
	}
	epoch := time.Now()
	tim := c.loop()
	outs := c.account(tim)
	if b.heapMB, err = c.serverHeapMB(); err != nil {
		return err
	}
	if err := c.finish(); err != nil {
		return err
	}
	if !b.tr.on {
		return nil
	}
	if err := c.setLayers(tim, outs, epoch); err != nil {
		return err
	}
	if err := c.replay(-1); err != nil {
		return err
	}
	if err := b.probeServeNetwork(c.seeds); err != nil {
		return err
	}
	return b.probeMachine(nil, nil, nil, nil)
}

// probeService measures the service per-layer metrics for a batch
// workload's traced run: a fresh server, a short open loop and its
// in-process replay.
func (b *bench) probeService() error {
	sp := b.tr.begin("probe.service", -1)
	defer b.tr.end(sp)
	c := newChaosRun(b, b.seed, probeRequests+1)
	defer func() { _ = c.stop() }() // error paths only; finish stops and checks
	if err := c.start(sp); err != nil {
		return err
	}
	if _, err := c.first(sp); err != nil {
		return err
	}
	epoch := time.Now()
	tim := c.loop()
	outs := make([]serve.Outcome, len(c.seeds))
	for k := range tim {
		out, _, err := c.outcome(k + 1)
		if err != nil {
			return fmt.Errorf("service probe: request %d: %w", k+1, err)
		}
		outs[k+1] = out
	}
	if err := c.finish(); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	if err := c.setLayers(tim, outs, epoch); err != nil {
		return err
	}
	return c.replay(sp)
}
