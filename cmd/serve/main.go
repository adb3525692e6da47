// serve is the long-lived multi-tenant session service: an HTTP/JSON
// front end over the internal/serve scheduler, hosting many concurrent
// persistent self-healing simulation sessions on one shared compiled
// B(d,D) network, with always-on background chaos and per-tenant SLO
// accounting.
//
// Usage:
//
//	serve -addr :8080 -d 2 -diam 8 -workers 8 -chaos 2
//
// Endpoints:
//
//	POST /v1/session   {"tenant":"acme","queue_capacity":8}   -> {"session":0}
//	POST /v1/run       {"session":0,"packets":256,"seed":7}   -> serve.Outcome
//	POST /v1/close     {"session":0}                          -> {"closed":0}
//	GET  /v1/status?session=0                                 -> serve.SessionStatus
//	GET  /v1/sessions                                         -> [serve.SessionStatus]
//	GET  /v1/slo                                              -> SLO_report/v1
//	GET  /debug/vars                                          -> expvar (per-tenant registries under tenant_<name>)
//	GET  /debug/pprof/                                        -> pprof
//
// SIGINT/SIGTERM drain gracefully: in-flight runs complete, queued
// requests shed with exact accounting, and the final SLO report is
// written to stdout.
//
// Self-drive modes (no HTTP client needed, used by scripts/check.sh):
//
//	serve -smoke              # start, drive N tenants over HTTP, validate SLO, drain
//	serve -loadtest           # direct scheduler load: -sessions/-tenants/-runs/-packets
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/debruijn"
	"repro/internal/serve"
	"repro/internal/simnet"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	d := flag.Int("d", 2, "de Bruijn degree")
	diam := flag.Int("diam", 8, "de Bruijn diameter")
	workers := flag.Int("workers", 8, "scheduler worker pool size")
	maxSessions := flag.Int("max-sessions", 4096, "live session cap")
	queueDepth := flag.Int("queue-depth", 16, "per-session request queue depth")
	chaos := flag.Float64("chaos", 2, "background chaos rate (faults per 1000 session cycles; <0 disables)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos seed")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain deadline on shutdown")
	smoke := flag.Bool("smoke", false, "self-drive an HTTP smoke test and exit")
	loadtest := flag.Bool("loadtest", false, "run the scheduler load test and exit")
	sessions := flag.Int("sessions", 1000, "loadtest: session count")
	tenants := flag.Int("tenants", 20, "loadtest: tenant count")
	runs := flag.Int("runs", 2, "loadtest: submits per session")
	packets := flag.Int("packets", 16, "loadtest: packets per submit")
	flag.Parse()

	g := debruijn.DeBruijn(*d, *diam)
	sched, err := serve.New(g, serve.Config{
		MaxSessions:   *maxSessions,
		QueueDepth:    *queueDepth,
		DrainDeadline: int64(*drain),
		ChaosRate:     *chaos,
		ChaosSeed:     *chaosSeed,
		Now:           func() int64 { return time.Now().UnixNano() },
		ExpvarPrefix:  "tenant",
	})
	if err != nil {
		fatal(err)
	}
	if err := sched.Start(*workers); err != nil {
		fatal(err)
	}

	switch {
	case *loadtest:
		if err := runLoadTest(sched, g.N(), *sessions, *tenants, *runs, *packets); err != nil {
			fatal(err)
		}
		return
	case *smoke:
		if err := runSmoke(sched, g.N()); err != nil {
			fatal(err)
		}
		return
	}

	mux := http.DefaultServeMux
	registerAPI(mux, sched, g.N())
	srv := newServer(*addr, mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serve: B(%d,%d), %d nodes, listening on %s\n", *d, *diam, g.N(), *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "serve: %v, draining\n", got)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: http close: %v\n", err)
	}
	stats, err := sched.Shutdown()
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "serve: drained %d sessions in %s\n", stats.Sessions, time.Duration(stats.Duration))
	emitSLO(sched)
	if err != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}

func emitSLO(sched *serve.Scheduler) {
	data, err := sched.SLOReport().MarshalIndent()
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stdout.Write(data); err != nil {
		fatal(err)
	}
}

// Request limits, checked before a request reaches the scheduler.
const (
	// maxRunPackets bounds a /v1/run request's packet count, far above
	// the 32–256 packets clients send, so one request cannot size an
	// arbitrary packet table before admission sees it.
	maxRunPackets = 1 << 16
	// maxBodyBytes bounds every JSON request body; each request object
	// is a few hundred bytes.
	maxBodyBytes = 1 << 12
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, and readTimeout the whole request, body included:
	// a body is at most maxBodyBytes, so a client trickling it is cut off.
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	// writeTimeout bounds a request from the end of its headers to the
	// end of its response, the run included, so it must exceed the
	// slowest run the limits above admit: a maxRunPackets run on the
	// default B(2,8) session with chaos on took 1.8–4.1 s over three
	// chaos seeds on a 2-vCPU Xeon, so a minute leaves room for a
	// slower host.
	writeTimeout = time.Minute
	// idleTimeout closes a keep-alive connection that sends no request.
	idleTimeout = time.Minute
)

// newServer returns the HTTP server for handler at addr with every
// timeout above set.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// API wire types.
type createReq struct {
	Tenant         string  `json:"tenant"`
	AdmissionRate  float64 `json:"admission_rate,omitempty"`  // packets/second; 0: unlimited
	AdmissionBurst int     `json:"admission_burst,omitempty"` // packets
	QueueCapacity  int     `json:"queue_capacity,omitempty"`
	HoldBudget     int     `json:"hold_budget,omitempty"`
	TimeoutMS      int64   `json:"timeout_ms,omitempty"`
	MaxRetries     int     `json:"max_retries,omitempty"`
}

type runReq struct {
	Session int64 `json:"session"`
	Packets int   `json:"packets"`
	Seed    int64 `json:"seed"`
}

type sessionRef struct {
	Session int64 `json:"session"`
}

func registerAPI(mux *http.ServeMux, sched *serve.Scheduler, n int) {
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, r *http.Request) {
		var req createReq
		if !decode(w, r, &req) {
			return
		}
		tc := serve.TenantConfig{
			Tenant:         req.Tenant,
			QueueCapacity:  req.QueueCapacity,
			HoldBudget:     req.HoldBudget,
			RequestTimeout: req.TimeoutMS * int64(time.Millisecond),
			MaxRetries:     req.MaxRetries,
		}
		if req.AdmissionRate > 0 {
			tc.Admission = &serve.AdmissionConfig{Rate: req.AdmissionRate, Burst: req.AdmissionBurst}
		}
		sid, err := sched.CreateSession(tc)
		if err != nil {
			httpErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, sessionRef{Session: sid})
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req runReq
		if !decode(w, r, &req) {
			return
		}
		if req.Packets <= 0 {
			req.Packets = 64
		}
		if req.Packets > maxRunPackets {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("packets %d exceeds the limit of %d per run", req.Packets, maxRunPackets))
			return
		}
		out, err := sched.Submit(req.Session, simnet.UniformRandom(n, req.Packets, req.Seed))
		if err != nil {
			httpErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("POST /v1/close", func(w http.ResponseWriter, r *http.Request) {
		var req sessionRef
		if !decode(w, r, &req) {
			return
		}
		if err := sched.CloseSession(req.Session); err != nil {
			httpErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, map[string]int64{"closed": req.Session})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		var sid int64
		if _, err := fmt.Sscan(r.URL.Query().Get("session"), &sid); err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("session query parameter: %w", err))
			return
		}
		st, err := sched.Status(sid)
		if err != nil {
			httpErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sched.Sessions())
	})
	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
		data, err := sched.SLOReport().MarshalIndent()
		if err != nil {
			httpErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(data); err != nil {
			fmt.Fprintf(os.Stderr, "serve: slo write: %v\n", err)
		}
	})
}

// decode reads one JSON request body of at most maxBodyBytes into v.
// On failure it writes the error response itself, 413 for an oversized
// body and 400 for a malformed one, and returns false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpErr(w, code, err)
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "serve: response write: %v\n", err)
	}
}

func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); err != nil {
		fmt.Fprintf(os.Stderr, "serve: error write: %v\n", err)
	}
}

// runSmoke starts the HTTP server on a loopback port and drives it the
// way a client would: create tenants with different knobs, run load,
// read status and the SLO report, validate it, then drain — the
// scripts/check.sh service gate, with no external HTTP tooling needed.
func runSmoke(sched *serve.Scheduler, n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	registerAPI(mux, sched, n)
	srv := newServer("", mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	post := func(path string, body any, out any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "serve: body close: %v\n", err)
			}
		}()
		if resp.StatusCode != http.StatusOK {
			var e map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("%s: %s (%s)", path, resp.Status, e["error"])
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	const tenants = 4
	const perTenant = 8
	var sids []int64
	for t := 0; t < tenants; t++ {
		cr := createReq{Tenant: fmt.Sprintf("smoke_%d", t)}
		if t == tenants-1 {
			cr.AdmissionRate = 1 // starved tenant: sheds under load
			cr.AdmissionBurst = 64
		}
		for k := 0; k < perTenant; k++ {
			var ref sessionRef
			if err := post("/v1/session", cr, &ref); err != nil {
				return err
			}
			sids = append(sids, ref.Session)
		}
	}
	for r := 0; r < 3; r++ {
		for i, sid := range sids {
			var out serve.Outcome
			if err := post("/v1/run", runReq{Session: sid, Packets: 32, Seed: int64(i*10 + r)}, &out); err != nil {
				return err
			}
			if out.Status != serve.StatusOK && out.Status != serve.StatusShed {
				return fmt.Errorf("session %d: outcome status %q", sid, out.Status)
			}
		}
	}
	var st serve.SessionStatus
	resp, err := client.Get(fmt.Sprintf("%s/v1/status?session=%d", base, sids[0]))
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if st.Runs == 0 {
		return fmt.Errorf("session %d reports 0 runs after load", sids[0])
	}
	resp, err = client.Get(base + "/v1/slo")
	if err != nil {
		return err
	}
	sloData, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := serve.ValidateSLOReport(sloData); err != nil {
		return fmt.Errorf("SLO report over HTTP does not validate: %w", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed
	start := time.Now()
	stats, err := sched.Shutdown()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: smoke ok — %d sessions, drained in %s (wall %s)\n",
		len(sids), time.Duration(stats.Duration), time.Since(start))
	emitSLO(sched)
	return nil
}

// runLoadTest drives the scheduler directly (no HTTP) at scale and
// asserts the aggregate accounting invariant.
func runLoadTest(sched *serve.Scheduler, n, sessions, tenants, runs, packets int) error {
	if tenants < 1 {
		tenants = 1
	}
	sids := make([]int64, sessions)
	for i := range sids {
		var err error
		sids[i], err = sched.CreateSession(serve.TenantConfig{
			Tenant: fmt.Sprintf("load_%d", i%tenants),
		})
		if err != nil {
			return err
		}
	}
	start := time.Now()
	const drivers = 32
	errs := make(chan error, drivers)
	for w := 0; w < drivers; w++ {
		go func(w int) {
			for i := w; i < sessions; i += drivers {
				for r := 0; r < runs; r++ {
					if _, err := sched.Submit(sids[i], simnet.UniformRandom(n, packets, int64(i*runs+r))); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < drivers; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	wall := time.Since(start)
	stats, err := sched.Shutdown()
	if err != nil {
		return err
	}
	rep := sched.SLOReport()
	data, err := rep.MarshalIndent()
	if err != nil {
		return err
	}
	if err := serve.ValidateSLOReport(data); err != nil {
		return fmt.Errorf("SLO report does not validate after load: %w", err)
	}
	want := int64(sessions * runs * packets)
	if rep.Total.Offered != want {
		return fmt.Errorf("offered %d, want %d", rep.Total.Offered, want)
	}
	if got := rep.Total.Delivered + rep.Total.Dropped + rep.Total.Shed; got != rep.Total.Offered {
		return fmt.Errorf("accounting %d != offered %d — packets lost", got, rep.Total.Offered)
	}
	fmt.Fprintf(os.Stderr,
		"serve: loadtest ok — %d sessions, %d tenants, %d offered, %.3f delivered fraction, %s wall, drained %d sessions in %s\n",
		sessions, tenants, rep.Total.Offered, rep.Total.DeliveredFraction, wall,
		stats.Sessions, time.Duration(stats.Duration))
	if _, err := os.Stdout.Write(data); err != nil {
		return err
	}
	return nil
}
