package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/serve"
)

// TestNewServerTimeouts: the server both modes build sets every timeout,
// the write timeout outlasts the read timeouts (it covers the run), and
// a request served through it on a loopback listener completes.
func TestNewServerTimeouts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "pong") })
	srv := newServer("127.0.0.1:0", mux)
	if srv.Addr != "127.0.0.1:0" || srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("newServer leaves a timeout unset: %+v", srv)
	}
	if srv.WriteTimeout <= srv.ReadTimeout || srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Fatalf("timeouts out of order: header %v, read %v, write %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil || string(body) != "pong" {
		t.Fatalf("GET /ping: %q, %v", body, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestRunRequestLimits drives the HTTP API in process: a run asking for
// more than maxRunPackets packets is refused with 400 before any packet
// is generated, a request body over maxBodyBytes with 413, and an
// ordinary run is served.
func TestRunRequestLimits(t *testing.T) {
	g := debruijn.DeBruijn(2, 4)
	sched, err := serve.New(g, serve.Config{ChaosRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Start(1); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	registerAPI(mux, sched, g.N())
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	if rec := post("/v1/session", `{"tenant":"acme"}`); rec.Code != http.StatusOK {
		t.Fatalf("create session: %d %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"one packet over the limit", "/v1/run", `{"session":0,"packets":65537}`, http.StatusBadRequest},
		{"oversized run body", "/v1/run", `{"session":0,"seed":` + strings.Repeat("1", maxBodyBytes) + `}`, http.StatusRequestEntityTooLarge},
		{"oversized session body", "/v1/session", `{"tenant":"` + strings.Repeat("a", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"malformed body", "/v1/run", `{"session":`, http.StatusBadRequest},
		{"ordinary run", "/v1/run", `{"session":0,"packets":32,"seed":7}`, http.StatusOK},
	} {
		if rec := post(tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
	}
	if _, err := sched.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if tot := sched.SLOReport().Total; tot.Offered != 32 {
		t.Errorf("the scheduler saw %d packets offered, want only the ordinary run's 32", tot.Offered)
	}
}
