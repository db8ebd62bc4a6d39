package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"robustdb"
	"robustdb/internal/admission"
	"robustdb/internal/journal"
	"robustdb/internal/obs"
	"robustdb/internal/server"
)

// startServe runs the command in serve mode on a free local port, through
// run like a shell would, and returns once /healthz answers. stop sends the
// process SIGTERM and returns the exit status of the orderly drain.
func startServe(t *testing.T, args ...string) (addr string, stop func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	served := make(chan int, 1)
	var stderr bytes.Buffer
	go func() { served <- run(append(args, "-serve", addr), io.Discard, &stderr) }()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case status := <-served:
			t.Fatalf("serve mode exited %d before /healthz answered: %s", status, &stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz: %v", err)
		}
	}
	return addr, func() int {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case status := <-served:
			if status != 0 {
				t.Logf("stderr: %s", &stderr)
			}
			return status
		case <-time.After(30 * time.Second):
			t.Fatal("serve mode did not return after SIGTERM")
			return -1
		}
	}
}

// TestFirstBackgroundPassPrecedesServing pins the serve mode's start-up
// order: whatever a client reads first already counts the background
// tenant's whole first pass, and with a long cooldown nothing is added to it
// afterwards, not by a sampling window either — so a client that brackets its
// own requests with two /metrics scrapes counts exactly those requests.
func TestFirstBackgroundPassPrecedesServing(t *testing.T) {
	addr, stop := startServe(t, "-sf", "1", "-rows", "2000", "-seed", "1", "-cache-frac", "1",
		"-serve-cooldown", "1h", "-log-level", "error")
	requests := func() string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "robustdb_server_requests_total "); ok {
				return v
			}
		}
		t.Fatal("/metrics has no robustdb_server_requests_total")
		return ""
	}
	want := fmt.Sprint(len(robustdb.SSBQueries()))
	if got := requests(); got != want {
		t.Errorf("first scrape: %s requests, want the whole background pass (%s)", got, want)
	}
	time.Sleep(serveWindow + 100*time.Millisecond) // the detectors sample, no request is made
	if got := requests(); got != want {
		t.Errorf("second scrape: %s requests, want still %s", got, want)
	}
	// The orderly drain is part of the contract: SIGTERM, exit 0.
	if status := stop(); status != 0 {
		t.Fatalf("exit status %d after SIGTERM", status)
	}
}

// TestStalledHeaderIsDisconnected pins the serve mode's slow-client bound: a
// connection that starts a request and never finishes its header is closed
// by the server after readHeaderTimeout, without a handler ever running.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	t.Parallel() // the test waits out the real timeout
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("handler ran for a request whose header never completed")
	}))
	ts.Config = newHTTPServer(ts.Config.Handler)
	if ts.Config.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v: a long query must not be cut off by the socket", ts.Config.WriteTimeout)
	}
	if ts.Config.IdleTimeout != idleTimeout {
		t.Fatalf("IdleTimeout = %v, want %v", ts.Config.IdleTimeout, idleTimeout)
	}
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/query HTTP/1.1\r\nHost: stall\r\n"); err != nil {
		t.Fatal(err)
	}
	// No blank line follows. The server must hang up; the read deadline only
	// keeps a server that does not from hanging the test.
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := conn.Read(make([]byte, 1))
	if n != 0 || err != io.EOF {
		t.Fatalf("read %d bytes, err %v; want the server to close the connection (io.EOF)", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestGCPercentFor pins the serve mode's collection pacing: a small heap may
// grow by gcHeadroom before it is collected, a heap past gcHeadroom keeps the
// runtime's default.
func TestGCPercentFor(t *testing.T) {
	for _, c := range []struct {
		live uint64
		want int
	}{
		{0, 100},
		{16 << 20, 400},
		{gcHeadroom / 2, 200},
		{gcHeadroom, 100},
		{1 << 30, 100},
	} {
		if got := gcPercentFor(c.live); got != c.want {
			t.Errorf("gcPercentFor(%d MB) = %d, want %d", c.live>>20, got, c.want)
		}
	}
}

// TestBenchLineKeepsItsSettings pins what the benchmark's server line runs
// with, which no flag sets: 8 queries admitted under data-driven chopping, a
// queue of 64 with 17 a tenant, 5 s of queue wait for a submitter that names
// none (admission's TestZeroConfigDefaults), a 500 ms window, a journal of 256
// entries gated at 100 ms and q-error 16, and a heap as large as the database.
func TestBenchLineKeepsItsSettings(t *testing.T) {
	o, err := parseFlags(benchLines[0], io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := o.serveConfig(obs.NewLogger(io.Discard, slog.LevelError))
	if err != nil {
		t.Fatal(err)
	}
	if heap, db := cfg.Engine.Heap.Capacity(), cfg.Catalog.TotalBytes(); heap != db {
		t.Errorf("device heap %d bytes, want the database's %d", heap, db)
	}
	if a := cfg.Admission; a.Policy != admission.Fair || a.MaxConcurrent != 0 || a.MaxQueue != 0 || a.MaxTenantQueue != 0 {
		t.Errorf("admission config %+v, want the fair policy under the controller's own bounds", a)
	}
	if serveWindow != 500*time.Millisecond {
		t.Errorf("serve window %v, want 500ms", serveWindow)
	}
	j := cfg.Journal
	for _, c := range []struct {
		latency time.Duration
		qerror  float64
		want    string
	}{{99 * time.Millisecond, 15.9, ""}, {100 * time.Millisecond, 0, "latency"}, {0, 16, "qerror"}} {
		if got := j.Reason(c.latency, c.qerror, false); got != c.want {
			t.Errorf("journal reason at %v and q-error %g: %q, want %q", c.latency, c.qerror, got, c.want)
		}
	}
	for i := 0; i < 300; i++ {
		j.Record(journal.Entry{})
	}
	if j.Len() != 256 {
		t.Errorf("journal holds %d entries, want 256", j.Len())
	}

	front, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := front.Admission()
	var admitted []*admission.Ticket
	for i := 0; i < 8; i++ {
		tk, err := ctrl.Submit("bench", 0, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, tk)
	}
	if s := ctrl.Stats(); s.ConcurrencyLimit != 8 || s.InFlight != 8 {
		t.Errorf("concurrency limit %d with %d in flight, want 8 and 8", s.ConcurrencyLimit, s.InFlight)
	}
	submit := func(tenant string, n int) error {
		for i := 0; i < n; i++ {
			if _, err := ctrl.Submit(tenant, 0, time.Minute); err != nil {
				return err
			}
		}
		return nil
	}
	if err := submit("bench", 18); err == nil || !strings.Contains(err.Error(), "tenant queue full (17)") {
		t.Errorf("the 18th query a tenant queues: %v, want a tenant queue of 17", err)
	}
	if err := submit("a", 17); err != nil {
		t.Fatal(err)
	}
	if err := submit("b", 17); err != nil {
		t.Fatal(err)
	}
	if err := submit("c", 14); err == nil || !strings.Contains(err.Error(), "queue full (64)") || ctrl.Stats().Queued != 64 {
		t.Errorf("the 65th queued query: %v with %d queued, want a queue of 64", err, ctrl.Stats().Queued)
	}
	ctrl.Drain()
	for _, tk := range admitted {
		tk.Wait(context.Background())
		ctrl.Release(tk)
	}
	if err := front.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
