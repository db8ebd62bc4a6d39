package main

import (
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
)

// TestFirstBackgroundPassPrecedesServing pins the serve mode's start-up
// order: whatever a client reads first already counts the background
// tenant's whole first pass, and with a long cooldown nothing is added to it
// afterwards — so a client that brackets its own requests with two /metrics
// scrapes counts exactly those requests.
func TestFirstBackgroundPassPrecedesServing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 1})
	queries := robustdb.SSBQueries()
	strat, err := strategyByName("data-driven-chopping")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- runServe(serveConfig{
			addr:         addr,
			window:       time.Hour,
			cooldown:     time.Hour,
			db:           db,
			dev:          robustdb.Device{CacheBytes: db.TotalBytes(), HeapBytes: db.TotalBytes()},
			strat:        strat,
			queries:      queries,
			drainTimeout: 10 * time.Second,
			log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
			slowlogCap:   16,
		})
	}()
	requests := func() string {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				if time.Now().After(deadline) {
					t.Fatalf("/metrics: %v", err)
				}
				continue // not listening yet
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
		}
	}
	want := fmt.Sprint(len(queries))
	if got := requests(); got != want {
		t.Errorf("first scrape: %s requests, want the whole background pass (%s)", got, want)
	}
	time.Sleep(50 * time.Millisecond)
	if got := requests(); got != want {
		t.Errorf("second scrape: %s requests, want still %s", got, want)
	}
	// The orderly drain is part of the contract: SIGTERM, exit nil.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("runServe: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runServe did not return after SIGTERM")
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
