package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"robustdb/internal/admission"
	"robustdb/internal/exec"
	"robustdb/internal/faults"
	"robustdb/internal/server"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

// testCatalog memoizes a small SSB database shared by every test.
var (
	catOnce sync.Once
	testCat *table.Catalog
)

func catalog(t *testing.T) *table.Catalog {
	t.Helper()
	catOnce.Do(func() {
		testCat = ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 2000, Seed: 7})
	})
	return testCat
}

func queries() []workload.Query {
	var out []workload.Query
	for _, q := range ssb.Queries() {
		out = append(out, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	return out
}

// newServer builds a front door over a fresh data-driven-chopping engine
// warmed with the SSB mix; mut tweaks the config before construction.
func newServer(t *testing.T, cat *table.Catalog, dev exec.Config, mut func(*server.Config)) *server.Server {
	t.Helper()
	return newServerUnder(t, cat, dev, workload.DataDrivenChopping(), queries(), mut)
}

// newServerUnder is newServer under a chosen strategy and warm-up mix.
func newServerUnder(t *testing.T, cat *table.Catalog, dev exec.Config, strat workload.Strategy, warm []workload.Query, mut func(*server.Config)) *server.Server {
	t.Helper()
	if dev.CacheBytes == 0 {
		dev.CacheBytes = cat.TotalBytes() / 2
		dev.HeapBytes = cat.TotalBytes()
	}
	e, err := workload.NewEngine(cat, dev, strat, warm)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := server.Config{
		Engine:  e,
		Placer:  strat.Placer,
		Catalog: cat,
		Admission: admission.Config{
			Policy:        admission.Fair,
			MaxConcurrent: 4,
			MaxQueue:      32,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return s
}

func drain(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if used := s.Engine().Heap.Used(); used != 0 {
		t.Fatalf("leaked %d device-heap bytes after drain", used)
	}
}

func TestHTTPQueryEndToEnd(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	body := `{"tenant":"acme","sql":"SELECT SUM(lo_revenue) AS rev FROM lineorder"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.RowCount != 1 || len(out.Rows) != 1 || out.Columns[0] != "rev" {
		t.Fatalf("unexpected result: %+v", out)
	}
	if out.LatencyUS <= 0 {
		t.Fatalf("latency must be positive virtual time, got %dµs", out.LatencyUS)
	}
}

// TestHTTPHugeDeadlineMeansTheCap: a deadline_ms whose product with a
// millisecond overflows int64 (18446744073710 ms wraps round to 448 µs) is
// a deadline past the cap, so the statement runs under the cap and
// completes. The catalog is ten times the shared one, so the four-way join
// takes milliseconds of virtual time.
func TestHTTPHugeDeadlineMeansTheCap(t *testing.T) {
	cat := ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 20000, Seed: 7})
	s := newServer(t, cat, exec.Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	body := `{"sql":"SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue FROM lineorder, customer, supplier, date WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey GROUP BY c_city, s_city, d_year","deadline_ms":18446744073710}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 under the 10 s cap", resp.StatusCode)
	}
	var out server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.LatencyUS <= 500 {
		t.Fatalf("latency %d µs: the statement must take longer than the wrapped 448 µs deadline to test anything", out.LatencyUS)
	}
}

// TestHTTPNegativeDeadlineIsBadRequest: a negative deadline_ms is the
// client's fault on every surface that reads one.
func TestHTTPNegativeDeadlineIsBadRequest(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	body := `{"sql":"SELECT SUM(lo_revenue) AS rev FROM lineorder","deadline_ms":-1}`
	for _, path := range []string{"/v1/query", "/v1/explain", "/v1/explain?analyze=1"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var we server.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || we.Code != "bad-request" {
			t.Errorf("%s: status %d code %q (%v), want 400 bad-request", path, resp.StatusCode, we.Code, err)
		}
	}
}

// TestHTTPNonFiniteCellIsNull: a SUM that overflows float64 is a completed
// query — 200, with its +Inf cell written as null, not an empty body.
func TestHTTPNonFiniteCellIsNull(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	q := "SELECT SUM(lo_revenue * 1" + strings.Repeat("0", 300) + ") AS x FROM lineorder"
	body, err := json.Marshal(server.QueryRequest{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Rows) != 1 || len(out.Rows[0]) != 1 || out.Rows[0][0] != nil {
		t.Fatalf("rows = %v, want [[null]]", out.Rows)
	}
}

func TestHTTPWireStatuses(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, func(cfg *server.Config) {
		cfg.Admission.MaxConcurrent = 1
		cfg.Admission.MaxQueue = 1
		cfg.Admission.MaxTenantQueue = 1
		cfg.Admission.Policy = admission.FIFO
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}
	wantStatus := func(resp *http.Response, status int, code string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		var we server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
			t.Fatalf("decode error envelope: %v", err)
		}
		if we.Code != code {
			t.Fatalf("code %q, want %q", we.Code, code)
		}
	}

	wantStatus(post(`{"sql":"SELECT FROM"}`), http.StatusBadRequest, "bad-request")
	wantStatus(post(`{}`), http.StatusBadRequest, "bad-request")

	// Statements that parse but that the kernels would refuse — and one that
	// names a column no group has one value of — are the client's fault: 400
	// on every surface, before admission, and never cached.
	reg := s.Engine().Metrics.Registry()
	admitted, failed, hits := reg.Counter("ServerAdmitted"), reg.Counter("ServerQueryErrors"), reg.Counter("PlancacheHits")
	admitted0, failed0, hits0 := admitted.Load(), failed.Load(), hits.Load()
	for _, q := range []string{
		"SELECT SUM(lo_revenue/0) FROM lineorder",
		"SELECT MIN(c_city) FROM customer",
		"SELECT SUM(c_city) FROM customer",
		"SELECT SUM(lo_revenue * c_city) FROM lineorder, customer WHERE lo_custkey = c_custkey",
		"SELECT COUNT(*) FROM customer WHERE c_city BETWEEN 5 AND 7",
		"SELECT COUNT(*) FROM customer WHERE c_city = 5",
		"SELECT COUNT(*) FROM lineorder WHERE lo_quantity = 'x'",
		"SELECT COUNT(*) FROM lineorder WHERE lo_quantity IN (1, 'a')",
		"SELECT COUNT(*) FROM lineorder WHERE lo_orderdate < 2.5",
		"SELECT COUNT(*) FROM lineorder, customer WHERE lo_custkey = c_city",
		"SELECT COUNT(*) FROM lineorder ORDER BY nope",
		"SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity ORDER BY zzz LIMIT 2",
		"SELECT c_city, SUM(lo_revenue) FROM lineorder, customer WHERE lo_custkey = c_custkey GROUP BY c_nation",
		"SELECT COUNT(*) FROM lineorder, nosuch WHERE lo_custkey = c_custkey",
	} {
		body, _ := json.Marshal(server.QueryRequest{SQL: q})
		for _, path := range []string{"/v1/query", "/v1/explain", "/v1/explain?analyze=1"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			t.Log(path, q)
			wantStatus(resp, http.StatusBadRequest, "bad-request")
		}
	}
	if admitted.Load() != admitted0 || failed.Load() != failed0 || hits.Load() != hits0 {
		t.Fatalf("refused statements moved admitted %d → %d, query errors %d → %d, plan-cache hits %d → %d",
			admitted0, admitted.Load(), failed0, failed.Load(), hits0, hits.Load())
	}

	// A body past the 1 MiB limit is cut off, not buffered: typed 413 on both
	// endpoints that read one.
	huge := `{"sql":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, path := range []string{"/v1/query", "/v1/explain"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		wantStatus(resp, http.StatusRequestEntityTooLarge, "bad-request")
	}

	// Saturate: one admitted (held by a slow-enough query mix is hard to
	// arrange over HTTP, so saturate the queue with concurrent requests and
	// check that at least one got a typed 429 with Retry-After).
	const n = 24
	statuses := make(chan *http.Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"tenant":"burst","sql":"SELECT SUM(lo_revenue) AS rev FROM lineorder"}`))
			if err == nil {
				statuses <- resp
			}
		}()
	}
	wg.Wait()
	close(statuses)
	got429 := false
	for resp := range statuses {
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
		}
		resp.Body.Close()
	}
	if !got429 {
		t.Fatal("burst of 24 against queue bound 1 produced no 429")
	}

	// Drain, then verify the typed draining status.
	drain(t, s)
	const stmt = `{"sql":"SELECT SUM(lo_revenue) AS rev FROM lineorder"}`
	wantStatus(post(stmt), http.StatusServiceUnavailable, "draining")
	resp, err := http.Post(ts.URL+"/v1/explain?analyze=1", "application/json", strings.NewReader(stmt))
	if err != nil {
		t.Fatalf("POST /v1/explain?analyze=1: %v", err)
	}
	wantStatus(resp, http.StatusServiceUnavailable, "draining")
}

// TestDrainNoSilentDrops is the shutdown regression test: a drain racing a
// concurrent query storm must give every single query a decision — a result
// or a typed error — and every admitted-but-failed query must carry a
// recorded abort cause in the trace.
func TestDrainNoSilentDrops(t *testing.T) {
	cat := catalog(t)
	tracer := trace.New(0)
	s := newServer(t, cat, exec.Config{Tracer: tracer}, func(cfg *server.Config) {
		cfg.Admission.MaxConcurrent = 2
		cfg.Admission.MaxQueue = 64
		cfg.Admission.MaxTenantQueue = 64
	})

	qs := queries()
	const n = 48
	type outcome struct {
		err error
	}
	outcomes := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), fmt.Sprintf("t%d", i%3), 0,
				qs[i%len(qs)].Plan, 5*time.Second)
			outcomes <- outcome{err: err}
		}()
	}
	// Let some queries in, then drain mid-storm with a bounded timeout.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	close(outcomes)

	decided := 0
	for o := range outcomes {
		decided++
		if o.err == nil {
			continue
		}
		var ae *admission.Error
		switch {
		case errors.As(o.err, &ae): // typed shed: recorded cause
		case errors.Is(o.err, exec.ErrDeadlineExceeded): // typed deadline
		case errors.Is(o.err, server.ErrHostClosed): // typed close
		default:
			t.Errorf("query dropped with untyped error: %v", o.err)
		}
	}
	if decided != n {
		t.Fatalf("only %d/%d queries got a decision", decided, n)
	}
	// Every admitted query appears in the trace as a query span; failed ones
	// must carry an abort cause.
	spans := tracer.Spans()
	queries, aborted := 0, 0
	for _, sp := range spans {
		if sp.Class != "query" {
			continue
		}
		queries++
		if sp.Abort != "" {
			aborted++
			if sp.Abort != "failed" {
				t.Errorf("query span %s: unexpected abort cause %q", sp.Name, sp.Abort)
			}
		}
	}
	if queries == 0 {
		t.Fatal("no query spans recorded — tracer not wired through the front door")
	}
	if used := s.Engine().Heap.Used(); used != 0 {
		t.Fatalf("leaked %d device-heap bytes after drain", used)
	}
}

// TestOverloadProperty pins the acceptance criterion: at 4× sustained
// capacity with fault injection, the server sheds with typed errors only,
// p99 virtual latency of admitted queries stays ≤ 3× the at-capacity p99,
// the heap-leak check stays zero, and the drain completes cleanly.
func TestOverloadProperty(t *testing.T) {
	cat := catalog(t)
	const capacity = 2
	build := func() *server.Server {
		return newServer(t, cat, exec.Config{
			Faults: faults.New(faults.Config{
				Seed:             11,
				AllocFailRate:    0.02,
				TransferFailRate: 0.02,
			}),
		}, func(cfg *server.Config) {
			cfg.Admission.Policy = admission.Detector
			cfg.Admission.MaxConcurrent = capacity
			cfg.Admission.MaxQueue = 2 * capacity
			cfg.Admission.MaxTenantQueue = 2 * capacity
		})
	}
	qs := queries()

	// Baseline: closed loop at exactly the admitted capacity.
	run := func(s *server.Server, clients, perClient int) (virt []time.Duration, typedErrs, untyped int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					res, err := s.Submit(context.Background(), fmt.Sprintf("tenant%d", c%4), 0,
						qs[(c+i)%len(qs)].Plan, 10*time.Second)
					mu.Lock()
					if err == nil {
						virt = append(virt, res.Latency)
					} else {
						var ae *admission.Error
						if errors.As(err, &ae) || errors.Is(err, exec.ErrDeadlineExceeded) {
							typedErrs++
						} else {
							untyped++
							t.Errorf("untyped overload error: %v", err)
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return
	}

	base := build()
	baseLat, _, baseUntyped := run(base, capacity, 12)
	drain(t, base)
	if baseUntyped != 0 || len(baseLat) == 0 {
		t.Fatalf("baseline run broken: %d admitted, %d untyped", len(baseLat), baseUntyped)
	}

	over := build()
	overLat, typed, untyped := run(over, 4*capacity, 12)
	drain(t, over)
	if untyped != 0 {
		t.Fatalf("%d untyped errors under overload", untyped)
	}
	if len(overLat) == 0 {
		t.Fatal("overload run admitted nothing")
	}
	if typed == 0 {
		t.Fatal("4× overload shed nothing — admission control inactive")
	}
	_, baseP99 := p50p99(baseLat)
	_, overP99 := p50p99(overLat)
	if overP99 > 3*baseP99 {
		t.Fatalf("admitted p99 under overload %v exceeds 3× at-capacity p99 %v", overP99, baseP99)
	}
}

func p50p99(samples []time.Duration) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2], sorted[int(0.99*float64(len(sorted)-1))]
}

// TestLoadgenOverload offers 400 q/s of the -loadgen statement mix over HTTP
// to a front door admitting two at a time: queries are admitted, none of them
// fails, and each reports its virtual latency.
func TestLoadgenOverload(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, func(cfg *server.Config) {
		cfg.Admission.Policy = admission.Fair
		cfg.Admission.MaxConcurrent = 2
		cfg.Admission.MaxQueue = 4
		cfg.Admission.MaxTenantQueue = 4
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := server.RunLoadgen(context.Background(), server.LoadgenConfig{
		URL: ts.URL,
		SQL: []string{
			"SELECT SUM(lo_revenue) AS revenue FROM lineorder",
			"SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
			"SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity",
			"SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
		},
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Tenants: []TenantMix{
			{Name: "gold", Share: 1, Priority: 5},
			{Name: "bronze", Share: 3},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatalf("RunLoadgen: %v", err)
	}
	drain(t, s)
	if res.Offered == 0 || res.Admitted == 0 {
		t.Fatalf("loadgen made no progress: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("%d engine failures on admitted queries", res.Failed)
	}
	if res.Admitted > 0 && res.VirtualP99 <= 0 {
		t.Fatalf("admitted queries must report virtual latency: %+v", res)
	}
}

// TenantMix alias so the test file reads naturally.
type TenantMix = server.TenantMix

func TestLimitListener(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, nil)
	defer drain(t, s)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = server.LimitListener(ts.Listener, 2)
	ts.Start()
	defer ts.Close()
	// With keep-alives off every request opens a fresh connection; the limit
	// only throttles, never deadlocks.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"sql":"SELECT SUM(lo_revenue) AS rev FROM lineorder"}`))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
}

// TestLimitListenerCloseUnblocksAccept pins the shutdown property: when every
// connection slot is held, a blocked Accept must still return promptly on
// Close instead of hanging until an existing connection finishes.
func TestLimitListenerCloseUnblocksAccept(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ll := server.LimitListener(ln, 1)
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	held, err := ll.Accept() // takes the only slot
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer held.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ll.Accept() // blocks on the exhausted semaphore
		if c != nil {
			c.Close()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the goroutine reach the blocked state
	if err := ll.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept returned a connection after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock on Close while all slots were held")
	}
}

// TestHTTPExplainEndpoint exercises the EXPLAIN surface end to end: the
// dedicated /v1/explain endpoint, the EXPLAIN-prefixed statement on
// /v1/query, and the per-scan compression modes over a compressed catalog.
func TestHTTPExplainEndpoint(t *testing.T) {
	cat := catalog(t).Compressed()
	s := newServer(t, cat, exec.Config{}, func(cfg *server.Config) {
		cfg.Catalog = cat
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	const sql = `SELECT c_nation, SUM(lo_revenue) AS rev FROM lineorder, customer
		WHERE lo_custkey = c_custkey AND lo_discount BETWEEN 1 AND 3
		GROUP BY c_nation ORDER BY rev DESC`

	fetch := func(url, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return out
	}

	out := fetch(ts.URL+"/v1/explain", fmt.Sprintf("{%q:%q}", "sql", sql))
	if out["version"] != float64(2) {
		t.Fatalf("version = %v", out["version"])
	}
	root, ok := out["root"].(map[string]any)
	if !ok {
		t.Fatalf("missing root node: %v", out)
	}
	var scans, sawBitpack int
	var walk func(n map[string]any)
	walk = func(n map[string]any) {
		if n["placement"] == "" || n["placement"] == nil {
			t.Fatalf("node %v has no placement", n["op"])
		}
		if n["kind"] == "scan" {
			scans++
			comp, _ := n["compression"].(string)
			if comp == "" {
				t.Fatalf("scan node %v has no compression mode", n["op"])
			}
			if strings.Contains(comp, "bitpack") {
				sawBitpack++
			}
		}
		if kids, ok := n["children"].([]any); ok {
			for _, k := range kids {
				walk(k.(map[string]any))
			}
		}
	}
	walk(root)
	if scans == 0 {
		t.Fatal("no scan nodes in explain tree")
	}
	if sawBitpack == 0 {
		t.Fatal("compressed catalog should surface bitpack scans")
	}

	// The EXPLAIN-prefixed spelling on /v1/query serves the same document
	// instead of executing the statement.
	out2 := fetch(ts.URL+"/v1/query", fmt.Sprintf("{%q:%q}", "sql", "EXPLAIN "+sql))
	if out2["version"] != float64(2) || out2["root"] == nil {
		t.Fatalf("EXPLAIN via /v1/query did not return a plan document: %v", out2)
	}

	// Broken SQL maps to 400, not 500.
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json",
		strings.NewReader(`{"sql":"SELECT FROM nowhere"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL explain status = %d", resp.StatusCode)
	}
}

// A tenant carries one label value in every per-tenant family of the front
// door, whichever family first meets it: past the label pool's 16 tenants the
// admission series and the latency histogram must not disagree on who is
// "other".
func TestTenantLabelAgreesAcrossFamilies(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, func(cfg *server.Config) {
		cfg.Admission.MaxConcurrent = 1
		cfg.Admission.MaxQueue = 1
		cfg.Admission.Policy = admission.FIFO
	})
	defer drain(t, s)
	ctx := context.Background()
	held, err := s.Admission().Submit("a", 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := held.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// With a's ticket holding the one slot, every other tenant times out in
	// the queue and is shed.
	pl := ssb.Queries()[0].Plan
	for i := range 16 {
		if _, err := s.Submit(ctx, fmt.Sprintf("t%02d", i), 0, pl, time.Millisecond); err == nil {
			t.Fatalf("tenant t%02d ran past the held slot", i)
		}
	}
	s.Admission().Release(held)
	if _, err := s.Submit(ctx, "a", 0, pl, time.Second); err != nil {
		t.Fatal(err)
	}
	reg := s.Engine().Metrics.Registry()
	if n := reg.Counter(trace.LabeledName("AdmissionTenantAdmitted", "tenant", "a")).Load(); n != 2 {
		t.Fatalf("the admission series count %d admissions of a, want 2", n)
	}
	if n := reg.Histogram(trace.LabeledName("TenantQueryLatency", "tenant", "a", "outcome", "ok"), trace.Durations).Count(); n != 1 {
		t.Fatalf("the latency histogram holds %d queries of a, want 1", n)
	}
}
