package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"robustdb/internal/trace"
)

func testServer(t *testing.T) (*httptest.Server, *Detector) {
	t.Helper()
	reg := goldenRegistry()
	tr := trace.New(spanLimit + 8)
	for i := 0; i < spanLimit+12; i++ { // overflow the ring: the tail must survive
		tr.Span(trace.Span{Query: "q0001", Name: "q0001/op", Class: "selection",
			Start: time.Duration(i) * time.Millisecond, End: time.Duration(i+1) * time.Millisecond})
	}
	det := NewDetector("Thrashing", verdictSeq(true))
	det.Bind(reg)
	srv := httptest.NewServer(NewMux(ServerConfig{
		Registry:  reg,
		Tracer:    tr,
		Detectors: []*Detector{det},
	}))
	t.Cleanup(srv.Close)
	return srv, det
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"robustdb_aborts_total 7",
		"robustdb_heap_high_water 65536",
		"robustdb_wasted_time_seconds_total 1.5",
		"robustdb_gpu_run_time_seconds_count 4",
		"robustdb_detector_thrashing 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzTransitions(t *testing.T) {
	srv, det := testServer(t)
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy status = %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Detectors) != 1 || h.Detectors[0].Name != "Thrashing" {
		t.Fatalf("health = %+v", h)
	}

	observe(det, trace.Snapshot{}) // scripted classifier flips it degraded
	code, body, _ = get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.Detectors[0].Degraded || h.Detectors[0].Detail == "" {
		t.Fatalf("degraded health = %+v", h)
	}
}

// /debug/snapshot serves the whole registry: every series of all five kinds,
// a histogram with the scale its edges and sum are in.
func TestDebugSnapshotEndpoint(t *testing.T) {
	reg := goldenRegistry()
	srv := httptest.NewServer(NewMux(ServerConfig{Registry: reg}))
	defer srv.Close()
	code, body, hdr := get(t, srv.URL+"/debug/snapshot")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("status = %d, ct = %q", code, hdr.Get("Content-Type"))
	}
	var v struct {
		Counters    map[string]int64 `json:"counters"`
		DurationsNS map[string]int64 `json:"durations_ns"`
		Histograms  map[string]struct {
			Scale   string  `json:"scale"`
			Count   int64   `json:"count"`
			Sum     float64 `json:"sum"`
			Buckets []int64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Counters["Aborts"] != 7 || v.DurationsNS["WastedTime"] != int64(1500*time.Millisecond) {
		t.Fatalf("snapshot = %+v", v)
	}
	if h := v.Histograms["GPURunTime"]; h.Scale != "duration" || h.Count != 4 || h.Sum == 0 || len(h.Buckets) == 0 {
		t.Fatalf("histogram = %+v", h)
	}
	if h := v.Histograms["EstimateRowsRatio"]; h.Scale != "ratio" || h.Count != 3 || h.Sum != 8.75 {
		t.Fatalf("ratio histogram = %+v", h)
	}
	var got trace.Snapshot
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if want := reg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("/debug/snapshot is not the registry snapshot:\n got %+v\nwant %+v", got, want)
	}
}

func TestDebugSpansEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	code, body, _ := get(t, srv.URL+"/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var spans []trace.Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != spanLimit { // spanLimit trims the ring tail
		t.Fatalf("spans = %d, want %d (the tail)", len(spans), spanLimit)
	}
	if last := spans[spanLimit-1].Start; last != (spanLimit+11)*time.Millisecond {
		t.Fatalf("tail must be the most recent spans, got last start %v", last)
	}
}

// raceBuild is set by racebuild_test.go when the race detector is compiled in.
var raceBuild bool

// One /debug/spans request against a full serve-mode ring copies the spans it
// serves, not the ring (which held 16 MB of them).
func TestDebugSpansCopiesOnlyTheTail(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	tr := trace.New(trace.DefaultCapacity)
	for i := 0; i < trace.DefaultCapacity; i++ {
		tr.Span(trace.Span{Query: "q0001", Name: "q0001/op", Class: "selection"})
	}
	mux := NewMux(ServerConfig{Registry: trace.NewRegistry(), Tracer: tr})
	req := httptest.NewRequest(http.MethodGet, "/debug/spans", nil)
	runtime.GC()                               // no collection inside the measured request
	mux.ServeHTTP(httptest.NewRecorder(), req) // fills encoding/json's caches and pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("one /debug/spans request allocated %d bytes, want < 1 MB", alloc)
	}
}

func TestDebugSpansNilTracer(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServerConfig{Registry: trace.NewRegistry()}))
	defer srv.Close()
	code, body, _ := get(t, srv.URL+"/debug/spans")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("nil tracer: status=%d body=%q", code, body)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	code, body, _ := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status=%d", code)
	}
}
