package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"robustdb/internal/exec"
	"robustdb/internal/obs"
)

// The benchmark harness reads its per-layer figures off /metrics by series
// name (bench/layers.go). A series it reads that the server stops exporting
// turns the figure into a silent zero, so every robustdb_* name that file
// mentions must be on a served /metrics page, behind the obs mux as in serve
// mode, after a few queries.
func TestMetricsCarryEverySeriesTheBenchmarkReads(t *testing.T) {
	src, err := os.ReadFile("../../bench/layers.go")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range regexp.MustCompile(`robustdb_[a-z0-9_]+(\{[^}]*\})?`).FindAllString(string(src), -1) {
		if !slices.Contains(want, name) {
			want = append(want, name)
		}
	}
	for _, name := range []string{"robustdb_h2d_bytes_total", `robustdb_bus_busy_seconds_total{direction="h2d"}`,
		"robustdb_query_overlap_ratio_sum", "robustdb_decompress_bytes_total"} {
		if !slices.Contains(want, name) {
			t.Fatalf("vacuous: %s is not among the %d series read from bench/layers.go", name, len(want))
		}
	}

	s := newServer(t, catalog(t), exec.Config{}, nil)
	root := http.NewServeMux()
	root.Handle("/v1/query", s.Handler())
	root.Handle("/", obs.NewMux(obs.ServerConfig{Registry: s.Engine().Metrics.Registry()}))
	ts := httptest.NewServer(root)
	defer ts.Close()
	defer drain(t, s)
	for _, sql := range []string{
		"SELECT SUM(lo_revenue) AS rev FROM lineorder",
		"SELECT SUM(lo_revenue) AS rev FROM lineorder",
		"SELECT c_nation, SUM(lo_revenue) AS rev FROM lineorder, customer WHERE lo_custkey = c_custkey GROUP BY c_nation",
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"tenant":"gold","sql":"`+sql+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", sql, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			served[line[:i]] = true
		}
	}
	for _, name := range want {
		if !served[name] {
			t.Errorf("/metrics lacks %s, which bench/layers.go reads", name)
		}
	}
}
