package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustdb/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the exposition golden file")

// goldenRegistry builds a deterministic registry exercising every metric
// kind (including labeled series, both histogram scales, and float gauges) and
// every name-sanitization case (acronyms, digits, plain camel).
func goldenRegistry() *trace.Registry {
	reg := trace.NewRegistry()
	reg.Counter("Aborts").Add(7)
	reg.Counter("GPUOperators").Add(42)
	reg.Counter("H2DBytes").Add(1 << 20)
	reg.Counter("KernelMorsels").Add(96)
	reg.Counter("QueriesCompleted").Add(100)
	reg.Counter("PlancacheHits").Add(12)
	reg.Counter("PlancacheMisses").Add(3)
	reg.Counter("PlancacheEvictions").Add(1)
	reg.Duration("WastedTime").Add(1500 * time.Millisecond)
	reg.Gauge("HeapHighWater").Set(65536)
	reg.Gauge("DetectorThrashing").Set(1)
	reg.FloatGauge("QErrorMax").Max(7.5)
	h := reg.Histogram("GPURunTime", trace.Durations)
	h.ObserveDuration(500 * time.Nanosecond)  // bucket 0
	h.ObserveDuration(3 * time.Microsecond)   // bucket 2
	h.ObserveDuration(100 * time.Microsecond) // bucket 7
	h.ObserveDuration(time.Hour)              // clamps into the top bucket
	r := reg.Histogram("EstimateRowsRatio", trace.Ratios)
	r.Observe(0.25) // underestimate by 4x
	r.Observe(1)    // exact
	r.Observe(7.5)  // overestimate
	// Labeled series: one base name, several label sets — the exporter must
	// group them under a single metric family.
	reg.Counter(trace.LabeledName("AdmissionTenantShed",
		"tenant", "t1", "code", "overloaded")).Add(2)
	reg.Counter(trace.LabeledName("AdmissionTenantShed",
		"tenant", "t2", "code", "tenant-limit")).Add(5)
	reg.Histogram(trace.LabeledName("TenantQueryLatency",
		"tenant", "t1", "outcome", "ok"), trace.Durations).ObserveDuration(4 * time.Microsecond)
	reg.Histogram(trace.LabeledName("TenantQueryLatency",
		"tenant", "t1", "outcome", "shed"), trace.Durations).ObserveDuration(90 * time.Microsecond)
	// Labeled duration family, the shape of the pipelined executor's
	// per-direction bus busy time.
	reg.Duration(trace.LabeledName("BusBusy", "direction", "h2d")).Add(250 * time.Millisecond)
	reg.Duration(trace.LabeledName("BusBusy", "direction", "d2h")).Add(80 * time.Millisecond)
	return reg
}

// TestWritePrometheusGolden pins the full /metrics payload byte for byte:
// the process-level build_info and uptime series followed by the registry
// exposition.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	info := BuildInfo{GoVersion: "go1.21.0", Revision: "deadbeef", Modified: "false"}
	if err := WriteExposition(&buf, goldenRegistry().Snapshot(), info, 90*time.Second); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusWellFormed checks the format invariants a scraper
// relies on: no duplicate series, every sample preceded by its TYPE line,
// histogram buckets cumulative and ending at +Inf with the count.
func TestWritePrometheusWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, goldenRegistry().Snapshot(), ReadBuildInfo(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		full := line[:strings.LastIndex(line, " ")] // name incl. labels
		if seen[full] {
			t.Fatalf("duplicate series %q", full)
		}
		seen[full] = true
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no TYPE line", name)
		}
		if !strings.HasPrefix(name, "robustdb_") {
			t.Fatalf("series %q lacks the robustdb_ prefix", name)
		}
	}
	// Histogram invariants on the rendered GPURunTime series.
	out := buf.String()
	if !strings.Contains(out, `robustdb_gpu_run_time_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket must equal the observation count:\n%s", out)
	}
	if !strings.Contains(out, "robustdb_gpu_run_time_seconds_count 4") {
		t.Fatalf("histogram count missing:\n%s", out)
	}
	// Labeled families: one TYPE line for all label sets, labels sorted by key.
	if got := strings.Count(out, "# TYPE robustdb_admission_tenant_shed_total counter"); got != 1 {
		t.Fatalf("labeled counter family has %d TYPE lines, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, `robustdb_admission_tenant_shed_total{code="overloaded",tenant="t1"} 2`) {
		t.Fatalf("labeled counter sample missing:\n%s", out)
	}
	if got := strings.Count(out, "# TYPE robustdb_tenant_query_latency_seconds histogram"); got != 1 {
		t.Fatalf("labeled histogram family has %d TYPE lines, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, `robustdb_tenant_query_latency_seconds_bucket{outcome="ok",tenant="t1",le="+Inf"} 1`) {
		t.Fatalf("labeled histogram bucket missing:\n%s", out)
	}
	// Ratio histograms are dimensionless: no unit suffix, ratio-valued edges.
	if !strings.Contains(out, `robustdb_estimate_rows_ratio_bucket{le="+Inf"} 3`) {
		t.Fatalf("ratio histogram +Inf bucket missing:\n%s", out)
	}
	if !strings.Contains(out, "robustdb_estimate_rows_ratio_sum 8.75") {
		t.Fatalf("ratio histogram sum must be raw ratio mass:\n%s", out)
	}
	if !strings.Contains(out, "robustdb_q_error_max 7.5") {
		t.Fatalf("float gauge missing:\n%s", out)
	}
}

// TestSanitizeMetricName pins the CamelCase → snake_case mapping.
func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"Aborts":             "aborts",
		"GPURunTime":         "gpu_run_time",
		"CPUOperators":       "cpu_operators",
		"H2DBytes":           "h2d_bytes",
		"D2HBytes":           "d2h_bytes",
		"QueriesCompleted":   "queries_completed",
		"HeapHighWater":      "heap_high_water",
		"DetectorThrashing":  "detector_thrashing",
		"CacheFailedInserts": "cache_failed_inserts",
		"already_snake":      "already_snake",
		"with-dash":          "with_dash",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
