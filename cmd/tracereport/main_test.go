package main

// Golden-file test of the -json report: the engine is deterministic, so the
// pinned workload must summarize to byte-identical JSON Lines on every run.
// Regenerate after an intentional engine or format change with:
//
//	go test -run TestReportJSONGolden -update-golden ./cmd/tracereport
//
// The trace recipe matches the repo-root Chrome-trace golden test so the two
// goldens describe the same run.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robustdb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenTracePath runs the pinned workload and writes its Chrome trace to a
// temp file, returning the path.
func goldenTracePath(t *testing.T) string {
	t.Helper()
	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 42})
	tr := robustdb.NewTracer(0)
	dev := db.DeviceForWorkingSet(0.5)
	dev.Tracer = tr
	spec := robustdb.Workload{Queries: robustdb.SSBQueries()[:3], Users: 2}
	if _, _, err := db.RunWorkload(dev, robustdb.DataDrivenChopping(), spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := robustdb.WriteChromeTrace(f, tr.Spans(), tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, goldenTracePath(t), false, false, true, false, 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "summary.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-json summary drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestReportJSONShape parses every emitted line independently: one valid JSON
// object per query with the documented keys and consistent op counts.
func TestReportJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, goldenTracePath(t), false, false, true, false, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no output lines")
	}
	for i, line := range lines {
		var q struct {
			Query      string `json:"query"`
			StartUS    int64  `json:"start_us"`
			LatencyUS  int64  `json:"latency_us"`
			Ops        int64  `json:"ops"`
			GPUOps     int64  `json:"gpu_ops"`
			CPUOps     int64  `json:"cpu_ops"`
			AbortedOps int64  `json:"aborted_ops"`
		}
		if err := json.Unmarshal([]byte(line), &q); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if q.Query == "" {
			t.Fatalf("line %d: empty query name", i)
		}
		if q.Ops != q.GPUOps+q.CPUOps+q.AbortedOps {
			t.Fatalf("line %d (%s): ops %d != gpu %d + cpu %d + aborted %d",
				i, q.Query, q.Ops, q.GPUOps, q.CPUOps, q.AbortedOps)
		}
		if q.LatencyUS < 0 || q.StartUS < 0 {
			t.Fatalf("line %d (%s): negative times start=%d latency=%d", i, q.Query, q.StartUS, q.LatencyUS)
		}
	}
}

// TestReportSlowest checks the -slowest N mode: at most N queries, ranked by
// wall time (the first listed latency is the maximum), each with at least one
// per-operator row carrying rows/bytes actuals.
func TestReportSlowest(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, goldenTracePath(t), false, false, false, false, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "#"); n != 2 {
		t.Fatalf("want 2 ranked queries, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "#1 ") || !strings.Contains(out, "#2 ") {
		t.Fatalf("missing rank markers:\n%s", out)
	}
	if !strings.Contains(out, "node=") || !strings.Contains(out, "rows=") {
		t.Fatalf("missing per-operator breakdown:\n%s", out)
	}
	if strings.Index(out, "#1 ") > strings.Index(out, "#2 ") {
		t.Fatalf("ranks out of order:\n%s", out)
	}
}

// TestReportTextModes exercises the pre-existing text paths through the same
// report entry point the command uses.
func TestReportTextModes(t *testing.T) {
	path := goldenTracePath(t)
	var summary, waterfall, both bytes.Buffer
	if err := report(&summary, path, true, false, false, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := report(&waterfall, path, false, true, false, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := report(&both, path, false, false, false, false, 0); err != nil {
		t.Fatal(err)
	}
	if summary.Len() == 0 || waterfall.Len() == 0 {
		t.Fatal("empty single-mode report")
	}
	if both.Len() <= summary.Len() || both.Len() <= waterfall.Len() {
		t.Fatalf("combined report (%d bytes) should exceed each single mode (%d, %d)",
			both.Len(), summary.Len(), waterfall.Len())
	}
}

// pipelinedTracePath runs a pinned workload with the pipelined chunk executor
// enabled and a cache too small for the working set (so scans transfer, which
// is what the pipeline overlaps) and writes its Chrome trace to a temp file.
// The heap holds two in-flight chunks: like any streaming operator, a chunk
// holds its input and then its kernel's footprint, 4.25× its input.
func pipelinedTracePath(t *testing.T) string {
	t.Helper()
	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: 1, RowsPerSF: 100000, Seed: 42})
	tr := robustdb.NewTracer(0)
	dev := db.DeviceForWorkingSet(0.1)
	dev.HeapBytes = 4 * dev.CacheBytes
	dev.Tracer = tr
	dev.PipelineDepth = 2
	dev.PipelineCoExec = true
	spec := robustdb.Workload{Queries: robustdb.SSBQueries()[:3], Users: 2}
	if _, _, err := db.RunWorkload(dev, robustdb.Chopping(), spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := robustdb.WriteChromeTrace(f, tr.Spans(), tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportPipelineGolden pins the -pipeline report of a deterministic
// pipelined run: per-query chunk schedule, overlap ratio, and lane busy
// fractions must reproduce byte-identically.
func TestReportPipelineGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, pipelinedTracePath(t), false, false, false, true, 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "pipeline.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-pipeline report drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestReportPipelineShape asserts the structure of the -pipeline view without
// pinning bytes: every reported query carries a chunk count, an overlap
// percentage, and the three resource lanes.
func TestReportPipelineShape(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, pipelinedTracePath(t), false, false, false, true, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chunks=", "overlap=", "h2d", "compute", "d2h", "util="} {
		if !strings.Contains(out, want) {
			t.Fatalf("pipeline view missing %q:\n%s", want, out)
		}
	}
	// A serial trace reports the absence of pipelined operators explicitly.
	var serial bytes.Buffer
	if err := report(&serial, goldenTracePath(t), false, false, false, true, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(serial.String(), "no pipelined operators") {
		t.Fatalf("serial trace should report no pipelined operators:\n%s", serial.String())
	}
}
