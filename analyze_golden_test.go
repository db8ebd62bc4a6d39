package robustdb

// Golden-file and property tests of the EXPLAIN ANALYZE document. The engine
// is deterministic in virtual time, so with serial kernels the analyzed plan
// for a pinned statement must stay byte-identical run to run; and however the
// kernels are parallelized, the per-node actuals must agree with the raw
// trace spans they were derived from. Regenerate the golden after an
// intentional change with:
//
//	go test -run TestExplainAnalyzeGolden -update-golden .

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"robustdb/internal/plan"
	"robustdb/internal/trace"
)

const goldenAnalyzeSQL = "EXPLAIN ANALYZE SELECT c_nation, SUM(lo_revenue) AS rev " +
	"FROM lineorder, customer " +
	"WHERE lo_custkey = c_custkey AND lo_discount BETWEEN 1 AND 3 " +
	"GROUP BY c_nation ORDER BY rev DESC LIMIT 5"

// analyzeGoldenDoc runs the pinned statement once on a fresh machine with
// serial kernels (bit-identical spans) and returns the analyzed document.
func analyzeGoldenDoc(t *testing.T, workers int, tracer *trace.Tracer) *ExplainPayload {
	t.Helper()
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 42}).Compressed()
	dev := db.DeviceForWorkingSet(0.5)
	dev.KernelWorkers = workers
	dev.Tracer = tracer
	doc, err := db.ExplainAnalyzeSQL(dev, DataDrivenChopping(), goldenAnalyzeSQL)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestExplainAnalyzeGolden(t *testing.T) {
	doc := analyzeGoldenDoc(t, 1, nil)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "analyze_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("analyze document drifted from %s (%d vs %d bytes); if intended, regenerate with -update-golden",
			path, len(got), len(want))
	}
}

// walkAnalyze visits every node of the document tree.
func walkAnalyze(n *plan.ExplainNode, f func(*plan.ExplainNode)) {
	f(n)
	for _, c := range n.Children {
		walkAnalyze(c, f)
	}
}

// TestExplainAnalyzeSumConsistency is the property the analyze section
// promises: every per-node figure is a faithful aggregation of that node's
// raw trace spans — wall time sums across attempts, rows come from the
// completed attempt — and the exec summary matches the query-level span.
func TestExplainAnalyzeSumConsistency(t *testing.T) {
	tracer := NewTracer(0)
	doc := analyzeGoldenDoc(t, 1, tracer)
	if doc.Exec == nil || doc.Exec.QueryID == "" {
		t.Fatalf("missing exec summary: %+v", doc.Exec)
	}
	// The fresh machine ran exactly one query: the ring holds its spans only.
	spans := tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the analyzed query")
	}
	var spanWall, spanRows int64
	var queryLatency int64
	nodes := 0
	for _, s := range spans {
		if s.Class == "query" {
			queryLatency = int64(s.Duration() / time.Microsecond)
			continue
		}
		spanWall += int64(s.Duration() / time.Microsecond)
		if s.Abort == "" {
			spanRows += s.Rows
		}
	}
	var docWall, docRows int64
	walkAnalyze(doc.Root, func(n *plan.ExplainNode) {
		nodes++
		a := n.Analyze
		if a == nil {
			t.Fatalf("node %d has no analyze section", n.ID)
		}
		if a.Status != "ok" {
			t.Fatalf("node %d status %q, want ok on a clean run", n.ID, a.Status)
		}
		if a.Attempts < 1 || a.WallUS < 0 || a.ActualRows < 0 {
			t.Fatalf("node %d implausible actuals: %+v", n.ID, a)
		}
		docWall += a.WallUS
		docRows += a.ActualRows
	})
	if docWall != spanWall {
		t.Fatalf("sum of node wall_us %d != sum of span durations %d", docWall, spanWall)
	}
	if docRows != spanRows {
		t.Fatalf("sum of node actual_rows %d != sum of span rows %d", docRows, spanRows)
	}
	if doc.Exec.LatencyUS != queryLatency {
		t.Fatalf("exec latency %dµs != query span duration %dµs", doc.Exec.LatencyUS, queryLatency)
	}
	if doc.Exec.Outcome != "ok" {
		t.Fatalf("outcome %q, want ok", doc.Exec.Outcome)
	}
}

// TestExplainAnalyzeSerialParallelRows pins that kernel parallelism changes
// timing, never results: per-node actual row and byte counts are identical
// whether kernels run serially or across workers.
func TestExplainAnalyzeSerialParallelRows(t *testing.T) {
	serial := analyzeGoldenDoc(t, 1, nil)
	parallel := analyzeGoldenDoc(t, 4, nil)
	rows := func(doc *ExplainPayload) map[int][2]int64 {
		out := make(map[int][2]int64)
		walkAnalyze(doc.Root, func(n *plan.ExplainNode) {
			if n.Analyze == nil {
				t.Fatalf("node %d has no analyze section", n.ID)
			}
			out[n.ID] = [2]int64{n.Analyze.ActualRows, n.Analyze.ActualBytes}
		})
		return out
	}
	s, p := rows(serial), rows(parallel)
	if len(s) != len(p) {
		t.Fatalf("node counts differ: %d vs %d", len(s), len(p))
	}
	for id, sv := range s {
		if p[id] != sv {
			t.Fatalf("node %d actuals differ between serial %v and parallel %v", id, sv, p[id])
		}
	}
}
