package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// foldOne folds one query's record and returns its summary and node rows.
func foldOne(t *testing.T, spans []Span) (QuerySummary, []NodeActuals) {
	t.Helper()
	qs := FoldQueries(spans)
	if len(qs) != 1 {
		t.Fatalf("one query's record folded into %d queries", len(qs))
	}
	return qs[0], FoldNodes(spans)
}

func TestFoldCleanRun(t *testing.T) {
	q, nodes := foldOne(t, []Span{
		{Query: "q0001", Class: "query", Tenant: "acme", Start: 0, End: 90 * time.Microsecond},
		{Query: "q0001", Class: "selection", Node: 0, Proc: "gpu", Attempt: 0,
			Start: 0, End: 40 * time.Microsecond, Rows: 50, OutBytes: 400},
		{Query: "q0001", Class: "aggregation", Node: 1, Proc: "cpu", Attempt: 0,
			Start: 40 * time.Microsecond, End: 90 * time.Microsecond, Rows: 10, OutBytes: 80},
	})
	if q.Query != "q0001" || q.Failed != "" || q.Latency != US(90*time.Microsecond) || q.Tenant != "acme" {
		t.Fatalf("query = %+v", q)
	}
	if len(nodes) != 2 || nodes[0].Node != 0 || nodes[1].Node != 1 {
		t.Fatalf("nodes = %+v, want nodes 0 and 1 in id order", nodes)
	}
	if a := nodes[0]; a.Status != "ok" || a.ActualRows != 50 || a.ActualBytes != 400 ||
		a.VT != US(40*time.Microsecond) || a.Processor != "gpu" || a.Attempts != 1 {
		t.Fatalf("scan = %+v", a)
	}
}

// TestFoldShed pins the shed contract: a query that never reached the engine
// has no spans, so there is nothing to fold — AttachActuals reports every
// node "missing" with zero attempts, never fabricated zero-row actuals.
func TestFoldShed(t *testing.T) {
	if qs, nodes := FoldQueries(nil), FoldNodes(nil); len(qs) != 0 || len(nodes) != 0 {
		t.Fatalf("no spans folded into %d queries and %d nodes", len(qs), len(nodes))
	}
}

// TestFoldDeadlineMidPlan pins the partial contract: a deadline that fires
// mid-plan leaves started-but-aborted nodes "partial" (real durations, no
// rows) and unreached nodes out of the fold.
func TestFoldDeadlineMidPlan(t *testing.T) {
	q, nodes := foldOne(t, []Span{
		{Query: "q0002", Class: "selection", Node: 0, Proc: "gpu", Attempt: 0,
			Start: 0, End: 30 * time.Microsecond, Abort: "deadline",
			QueueWait: 5 * time.Microsecond},
		// Node 1 never started: no span at all.
		{Query: "q0002", Class: "query", Start: 0, End: 30 * time.Microsecond, Abort: "failed"},
	})
	if q.Failed != "failed" || q.AbortedOps != 1 {
		t.Fatalf("query = %+v, want failed with one aborted op", q)
	}
	if len(nodes) != 1 {
		t.Fatalf("nodes = %+v, want the started scan only", nodes)
	}
	scan := nodes[0]
	if scan.Status != "partial" || scan.Attempts != 1 || scan.VT != US(30*time.Microsecond) ||
		scan.QueueWait != US(5*time.Microsecond) {
		t.Fatalf("aborted scan = %+v, want partial with real durations", scan)
	}
	if scan.ActualRows != 0 || scan.ActualBytes != 0 {
		t.Fatalf("aborted scan reports rows/bytes %d/%d, want 0/0 (output rolled back)",
			scan.ActualRows, scan.ActualBytes)
	}
}

// TestFoldRetries pins attempt folding: durations sum across every attempt,
// in nanoseconds before any truncation; rows/bytes and processor come from
// the completed attempt only.
func TestFoldRetries(t *testing.T) {
	_, nodes := foldOne(t, []Span{
		{Query: "q0003", Class: "selection", Node: 0, Proc: "gpu", Attempt: 0,
			Start: 0, End: 20*time.Microsecond + 600, Abort: "alloc"},
		{Query: "q0003", Class: "selection", Node: 0, Proc: "cpu", Attempt: 1,
			Start: 20*time.Microsecond + 600, End: 60*time.Microsecond + 1200, Rows: 50, OutBytes: 400},
		{Query: "q0003", Class: "aggregation", Node: 1, Proc: "cpu", Attempt: 0,
			Start: 60*time.Microsecond + 1200, End: 100 * time.Microsecond, Rows: 10, OutBytes: 80},
		{Query: "q0003", Class: "query", Start: 0, End: 100 * time.Microsecond},
	})
	a := nodes[0]
	if a.Status != "ok" || a.Attempts != 2 {
		t.Fatalf("retried scan = %+v", a)
	}
	// 20.6 µs + 40.6 µs: 61 µs summed, where truncating each term gave 60.
	if a.VT != US(61*time.Microsecond+200) || a.VT.String() != "61µs" {
		t.Fatalf("vt = %v (%d ns), want 61.2µs summed across attempts, printed 61µs", a.VT, a.VT)
	}
	if b, err := a.VT.MarshalJSON(); err != nil || string(b) != "61" {
		t.Fatalf("vt_us = %s (%v), want 61", b, err)
	}
	if a.ActualRows != 50 || a.Processor != "cpu" {
		t.Fatalf("actuals must come from the completed attempt: %+v", a)
	}
}

// TestWaterfallOrphansDeterministic pins Waterfall over queries whose query
// spans left the ring: each block spans the window its spans cover (no
// negative offset), blocks come in start order, the output is the same on
// every call, and Summary counts the same queries.
func TestWaterfallOrphansDeterministic(t *testing.T) {
	spans := []Span{
		{Query: "q0002", Name: "q0002/op001", Op: "join(a=b)", Class: "join", Proc: "gpu",
			Start: 5 * time.Microsecond, End: 9 * time.Microsecond},
		{Query: "q0001", Name: "q0001/op000", Op: "scan(t)", Class: "selection", Proc: "cpu",
			Start: 0, End: 2 * time.Microsecond},
		{Query: "q0002", Name: "q0002/op000", Op: "scan(u)", Class: "selection", Proc: "gpu",
			Start: time.Microsecond, End: 3 * time.Microsecond},
	}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		check(t, Waterfall(&buf, spans, nil))
		out := buf.String()
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("call %d rendered differently:\n%s\nfirst:\n%s", i, out, first)
		}
	}
	if strings.Contains(first, "+-") {
		t.Fatalf("negative offset:\n%s", first)
	}
	q1, q2 := strings.Index(first, "q0001  start=0s"), strings.Index(first, "q0002  start=1µs  latency=8µs")
	if q1 < 0 || q2 < 0 || q1 > q2 {
		t.Fatalf("want q0001 (start 0) then q0002 (1–9 µs):\n%s", first)
	}
	var sum bytes.Buffer
	check(t, Summary(&sum, spans))
	if !strings.Contains(sum.String(), "queries=2 operator-spans=3") {
		t.Fatalf("Summary and Waterfall disagree on the orphans:\n%s", sum.String())
	}
}
