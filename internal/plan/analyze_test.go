package plan

import (
	"testing"
	"time"

	"robustdb/internal/trace"
)

// TestAttachActuals pins what AttachActuals adds to the two folds it renders
// (their own cases are trace's TestFold*): every node of the tree gets a
// section — "missing" where no span reached it — the exec summary carries the
// query id, the query span's latency and tenant, the worst q-error over "ok"
// nodes, and the server's outcome wins over the span-derived one.
func TestAttachActuals(t *testing.T) {
	payload := func() *ExplainPayload {
		child := &ExplainNode{ID: 0, Kind: "scan", EstRows: 100}
		return &ExplainPayload{Version: ExplainVersion,
			Root: &ExplainNode{ID: 1, Kind: "aggregate", EstRows: 10, Children: []*ExplainNode{child}}}
	}
	p := payload()
	AttachActuals(p, "q0001", []trace.Span{
		{Query: "q0001", Class: "selection", Node: 0, Proc: "gpu",
			Start: 0, End: 40 * time.Microsecond, Rows: 50, OutBytes: 400},
		{Query: "q0001", Class: "query", Tenant: "acme", Start: 0, End: 90 * time.Microsecond, Abort: "failed"},
	}, "")
	if e := p.Exec; e.QueryID != "q0001" || e.Outcome != "failed" || e.Latency != trace.US(90*time.Microsecond) || e.Tenant != "acme" {
		t.Fatalf("exec = %+v", e)
	}
	// The scan is the only "ok" node: est 100 vs actual 50 → q-error 2.
	if p.Exec.QError != 2 {
		t.Fatalf("q-error = %v, want 2", p.Exec.QError)
	}
	if a := p.Root.Children[0].Analyze; a.Status != "ok" || a.ActualRows != 50 || a.Processor != "gpu" {
		t.Fatalf("scan analyze = %+v", a)
	}
	if a := p.Root.Analyze; a == nil || a.Status != "missing" || a.Attempts != 0 || a.Processor != "" {
		t.Fatalf("unreached root analyze = %+v, want missing", a)
	}

	shed := payload()
	AttachActuals(shed, "", nil, "shed")
	if shed.Exec.Outcome != "shed" || shed.Exec.QError != 0 || shed.Exec.Latency != 0 {
		t.Fatalf("shed exec = %+v", shed.Exec)
	}
	for _, n := range []*ExplainNode{shed.Root, shed.Root.Children[0]} {
		if a := n.Analyze; a == nil || a.Status != "missing" || a.Attempts != 0 || a.ActualRows != 0 {
			t.Fatalf("shed node %d analyze = %+v, want missing with no actuals", n.ID, a)
		}
	}
}
