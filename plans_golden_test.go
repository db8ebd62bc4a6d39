package robustdb

// The plan golden: the EXPLAIN ANALYZE document of every benchmark query —
// the 13 SSB plans and TPC-H Q2–Q7 at SF 1, seed 1, each under Data-Driven
// Chopping and GPU Only — and of one SQL statement on the 2 000-row
// compressed catalog, which pins the SQL planner's tree and the encoding
// fields. Every node carries its estimates, placement and actuals, so a change
// to virtual time shows here query by query and node by node. Regenerate
// after an intended change with:
//
//	go test -run TestPlanGolden -update-golden .

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"robustdb/internal/plan"
	"robustdb/internal/sql"
	"robustdb/internal/trace"
)

// goldenSQL joins, filters in the code domain, aggregates over dictionary
// group keys, and sorts with a limit — one statement that exercises every
// node kind the SQL planner builds.
const goldenSQL = "EXPLAIN ANALYZE SELECT c_nation, SUM(lo_revenue) AS rev " +
	"FROM lineorder, customer " +
	"WHERE lo_custkey = c_custkey AND lo_discount BETWEEN 1 AND 3 " +
	"GROUP BY c_nation ORDER BY rev DESC LIMIT 5"

// pinnedPlan is one document of the golden, with the spans it was folded
// from (not part of the golden).
type pinnedPlan struct {
	Query    string          `json:"query"`
	Strategy string          `json:"strategy"`
	Doc      *ExplainPayload `json:"explain"`
	spans    []trace.Span
}

// pinnedPlans analyzes every pinned query, each once on a fresh machine with
// the given kernel workers (half the database cached, the heap twice that).
func pinnedPlans(t *testing.T, workers int) []pinnedPlan {
	t.Helper()
	var out []pinnedPlan
	analyze := func(db *DB, name, query string, pl *Plan, strats ...Strategy) {
		for _, strat := range strats {
			dev := db.DeviceForWorkingSet(0.5)
			dev.KernelWorkers = workers
			dev.Tracer = NewTracer(64) // the document reads the query's record, not the ring
			doc, stats, err := db.explainAnalyze(dev, strat, query, pl)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, strat.Label, err)
			}
			out = append(out, pinnedPlan{Query: name, Strategy: strat.Label, Doc: doc, spans: stats.Spans})
		}
	}
	ssbDB, tpchDB := OpenSSB(SSBConfig{SF: 1, Seed: 1}), OpenTPCH(TPCHConfig{SF: 1, Seed: 1})
	for _, suite := range []struct {
		name    string
		db      *DB
		queries []WorkloadQuery
	}{{"SSB", ssbDB, SSBQueries()}, {"TPC-H", tpchDB, TPCHQueries()}} {
		for _, q := range suite.queries {
			analyze(suite.db, suite.name+" "+q.Name, "", q.Plan, DataDrivenChopping(), GPUOnly())
		}
	}
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 42}).Compressed()
	pl, err := sql.PlanQuery(db.cat, goldenSQL) // DB.SQL refuses an EXPLAIN ANALYZE statement
	if err != nil {
		t.Fatal(err)
	}
	analyze(db, "statement", goldenSQL, pl, DataDrivenChopping())
	return out
}

// TestPlanGolden pins every document byte for byte, and holds kernel
// parallelism to changing nothing in it: the golden is generated with one
// kernel worker and must come out identical with 2 and 7.
func TestPlanGolden(t *testing.T) {
	path := filepath.Join("testdata", "plans_golden.json")
	for _, workers := range []int{1, 2, 7} {
		got, err := json.MarshalIndent(pinnedPlans(t, workers), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *updateGolden && workers == 1 {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(got))
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("plan documents at %d kernel workers drifted from %s (%d vs %d bytes); if intended, regenerate with -update-golden",
				workers, path, len(got), len(want))
		}
	}
}

// walkAnalyze visits every node of the document tree.
func walkAnalyze(n *plan.ExplainNode, f func(*plan.ExplainNode)) {
	f(n)
	for _, c := range n.Children {
		walkAnalyze(c, f)
	}
}

// TestExplainAnalyzeSumConsistency holds every pinned document to the raw
// spans it was folded from, under the fold's one rounding rule: a node's vt,
// queue-wait and transfer time are its attempts' durations summed in
// nanoseconds and truncated to whole microseconds once, on the sum — never
// term by term (tracereport -slowest prints the same truncated sums); rows
// and bytes are the completed attempt's. The exec latency is the query span's
// duration under the same rule. The same walk checks the shape CI asserts
// over HTTP: every node placed, every scan naming its compression, and at
// least one scan compressed.
func TestExplainAnalyzeSumConsistency(t *testing.T) {
	us := func(d time.Duration) string { return strconv.FormatInt(int64(d/time.Microsecond), 10) }
	wire := func(d trace.US) string { b, _ := d.MarshalJSON(); return string(b) }
	compressed := 0
	for _, p := range pinnedPlans(t, 1) {
		name := p.Query + " under " + p.Strategy
		type sums struct {
			vt, wait, xfer time.Duration
			rows, bytes    int64
		}
		byNode := make(map[int]*sums)
		var latency time.Duration
		for _, s := range p.spans {
			switch s.Class {
			case "query":
				latency = s.Duration()
				continue
			case "chunk":
				continue
			}
			n := byNode[s.Node]
			if n == nil {
				n = &sums{}
				byNode[s.Node] = n
			}
			n.vt, n.wait, n.xfer = n.vt+s.Duration(), n.wait+s.QueueWait, n.xfer+s.Transfer
			if s.Abort == "" {
				n.rows, n.bytes = s.Rows, s.OutBytes
			}
		}
		if e := p.Doc.Exec; e.Outcome != "ok" || wire(e.Latency) != us(latency) {
			t.Fatalf("%s: exec %+v, want ok with latency_us %s", name, e, us(latency))
		}
		walkAnalyze(p.Doc.Root, func(n *plan.ExplainNode) {
			a, want := n.Analyze, byNode[n.ID]
			if a == nil || want == nil || a.Status != "ok" || a.Attempts < 1 {
				t.Fatalf("%s: node %d analyze %+v, want ok over its spans on a clean run", name, n.ID, a)
			}
			if wire(a.VT) != us(want.vt) || wire(a.QueueWait) != us(want.wait) || wire(a.Transfer) != us(want.xfer) {
				t.Fatalf("%s: node %d vt/wait/xfer %s/%s/%s µs, spans sum to %s/%s/%s µs", name, n.ID,
					wire(a.VT), wire(a.QueueWait), wire(a.Transfer), us(want.vt), us(want.wait), us(want.xfer))
			}
			if a.ActualRows != want.rows || a.ActualBytes != want.bytes {
				t.Fatalf("%s: node %d rows/bytes %d/%d, completed attempt %d/%d", name, n.ID,
					a.ActualRows, a.ActualBytes, want.rows, want.bytes)
			}
			if n.Placement == "" {
				t.Errorf("%s: %s node %d missing placement", name, n.Kind, n.ID)
			}
			if n.Kind == "scan" && n.Compression == "" {
				t.Errorf("%s: scan node %d missing compression mode", name, n.ID)
			}
			if n.Kind == "scan" && n.Compression != "plain" {
				compressed++
			}
		})
	}
	if compressed == 0 {
		t.Fatal("no scan over a compressed column: the statement's catalog should be .Compressed()")
	}
}
