package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustdb"
	"robustdb/internal/admission"
	"robustdb/internal/cost"
	"robustdb/internal/exec"
	"robustdb/internal/journal"
	"robustdb/internal/plan"
	"robustdb/internal/server"
	"robustdb/internal/sql"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

const analyzeSQL = "SELECT c_nation, SUM(lo_revenue) AS rev " +
	"FROM lineorder, customer " +
	"WHERE lo_custkey = c_custkey AND lo_discount BETWEEN 1 AND 3 " +
	"GROUP BY c_nation ORDER BY rev DESC LIMIT 5"

// TestExplainAnalyzeHTTP drives POST /v1/explain?analyze=1 end to end: the
// document must carry an exec summary and numeric actuals on every node.
func TestExplainAnalyzeHTTP(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{Tracer: trace.New(0)}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	body := `{"tenant":"acme","sql":"` + analyzeSQL + `"}`
	resp, err := http.Post(ts.URL+"/v1/explain?analyze=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc plan.ExplainPayload
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Exec == nil || doc.Exec.QueryID == "" || doc.Exec.Outcome != "ok" {
		t.Fatalf("exec summary = %+v", doc.Exec)
	}
	if doc.Exec.Tenant != "acme" {
		t.Fatalf("tenant = %q, want acme", doc.Exec.Tenant)
	}
	var check func(n *plan.ExplainNode)
	check = func(n *plan.ExplainNode) {
		if n.Analyze == nil {
			t.Fatalf("node %d has no analyze section", n.ID)
		}
		if n.Analyze.Status != "ok" || n.Analyze.Attempts < 1 || n.Analyze.VT <= 0 {
			t.Fatalf("node %d analyze = %+v", n.ID, n.Analyze)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(doc.Root)
}

// TestExplainAnalyzeStatement pins the SQL spelling: an EXPLAIN ANALYZE
// statement POSTed to /v1/query executes and answers with the analyzed
// document, while plain EXPLAIN stays execution-free (no analyze sections).
func TestExplainAnalyzeStatement(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{Tracer: trace.New(0)}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	post := func(sql string) plan.ExplainPayload {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"tenant": "acme", "sql": sql})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var doc plan.ExplainPayload
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return doc
	}
	analyzed := post("EXPLAIN ANALYZE " + analyzeSQL)
	if analyzed.Exec == nil || analyzed.Root.Analyze == nil {
		t.Fatalf("EXPLAIN ANALYZE returned no actuals: exec=%+v", analyzed.Exec)
	}
	plain := post("EXPLAIN " + analyzeSQL)
	if plain.Exec != nil || plain.Root.Analyze != nil {
		t.Fatalf("plain EXPLAIN must not execute: exec=%+v analyze=%+v", plain.Exec, plain.Root.Analyze)
	}
}

// TestSubmitSQLRefusesExplain: SubmitSQL returns rows, so an EXPLAIN
// statement is refused — naming the surfaces that answer it — rather than run
// for rows its caller did not ask for. Nothing is admitted.
func TestSubmitSQLRefusesExplain(t *testing.T) {
	s := newServer(t, catalog(t), exec.Config{}, nil)
	defer drain(t, s)
	for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
		_, err := s.SubmitSQL(context.Background(), "acme", 0, prefix+analyzeSQL, 0)
		if !errors.Is(err, server.ErrBadQuery) || !strings.Contains(err.Error(), "Server.Explain") {
			t.Errorf("SubmitSQL(%q…): %v, want a bad query naming Server.Explain", prefix, err)
		}
	}
	if got := s.Admission().Stats(); got.InFlight != 0 || len(got.Tenants) != 0 {
		t.Errorf("a refused statement reached admission: %+v", got)
	}
}

// TestExplainRefusesAnalyze: Explain never executes, so an EXPLAIN ANALYZE
// statement is refused — naming the surfaces that run it — rather than
// answered without the actuals it asked for.
func TestExplainRefusesAnalyze(t *testing.T) {
	s := newServer(t, catalog(t), exec.Config{Tracer: trace.New(0)}, nil)
	defer drain(t, s)
	_, err := s.Explain("EXPLAIN ANALYZE " + analyzeSQL)
	if !errors.Is(err, server.ErrBadQuery) || !strings.Contains(err.Error(), "Server.ExplainAnalyze") {
		t.Errorf("Explain(EXPLAIN ANALYZE …): %v, want a bad query naming Server.ExplainAnalyze", err)
	}
	doc, err := s.Explain("EXPLAIN " + analyzeSQL)
	if err != nil {
		t.Fatalf("Explain(EXPLAIN …): %v", err)
	}
	if doc.Exec != nil {
		t.Errorf("Explain(EXPLAIN …) ran the statement: %+v", doc.Exec)
	}
}

// TestExplainAnalyzeDeadline pins the mid-plan deadline contract: the
// payload is still returned, the outcome is "deadline", and no node carries
// fabricated actuals — unreached nodes are "missing", aborted ones "partial".
func TestExplainAnalyzeDeadline(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{Tracer: trace.New(0)}, nil)
	defer drain(t, s)

	doc, err := s.ExplainAnalyze(context.Background(), "acme", 0, analyzeSQL, time.Microsecond)
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v (a deadline failure must still return the payload)", err)
	}
	if doc == nil || doc.Exec == nil {
		t.Fatal("deadline failure must still return the analyzed payload")
	}
	if doc.Exec.Outcome != "deadline" {
		t.Fatalf("outcome = %q, want deadline", doc.Exec.Outcome)
	}
	okNodes := 0
	var check func(n *plan.ExplainNode)
	check = func(n *plan.ExplainNode) {
		a := n.Analyze
		if a == nil {
			t.Fatalf("node %d has no analyze section", n.ID)
		}
		switch a.Status {
		case "ok":
			okNodes++
		case "partial", "missing":
			if a.ActualRows != 0 || a.ActualBytes != 0 {
				t.Fatalf("node %d status %q fabricates actuals: %+v", n.ID, a.Status, a)
			}
		default:
			t.Fatalf("node %d unknown status %q", n.ID, a.Status)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(doc.Root)
	nodes := countNodes(doc.Root)
	if okNodes == nodes {
		t.Fatalf("a 1µs deadline completed all %d nodes — deadline did not fire mid-plan", nodes)
	}
}

func countNodes(n *plan.ExplainNode) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// TestExplainAnalyzeShed pins the shed contract: a query shed at admission
// returns the typed admission error and no payload (there is nothing to
// analyze), and the journal records a minimal entry without plan or spans.
func TestExplainAnalyzeShed(t *testing.T) {
	cat := catalog(t)
	j := journal.New(16, 0, 0)
	s := newServer(t, cat, exec.Config{Tracer: trace.New(0)}, func(cfg *server.Config) {
		cfg.Journal = j
	})
	defer drain(t, s)
	// Draining the admission controller sheds every new submission before it
	// reaches the engine, while the host stays up to serve Placement.
	s.Admission().Drain()
	doc, err := s.ExplainAnalyze(context.Background(), "acme", 0, analyzeSQL, 0)
	var ae *admission.Error
	if !errors.As(err, &ae) && !errors.Is(err, server.ErrHostClosed) {
		t.Fatalf("err = %v, want a typed shed error", err)
	}
	if doc != nil {
		t.Fatalf("shed query returned a payload: %+v", doc)
	}
	entries := j.Entries()
	if len(entries) == 0 {
		t.Fatal("shed query was not journaled")
	}
	last := entries[len(entries)-1]
	if last.Outcome != "shed" || last.QueryID != "" || last.Plan != nil || len(last.Spans) != 0 {
		t.Fatalf("shed journal entry = %+v, want minimal shed record", last)
	}
}

// TestSlowlogEndpoint drives the journal over HTTP: with a zero threshold
// every query is journaled, and /debug/slowlog serves JSON Lines carrying
// the analyzed plan and span waterfall.
func TestSlowlogEndpoint(t *testing.T) {
	cat := catalog(t)
	j := journal.New(16, 0, 0)
	s := newServer(t, cat, exec.Config{Tracer: trace.New(0)}, func(cfg *server.Config) {
		cfg.Journal = j
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	body := `{"tenant":"acme","sql":"` + analyzeSQL + `"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	slow, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatalf("GET slowlog: %v", err)
	}
	defer slow.Body.Close()
	if slow.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d", slow.StatusCode)
	}
	var entry journal.Entry
	dec := json.NewDecoder(slow.Body)
	found := false
	for dec.More() {
		if err := dec.Decode(&entry); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if entry.Tenant == "acme" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("journaled query not found in /debug/slowlog")
	}
	if entry.QueryID == "" || entry.Outcome != "ok" || entry.Reason != "latency" {
		t.Fatalf("entry = %+v", entry)
	}
	if entry.SQL != analyzeSQL {
		t.Fatalf("entry sql = %q", entry.SQL)
	}
	if len(entry.Spans) == 0 {
		t.Fatal("entry has no span waterfall")
	}
	if entry.Plan == nil || entry.Plan.Exec == nil || entry.Plan.Root.Analyze == nil {
		t.Fatalf("entry plan is not analyzed: %+v", entry.Plan)
	}
	if entry.WallTime == "" {
		t.Fatal("entry has no wall-clock timestamp")
	}
}

// TestSlowlogDisabled pins the off switch: no journal configured → 404, so
// probes can tell "disabled" from "empty".
func TestSlowlogDisabled(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestTenantOutcomeMetrics pins the SLO attribution series: one completed
// query shows up on TenantQueryLatency{tenant,outcome="ok"} with bounded,
// sanitized tenant labels.
func TestTenantOutcomeMetrics(t *testing.T) {
	cat := catalog(t)
	s := newServer(t, cat, exec.Config{}, nil)
	defer drain(t, s)
	if _, err := s.SubmitSQL(context.Background(), "acme", 0, analyzeSQL, 0); err != nil {
		t.Fatalf("SubmitSQL: %v", err)
	}
	snap := s.Engine().Metrics.Registry().Snapshot()
	key := trace.LabeledName("TenantQueryLatency", "tenant", "acme", "outcome", "ok")
	h, ok := snap.Histograms[key]
	if !ok || h.Count != 1 {
		t.Fatalf("series %q = %+v (ok=%v), want one observation", key, h, ok)
	}
	if h.Sum <= 0 {
		t.Fatalf("observed latency must be positive, got %v", h.Sum)
	}
}

// countingPlacer counts CompileTime calls. The pump makes exactly one per job
// it serves — an executed query or a place-only EXPLAIN job — so the count is
// the number of pump jobs.
type countingPlacer struct {
	exec.Placer
	jobs atomic.Int64
}

func (c *countingPlacer) CompileTime(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	c.jobs.Add(1)
	return c.Placer.CompileTime(e, p)
}

// journalTaxAllocs bounds what journaling one request on a cached statement
// may allocate on top of serving it: the entry, its waterfall and the
// rendered plan document — about 100 for the five-node test statement.
// Parsing and compiling the statement again costs as many on top, so a
// journal that re-resolves its text lands at about 200.
const journalTaxAllocs = 150

// TestJournaledRequestRedoesNothing pins the journal's cost on the hot path:
// a journaled SubmitSQL on a cached statement reads the prepared statement it
// executed and the engine's record of the query — no parse, no compile, no
// second pump job — so it allocates only a small constant more than the same
// call with journaling off, even with the tracer's ring full.
func TestJournaledRequestRedoesNothing(t *testing.T) {
	cat := catalog(t)
	fullRing := func() *trace.Tracer {
		tr := trace.New(0)
		for i := 0; i < trace.DefaultCapacity; i++ {
			tr.Span(trace.Span{Query: "warm"})
		}
		return tr
	}
	measure := func(j *journal.Journal) (allocs float64, jobsPerRun, misses int64) {
		var placer *countingPlacer
		s := newServer(t, cat, exec.Config{Tracer: fullRing()}, func(cfg *server.Config) {
			placer = &countingPlacer{Placer: cfg.Placer}
			cfg.Placer = placer
			cfg.Journal = j
		})
		defer drain(t, s)
		submit := func() {
			if _, err := s.SubmitSQL(context.Background(), "acme", 0, analyzeSQL, 0); err != nil {
				t.Fatalf("SubmitSQL: %v", err)
			}
		}
		submit() // fill the plan cache: the runs below are hits
		reg := s.Engine().Metrics.Registry()
		missesBefore, jobsBefore := reg.Snapshot().Counters["PlancacheMisses"], placer.jobs.Load()
		const runs = 20
		allocs = testing.AllocsPerRun(runs, submit)
		// AllocsPerRun makes one warm-up call on top of runs.
		return allocs, (placer.jobs.Load() - jobsBefore) / (runs + 1), reg.Snapshot().Counters["PlancacheMisses"] - missesBefore
	}
	j := journal.New(16, 0, 0) // threshold 0: every request is journaled
	on, jobs, misses := measure(j)
	off, _, _ := measure(nil)
	if j.Len() == 0 || j.Entries()[0].Plan == nil {
		t.Fatal("the journaled runs recorded no analyzed plan: nothing was measured")
	}
	if jobs != 1 {
		t.Fatalf("a journaled request made %d pump jobs, want exactly 1", jobs)
	}
	if misses != 0 {
		t.Fatalf("%d plan-cache misses on a cached statement: the text was resolved again", misses)
	}
	t.Logf("allocations per request: %.0f journaled, %.0f not", on, off)
	if tax := on - off; tax > journalTaxAllocs {
		t.Fatalf("journaling a cached statement costs %.0f allocations per request (%.0f on, %.0f off), want <= %d",
			tax, on, off, journalTaxAllocs)
	}
}

// TestOneAnalyzeFunctionThreeSurfaces pins that EXPLAIN ANALYZE has one
// implementation: the /v1/explain?analyze=1 response and the slow-log entry
// of that same query carry byte-identical plan trees, the tree reports the
// placement the query ran under, and the library's DB.ExplainAnalyzeSQL of
// the statement on an identically built machine agrees with both on every
// field that does not depend on virtual time. It also holds the surfaces to
// one fold of the query's spans: the slow-log entry's spans are the query's
// own record as the span ring received it, and tracereport -slowest over them
// prints every node's attempts, processor, rows, bytes and vt/wait/transfer
// exactly as the document carries them.
func TestOneAnalyzeFunctionThreeSurfaces(t *testing.T) {
	cat := catalog(t)
	// A compile-time strategy, so the document has real placements to report;
	// warmed with the statement alone, as DB.ExplainAnalyzeSQL warms its engine.
	strat := workload.DataDriven()
	pl, err := sql.PlanQuery(cat, analyzeSQL)
	if err != nil {
		t.Fatal(err)
	}
	j := journal.New(16, 0, 0)
	tracer := trace.New(0)
	s := newServerUnder(t, cat, exec.Config{Tracer: tracer}, strat,
		[]workload.Query{{Name: "analyze", Plan: pl}}, func(cfg *server.Config) { cfg.Journal = j })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	body := `{"tenant":"acme","sql":"` + analyzeSQL + `"}`
	resp, err := http.Post(ts.URL+"/v1/explain?analyze=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	// Root stays raw so the comparison is over the bytes each surface sent.
	type wireDoc struct {
		Exec *plan.ExplainExec `json:"exec"`
		Root json.RawMessage   `json:"root"`
	}
	var served wireDoc
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil || served.Exec == nil {
		t.Fatalf("decode analyze response: %v (exec %+v)", err, served.Exec)
	}

	slow, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatalf("GET slowlog: %v", err)
	}
	defer slow.Body.Close()
	var logged wireDoc
	var spans []trace.Span
	for dec := json.NewDecoder(slow.Body); dec.More(); {
		var entry struct {
			QueryID string       `json:"query_id"`
			Plan    wireDoc      `json:"plan"`
			Spans   []trace.Span `json:"spans"`
		}
		if err := dec.Decode(&entry); err != nil {
			t.Fatalf("decode slowlog: %v", err)
		}
		if entry.QueryID == served.Exec.QueryID {
			logged, spans = entry.Plan, entry.Spans
		}
	}
	if logged.Root == nil {
		t.Fatalf("query %s not in /debug/slowlog", served.Exec.QueryID)
	}
	var ring []trace.Span
	for _, sp := range tracer.Spans() {
		if sp.Query == served.Exec.QueryID {
			ring = append(ring, sp)
		}
	}
	if len(spans) == 0 || !reflect.DeepEqual(spans, ring) {
		t.Fatalf("slow-log spans are not the query's record:\nentry: %+v\nring:  %+v", spans, ring)
	}
	var slowest bytes.Buffer
	if err := robustdb.TraceSlowest(&slowest, spans, 1); err != nil {
		t.Fatal(err)
	}
	rows := make(map[int][]string) // node id → proc vt= wait= xfer= attempts= rows= bytes=
	for _, line := range strings.Split(slowest.String(), "\n") {
		if f := strings.Fields(line); len(f) > 8 && strings.HasPrefix(f[0], "node=") {
			id, err := strconv.Atoi(strings.TrimPrefix(f[0], "node="))
			if err != nil {
				t.Fatalf("-slowest row %q: %v", line, err)
			}
			rows[id] = f[1:8]
		}
	}
	if !bytes.Equal(served.Root, logged.Root) {
		t.Fatalf("plan trees differ between the two surfaces:\n/v1/explain:    %s\n/debug/slowlog: %s", served.Root, logged.Root)
	}

	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: 1, RowsPerSF: 2000, Seed: 7}) // catalog(t)'s data
	lib, err := db.ExplainAnalyzeSQL(robustdb.Device{CacheBytes: cat.TotalBytes() / 2, HeapBytes: cat.TotalBytes()}, strat, analyzeSQL)
	if err != nil {
		t.Fatalf("ExplainAnalyzeSQL: %v", err)
	}
	var root plan.ExplainNode
	if err := json.Unmarshal(logged.Root, &root); err != nil {
		t.Fatalf("decode root: %v", err)
	}
	gpu := 0
	var compare func(got, want *plan.ExplainNode)
	compare = func(got, want *plan.ExplainNode) {
		a, b := got.Analyze, want.Analyze
		if a == nil || b == nil || len(got.Children) != len(want.Children) {
			t.Fatalf("node %d: trees differ in shape or lack actuals", got.ID)
		}
		if got.Placement == "runtime" || (a.Attempts == 1 && got.Placement != a.Processor) {
			t.Fatalf("node %d: placement %q is not what it ran under (processor %q, %d attempts)",
				got.ID, got.Placement, a.Processor, a.Attempts)
		}
		if got.Placement == "gpu" {
			gpu++
		}
		printed := []string{a.Processor, "vt=" + a.VT.String(), "wait=" + a.QueueWait.String(),
			"xfer=" + a.Transfer.String(), fmt.Sprint("attempts=", a.Attempts),
			fmt.Sprint("rows=", a.ActualRows), fmt.Sprint("bytes=", a.ActualBytes)}
		if !slices.Equal(rows[got.ID], printed) {
			t.Fatalf("node %d: -slowest prints %q, the document carries %q", got.ID, rows[got.ID], printed)
		}
		if got.Placement != want.Placement || a.Status != b.Status || a.Processor != b.Processor ||
			a.Attempts != b.Attempts || a.ActualRows != b.ActualRows || a.ActualBytes != b.ActualBytes {
			t.Fatalf("node %d: server %q %+v, library %q %+v", got.ID, got.Placement, *a, want.Placement, *b)
		}
		for i := range got.Children {
			compare(got.Children[i], want.Children[i])
		}
	}
	compare(&root, lib.Root)
	if gpu == 0 {
		t.Fatal("the strategy placed nothing on the co-processor: the placement check compared constants")
	}
}

// TestPublishedPlanIsNeverWritten is the race-detector guard of the shared
// prepared statement: under a compile-time strategy the pump runs the placer
// over the cached plan for every query while network goroutines render the
// same plan for plain EXPLAINs and for the journal. Nothing may write it
// after it is published (run with -race).
func TestPublishedPlanIsNeverWritten(t *testing.T) {
	cat := catalog(t)
	j := journal.New(64, 0, 0) // threshold 0: every query renders its plan
	s := newServerUnder(t, cat, exec.Config{Tracer: trace.New(0)}, workload.CriticalPath(), queries(),
		func(cfg *server.Config) { cfg.Journal = j })
	defer drain(t, s)

	const sessions, rounds = 8, 6
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := s.SubmitSQL(context.Background(), "acme", 0, analyzeSQL, 0); err != nil {
					var ae *admission.Error
					if !errors.As(err, &ae) { // a shed under 8 sessions vs 4 slots is fine
						t.Errorf("SubmitSQL: %v", err)
					}
				}
				if doc, err := s.Explain(analyzeSQL); err != nil || doc.Root == nil {
					t.Errorf("Explain: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if j.Len() == 0 {
		t.Fatal("nothing was journaled")
	}
}

// TestNewRejectsASecondCatalog pins the precondition of the guard above: the
// front door estimates prepared plans against Config.Catalog and the pump's
// placers against Engine.Cat, so the two must be one catalog.
func TestNewRejectsASecondCatalog(t *testing.T) {
	cat := catalog(t)
	strat := workload.CriticalPath()
	e, err := workload.NewEngine(cat, exec.Config{CacheBytes: cat.TotalBytes(), HeapBytes: cat.TotalBytes()}, strat, queries())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := server.New(server.Config{Engine: e, Placer: strat.Placer, Catalog: cat.Compressed()}); err == nil {
		t.Fatal("server.New accepted a Config.Catalog that is not the engine's")
	}
}
