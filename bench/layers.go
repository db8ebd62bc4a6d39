package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"robustdb/bench/ladderspec"
)

// Per-layer metrics are measured from outside the program: counters it
// already exports, scraped at the window's two ends; times of calls into its
// public functions, made by the ladder; and the engine's own virtual-time
// tracer. A layer that does no work on a workload — the server on the batch,
// the workload runner on serve-* — reports 0 there, by the lists below, so a
// missing measurement still fails the run.

// batchOnly are the per-layer metrics only batch-contention has.
var batchOnly = []string{
	"workload.pass_wall_ms.cpu_only", "workload.pass_wall_ms.gpu_only", "workload.pass_wall_ms.ddc", "workload.pass_wall_ms.ddc_compressed",
	"workload.vt_makespan_ms.cpu_only", "workload.vt_makespan_ms.gpu_only", "workload.vt_makespan_ms.ddc", "workload.vt_makespan_ms.ddc_compressed",
	"workload.vt_robustness_ratio",
}

// serveOnly are the per-layer metrics only serve-* workloads have.
var serveOnly = []string{
	"client.shed", "client.bad_request", "client.resp_kb_per_query",
	"server.requests", "server.admitted", "server.shed", "server.query_errors",
	"server.plancache_hit_ratio", "server.plancache_evictions",
	"admission.queued", "admission.queue_wait_p95_ms", "journal.recorded_ratio",
	"obs.scrape_ms", "bench.span_overhead_ratio",
}

// ladderBudget is how long the ladder's rung rounds may take: the traced
// pass is the first thing shortened when the run-time cap is tight.
const ladderBudget = 6 * time.Second

// climbLadder runs bench/ladder on the workload's own inputs and merges its
// report: metrics into values, rungs and unresolved taxes into the detail,
// spans into the recorder, which it then writes out — the ladder is the last
// thing a traced pass does.
func climbLadder(cfg *runConfig, workload string, sp ladderspec.Spec, res *passResult, rec *spanRecorder, values map[string]float64) error {
	sp.Seed, sp.KernelWorkers = cfg.seed, kernelWorkers
	sp.BudgetMS, sp.Quick = int(ladderBudget/time.Millisecond), cfg.quick
	in, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	launch := now().Sub(rec.origin) // the ladder's span clock starts at its launch
	cmd := exec.Command(binPath(cfg.root, "ladder"))
	cmd.Stdin = bytes.NewReader(in)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("ladder: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var rep ladderspec.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		return fmt.Errorf("ladder report: %w", err)
	}
	for name, v := range rep.Metrics {
		if _, dup := values[name]; dup {
			return fmt.Errorf("ladder and harness both measured %q", name)
		}
		values[name] = v
	}
	res.Detail["rungs"] = rep.Rungs
	res.Detail["unresolved"] = rep.Unresolved
	res.Detail["shares"] = rep.Shares
	res.Problems = append(res.Problems, rep.Problems...)
	rec.adopt(rep.Spans, launch)
	return rec.write(filepath.Join(cfg.outDir, workload+".spans.jsonl"))
}

// serveCounters derives the per-layer metrics a traced pass takes from its
// window: the client's samples and the deltas of the scraped counters.
func serveCounters(res *passResult, win *tally, elapsed time.Duration, before, after *snapshot) map[string]float64 {
	d := func(series string) float64 { return after.series[series] - before.series[series] }
	ok := float64(win.ok())
	var wall, vt, queue []float64
	var wallSum, vtSum, bytesSum float64
	for _, s := range win.samples {
		wall = append(wall, s.wallMS)
		vt = append(vt, s.vtMS)
		queue = append(queue, s.queueMS)
		wallSum += s.wallMS
		vtSum += s.vtMS
		bytesSum += float64(s.bytes)
	}
	third := elapsed / 3
	var firstThird, lastThird float64
	for _, s := range win.samples {
		switch {
		case s.end < third:
			firstThird++
		case s.end >= 2*third && s.end < 3*third:
			lastThird++
		}
	}
	runs, aborts := d("robustdb_operator_runs_total"), d("robustdb_aborts_total")
	gpu, cpu := d("robustdb_gpu_operators_total"), d("robustdb_cpu_operators_total")
	hits, misses := d("robustdb_cache_hits_total"), d("robustdb_cache_misses_total")
	planHits, planMisses := d("robustdb_plancache_hits_total"), d("robustdb_plancache_misses_total")
	// The tracer's drop count is not exported; every operator attempt and
	// every query records one span into a ring of 65 536, so the overflow of
	// that sum is the count (chunk-stage spans make it a lower bound).
	recorded := after.series["robustdb_operator_runs_total"] + after.series["robustdb_aborts_total"] +
		after.series["robustdb_queries_completed_total"] + after.series["robustdb_queries_failed_total"]
	v := map[string]float64{
		"client.sent":                 float64(win.sent),
		"client.ok":                   ok,
		"client.shed":                 float64(win.shed),
		"client.failed":               float64(win.failed + win.wrong),
		"client.bad_request":          float64(win.badRequest),
		"client.wall_p95_ms":          percentile(wall, 95),
		"client.wall_p99_ms":          percentile(wall, 99),
		"client.wall_max_ms":          percentile(wall, 100),
		"client.resp_kb_per_query":    bytesSum / 1024 / ok,
		"client.drift_ratio":          ratio(lastThird, firstThird),
		"server.requests":             d("robustdb_server_requests_total"),
		"server.admitted":             d("robustdb_server_admitted_total"),
		"server.shed":                 d("robustdb_server_shed_total"),
		"server.query_errors":         d("robustdb_server_query_errors_total"),
		"server.plancache_hit_ratio":  ratio(planHits, planHits+planMisses),
		"server.plancache_evictions":  d("robustdb_plancache_evictions_total"),
		"admission.queued":            d("robustdb_admission_queued_total"),
		"admission.queue_wait_p95_ms": percentile(queue, 95),
		"workload.vt_latency_mean_ms": mean(vt),
		"workload.vt_latency_p95_ms":  percentile(vt, 95),
		"exec.operator_runs":          runs,
		"exec.gpu_share":              ratio(gpu, gpu+cpu),
		"exec.aborts":                 aborts,
		"exec.retries":                d("robustdb_retries_total"),
		"exec.useful_ratio":           ratio(runs, runs+aborts),
		"exec.wasted_vt_ms":           d("robustdb_wasted_time_seconds_total") * 1000,
		"exec.pipelined_ops":          d("robustdb_pipelined_ops_total"),
		"exec.pipeline_chunks":        d("robustdb_pipeline_chunks_total"),
		"exec.pipeline_cpu_chunks":    d("robustdb_pipeline_cpu_chunks_total"),
		"exec.overlap_ratio_mean":     ratio(d("robustdb_query_overlap_ratio_sum"), d("robustdb_query_overlap_ratio_count")),
		"exec.q_error_max":            after.series["robustdb_q_error_max"],
		"sim.wall_per_vt":             ratio(wallSum, vtSum),
		"bus.h2d_mb":                  d("robustdb_h2d_bytes_total") / 1e6,
		"bus.d2h_mb":                  d("robustdb_d2h_bytes_total") / 1e6,
		"bus.h2d_busy_vt_ms":          d(`robustdb_bus_busy_seconds_total{direction="h2d"}`) * 1000,
		"bus.d2h_busy_vt_ms":          d(`robustdb_bus_busy_seconds_total{direction="d2h"}`) * 1000,
		"cache.hit_ratio":             ratio(hits, hits+misses),
		"cache.evictions":             d("robustdb_cache_evictions_total"),
		"cache.readmits":              d("robustdb_cache_readmits_total"),
		"cache.failed_inserts":        d("robustdb_cache_failed_inserts_total"),
		"device.heap_high_water_mb":   after.series["robustdb_heap_high_water"] / 1e6,
		"engine.morsels":              d("robustdb_kernel_morsels_total"),
		"column.decompress_mb":        d("robustdb_decompress_bytes_total") / 1e6,
		"trace.spans_dropped":         max(0, recorded-65536),
		"obs.scrape_ms":               (before.scrapeMS + after.scrapeMS) / 2,
		"runtime.allocs_per_query":    (after.mallocs - before.mallocs) / ok,
		"runtime.alloc_mb_per_query":  (after.totalAlloc - before.totalAlloc) / 1e6 / ok,
		"runtime.gc_cycles":           after.numGC - before.numGC,
		"runtime.peak_rss_mb":         after.hwmMB,
		"runtime.heap_live_mb":        after.heapLiveMB,
	}
	for _, name := range batchOnly {
		v[name] = 0
	}
	// The counters must agree with what the client saw: no request was in
	// flight at either scrape.
	if v["server.requests"] != v["client.sent"] {
		res.Problems = append(res.Problems, fmt.Sprintf("server counted %v requests in the window, the client sent %v", v["server.requests"], v["client.sent"]))
	}

	return v
}

// serveLadder runs the ladder on the workload's own statements; ad-hoc
// templates get seed-drawn literals like any request.
func serveLadder(cfg *runConfig, w *serveWorkload, res *passResult, rec *spanRecorder, v map[string]float64) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	statements := make([]string, len(w.templates))
	for t := range statements {
		statements[t] = w.statement(t, rng)
	}
	return climbLadder(cfg, w.name, ladderspec.Spec{SF: w.sf, Rows: w.rows, CacheFrac: w.cacheFrac, Statements: statements}, res, rec, v)
}

// replay sends the workload's requests twice on one connection, first plain,
// then with net/http/httptrace spans; the ratio of the two rates is what the
// bench's own span recording costs.
func replay(cfg *runConfig, w *serveWorkload, res *passResult, srv *serverProc, orc *oracle, rec *spanRecorder, v map[string]float64) {
	requests, budget := 500, 2*time.Second
	if cfg.quick {
		requests = 20
	}
	var qps [2]float64
	for i := range qps {
		sess := newSessions(1, w, orc, srv.url, cfg.seed+1)
		if i == 1 {
			sess[0].rec = rec
		}
		start := now()
		deadline := start.Add(budget)
		t := runPhase(sess, func(sent int) bool { return sent >= requests || now().After(deadline) })
		if t.ok() != t.sent {
			res.Problems = append(res.Problems, fmt.Sprintf("replay: %d of %d requests failed, first: %v", t.sent-t.ok(), t.sent, t.firstErr))
		}
		qps[i] = float64(t.ok()) / now().Sub(start).Seconds()
	}
	res.Detail["replay_qps"] = qps
	v["bench.span_overhead_ratio"] = ratio(qps[1], qps[0])
}

// spanTail folds the most recent spans of the server's own virtual-time
// tracer (/debug/spans) into per-operator-attempt means.
func spanTail(srv *serverProc, v map[string]float64) error {
	body, status, err := srv.get("/debug/spans")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("/debug/spans: status %d: %v", status, err)
	}
	var spans []struct {
		Class                           string
		Start, End, QueueWait, Transfer int64 // virtual nanoseconds
	}
	if err := json.Unmarshal(body, &spans); err != nil {
		return fmt.Errorf("/debug/spans: %w", err)
	}
	var n, queue, transfer, run float64
	for _, s := range spans {
		if s.Class == "query" {
			continue
		}
		n++
		queue += float64(s.QueueWait)
		transfer += float64(s.Transfer)
		run += float64(s.End - s.Start)
	}
	v["exec.vt_queue_wait_ms"] = ratio(queue, n) / 1e6
	v["exec.vt_transfer_ms"] = ratio(transfer, n) / 1e6
	v["exec.vt_run_ms"] = ratio(run, n) / 1e6
	return nil
}

// slowLog estimates the share of queries the slow-query journal records. The
// journal exports its last 256 entries but no totals; every entry carries its
// engine query id, so the entries' count over the span of their ids is the
// recorded share of the most recent queries.
func slowLog(srv *serverProc, v map[string]float64) error {
	body, status, err := srv.get("/debug/slowlog")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("/debug/slowlog: status %d: %v", status, err)
	}
	var ids []float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var entry struct {
			QueryID string `json:"query_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			return fmt.Errorf("/debug/slowlog: %w", err)
		}
		if len(entry.QueryID) > 1 {
			if id, err := strconv.ParseFloat(entry.QueryID[1:], 64); err == nil { // "q0042"
				ids = append(ids, id)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("/debug/slowlog: %w", err)
	}
	v["journal.recorded_ratio"] = 0
	if n := len(ids); n > 1 {
		v["journal.recorded_ratio"] = float64(n-1) / (ids[n-1] - ids[0])
	}
	return nil
}

// batchLayers derives the per-layer metrics of the batch workload's traced
// pass. Counters are totals of one round — identical in every round, virtual
// time being deterministic — and what only the engine knows comes from the
// ladder's traced round.
func batchLayers(cfg *runConfig, res *passResult, win *batchWindow) (map[string]float64, error) {
	first, byPass, passWall, roundEnds, queries := win.first, win.byPass, win.passWall, win.roundEnds, win.queries
	ddc := first.results[ddcPass]
	var vt []float64
	for _, ls := range ddc.Latencies {
		for _, l := range ls {
			vt = append(vt, ms(l))
		}
	}
	hwm, err := readStatusMB(0, "VmHWM:")
	if err != nil {
		return nil, err
	}
	v := map[string]float64{
		"client.sent":                  float64(res.Attempted),
		"client.ok":                    queries,
		"client.failed":                float64(res.Failed),
		"client.wall_p95_ms":           percentile(passWall, 95),
		"client.wall_p99_ms":           percentile(passWall, 99),
		"client.wall_max_ms":           percentile(passWall, 100),
		"workload.vt_robustness_ratio": float64(ddc.WorkloadTime) / float64(first.results[0].WorkloadTime),
		"workload.vt_latency_mean_ms":  mean(vt),
		"workload.vt_latency_p95_ms":   percentile(vt, 95),
		"sim.wall_per_vt":              median(byPass[ddcPass]) / ms(ddc.WorkloadTime),
		"runtime.allocs_per_query":     float64(win.memAfter.Mallocs-win.memBefore.Mallocs) / queries,
		"runtime.alloc_mb_per_query":   float64(win.memAfter.TotalAlloc-win.memBefore.TotalAlloc) / 1e6 / queries,
		"runtime.gc_cycles":            float64(win.memAfter.NumGC - win.memBefore.NumGC),
		"runtime.peak_rss_mb":          hwm,
		"runtime.heap_live_mb":         float64(win.live.HeapAlloc) / 1e6,
	}
	// Drift: the last round's rate over the first round's.
	v["client.drift_ratio"] = 1
	if n := len(roundEnds); n > 1 {
		v["client.drift_ratio"] = float64(roundEnds[0]) / float64(roundEnds[n-1]-roundEnds[n-2])
	}
	sp := ladderspec.Spec{SF: batchSF, Users: batchUsers, TotalQueries: batchQueries}
	var runs, aborts, gpu float64
	for i, p := range batchPasses {
		r := first.results[i]
		v["workload.pass_wall_ms."+p.name] = median(byPass[i])
		v["workload.vt_makespan_ms."+p.name] = ms(r.WorkloadTime)
		runs += float64(r.GPUOperators + r.CPUOperators)
		gpu += float64(r.GPUOperators)
		aborts += float64(r.Aborts)
		v["exec.retries"] += float64(r.Retries)
		v["exec.wasted_vt_ms"] += ms(r.WastedTime)
		v["bus.h2d_mb"] += float64(r.H2DBytes) / 1e6
		v["bus.d2h_mb"] += float64(r.D2HBytes) / 1e6
		v["bus.h2d_busy_vt_ms"] += ms(r.H2DTime)
		v["bus.d2h_busy_vt_ms"] += ms(r.D2HTime)
		sp.Passes = append(sp.Passes, ladderspec.Pass{Strategy: p.strategy().Label, Compressed: p.compressed, MakespanNS: int64(r.WorkloadTime)})
	}
	v["exec.operator_runs"], v["exec.aborts"] = runs, aborts
	v["exec.gpu_share"] = ratio(gpu, runs)
	v["exec.useful_ratio"] = ratio(runs, runs+aborts)
	for _, name := range serveOnly {
		v[name] = 0
	}
	return v, climbLadder(cfg, batchName, sp, res, newSpanRecorder(), v)
}
