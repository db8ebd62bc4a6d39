package workload

import (
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/exec"
	"robustdb/internal/placement"
	"robustdb/internal/sim"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
)

func tinySSB() *table.Catalog {
	return ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 4000, Seed: 11})
}

func tinyCfg(cat *table.Catalog) exec.Config {
	// Device sized relative to the database, like the paper's setup.
	total := cat.TotalBytes()
	return exec.Config{CacheBytes: total / 2, HeapBytes: total}
}

func ssbQueries() []Query {
	var qs []Query
	for _, q := range ssb.Queries() {
		qs = append(qs, Query{Name: q.Name, Plan: q.Plan})
	}
	return qs
}

func TestRunValidation(t *testing.T) {
	cat := tinySSB()
	if _, _, err := Run(cat, tinyCfg(cat), CPUOnly(), Spec{Queries: ssbQueries(), Users: 0}); err == nil {
		t.Fatal("expected user-count error")
	}
	if _, _, err := Run(cat, tinyCfg(cat), CPUOnly(), Spec{Users: 1}); err == nil {
		t.Fatal("expected no-queries error")
	}
}

func TestAllStrategiesProduceIdenticalResults(t *testing.T) {
	cat := tinySSB()
	spec := Spec{Queries: ssbQueries(), Users: 2, TotalQueries: 13}
	var baseline map[string]float64
	for _, strat := range AllStrategies() {
		_, res, err := Run(cat, tinyCfg(cat), strat, spec)
		if err != nil {
			t.Fatalf("%s: %v", strat.Label, err)
		}
		if res.QueriesRun != 13 {
			t.Fatalf("%s: ran %d queries", strat.Label, res.QueriesRun)
		}
		if res.WorkloadTime <= 0 {
			t.Fatalf("%s: no time elapsed", strat.Label)
		}
		// Compare a scalar fingerprint: the mean latency map keys must be
		// the same; result correctness across strategies is asserted in
		// TestStrategiesAgreeOnAnswers below via query outputs.
		fp := make(map[string]float64)
		for name, ls := range res.Latencies {
			fp[name] = float64(len(ls))
		}
		if baseline == nil {
			baseline = fp
			continue
		}
		for k, v := range baseline {
			if fp[k] != v {
				t.Fatalf("%s: executed %v×%s, baseline %v", strat.Label, fp[k], k, v)
			}
		}
	}
}

// Every strategy must return the exact same answers: execute one query
// through each strategy's placer on a fresh engine and compare the result
// batches value by value.
func TestStrategiesAgreeOnAnswers(t *testing.T) {
	cat := tinySSB()
	q, _ := ssb.QueryByName("Q2.1")
	run := func(strat Strategy) []float64 {
		t.Helper()
		cfg := tinyCfg(cat)
		if strat.GPUWorkers > 0 {
			cfg.GPUWorkers = strat.GPUWorkers
		}
		if strat.CPUWorkers > 0 {
			cfg.CPUWorkers = strat.CPUWorkers
		}
		e := exec.New(cat, cfg)
		if strat.DataDriven || strat.Preload {
			for _, id := range q.Plan.BaseColumns() {
				b, err := cat.ColumnBytes(id)
				if err != nil {
					t.Fatal(err)
				}
				e.Cache.Insert(id, b)
			}
		}
		var vals []float64
		e.Sim.Spawn("s", func(p *sim.Proc) {
			v, _, err := e.RunQuery(p, q.Plan, strat.Placer)
			if err != nil {
				t.Errorf("%s: %v", strat.Label, err)
				return
			}
			vals = v.Batch.MustColumn("sum_revenue").(*column.Float64Column).Values
		})
		e.Sim.Run()
		return vals
	}
	want := run(CPUOnly())
	if len(want) == 0 {
		t.Fatal("Q2.1 returned no groups")
	}
	for _, strat := range AllStrategies()[1:] {
		got := run(strat)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", strat.Label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: group %d = %v, want %v", strat.Label, i, got[i], want[i])
			}
		}
	}
}

func TestAdmissionControlSerializesQueries(t *testing.T) {
	cat := tinySSB()
	spec := Spec{Queries: ssbQueries()[:4], Users: 4, TotalQueries: 8, AdmissionControl: true}
	_, res, err := Run(cat, tinyCfg(cat), GPUOnly(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesRun != 8 {
		t.Fatalf("ran %d queries", res.QueriesRun)
	}
	// With one query at a time there is no heap contention at all.
	spec.AdmissionControl = false
	_, free, err := Run(cat, tinyCfg(cat), GPUOnly(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts > free.Aborts {
		t.Fatal("admission control should not abort more than free-for-all")
	}
}

func TestMeanLatency(t *testing.T) {
	r := Result{Latencies: map[string][]time.Duration{
		"q": {time.Second, 3 * time.Second},
	}}
	if r.MeanLatency("q") != 2*time.Second {
		t.Fatalf("mean = %v", r.MeanLatency("q"))
	}
	if r.MeanLatency("missing") != 0 {
		t.Fatal("missing query should have zero mean")
	}
}

func TestStrategyCatalog(t *testing.T) {
	all := AllStrategies()
	if len(all) != 6 {
		t.Fatalf("catalogue size = %d", len(all))
	}
	labels := map[string]bool{}
	for _, s := range all {
		if s.Label == "" || s.Placer == nil {
			t.Fatalf("incomplete strategy %+v", s)
		}
		if labels[s.Label] {
			t.Fatalf("duplicate label %s", s.Label)
		}
		labels[s.Label] = true
	}
	if !labels["Data-Driven Chopping"] {
		t.Fatal("Data-Driven Chopping missing")
	}
	lru := DataDrivenLRU()
	if lru.PlacementPolicy != placement.LRU {
		t.Fatal("LRU variant wrong")
	}
	if ch := Chopping(); ch.GPUWorkers == 0 || ch.CPUWorkers == 0 {
		t.Fatal("chopping must bound worker pools")
	}
	if rt := RunTime(); rt.GPUWorkers != 0 {
		t.Fatal("run-time placement must not bound worker pools")
	}
}

// ContinueOnError: deadline failures are counted, the run drains even though
// some queries never complete, and the fault counters reach the result.
func TestContinueOnErrorDrains(t *testing.T) {
	cat := tinySSB()
	cfg := tinyCfg(cat)
	// A deadline short enough that some queries fail, long enough that the
	// cheap ones finish.
	cfg.QueryDeadline = 50 * time.Microsecond
	_, res, err := Run(cat, cfg, CPUOnly(), Spec{
		Queries:         ssbQueries(),
		Users:           2,
		TotalQueries:    13,
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatalf("run aborted despite ContinueOnError: %v", err)
	}
	if res.QueriesRun+res.Failures != 13 {
		t.Fatalf("completed=%d failed=%d, want 13 total", res.QueriesRun, res.Failures)
	}
	if res.Failures == 0 {
		t.Fatal("a 50µs deadline should fail some SSB queries")
	}
	if res.DeadlineFailures != res.Failures {
		t.Fatalf("deadline failures %d != failures %d", res.DeadlineFailures, res.Failures)
	}
	if res.WorkloadTime <= 0 {
		t.Fatal("makespan missing")
	}
}

// Without ContinueOnError the first failed query aborts the run — the
// pre-chaos contract stays intact.
func TestFailureAbortsWithoutContinueOnError(t *testing.T) {
	cat := tinySSB()
	cfg := tinyCfg(cat)
	cfg.QueryDeadline = time.Nanosecond // everything fails
	_, _, err := Run(cat, cfg, CPUOnly(), Spec{Queries: ssbQueries(), Users: 1, TotalQueries: 2})
	if err == nil {
		t.Fatal("expected the run to abort on the failed query")
	}
}
