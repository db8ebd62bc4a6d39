package exec

import (
	"log/slog"
	"sync"
	"testing"
	"time"

	"robustdb/internal/cost"
	"robustdb/internal/trace"
)

// TestDisabledTracingZeroAlloc guards the zero-cost-off claim: with no
// tracer and no logger configured, the per-operator tracing and logging
// hooks must not allocate.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	cat := testCatalog(100)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	if e.Tracer != nil {
		t.Fatal("tracer must default to nil")
	}
	if e.Log != nil {
		t.Fatal("logger must default to nil")
	}
	q := &query{engine: e, name: "q0001"}
	n := testPlan().Root
	st := trace.Span{QueueWait: time.Microsecond, Transfer: time.Microsecond, HeapHighWater: 64}
	if allocs := testing.AllocsPerRun(200, func() {
		e.traceOp(unit{q: q, n: n}, cost.GPU, 1, 0, st, abortNone, nil)
		e.traceCacheAdmit(0, "fact.v", nil, "operator-demand")
		q.traceQuery(time.Millisecond, "")
		e.LogPlacement(n, "gpu", "data-resident")
		if e.logEnabled(slog.LevelDebug) {
			t.Fatal("nil logger must gate out")
		}
	}); allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per operator, want 0", allocs)
	}
}

// TestTracingEmitsOperatorSpans checks the acceptance invariant: one span
// per executed operator plus the enclosing query span, all consistent.
func TestTracingEmitsOperatorSpans(t *testing.T) {
	cat := testCatalog(10000)
	tr := trace.New(0)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20, Tracer: tr})
	runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})

	spans := tr.Spans()
	var queries, ops int
	for _, s := range spans {
		if s.Class == "query" {
			queries++
		} else {
			ops++
		}
	}
	if queries != 1 {
		t.Fatalf("query spans = %d, want 1", queries)
	}
	if got, want := int64(ops), e.Metrics.OperatorRuns.Load(); got != want {
		t.Fatalf("operator spans = %d, OperatorRuns = %d", got, want)
	}
	if ops != len(testPlan().Nodes()) {
		t.Fatalf("operator spans = %d, want one per plan node (%d)", ops, len(testPlan().Nodes()))
	}
}

// TestTraceSpanNesting is the property test of the trace schema: durations
// are never negative, and every operator span lies inside its query's span.
func TestTraceSpanNesting(t *testing.T) {
	cat := testCatalog(10000)
	tr := trace.New(0)
	// A tiny heap forces aborts and CPU fallback, so aborted attempts are
	// part of the checked trace too.
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 20 << 10, Tracer: tr})
	runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	if e.Metrics.Aborts.Load() == 0 {
		t.Fatal("want at least one abort in the traced run")
	}

	window := make(map[string][2]time.Duration)
	for _, s := range tr.Spans() {
		if s.Duration() < 0 {
			t.Fatalf("negative duration on %s: %v", s.Name, s.Duration())
		}
		if s.QueueWait < 0 || s.Transfer < 0 {
			t.Fatalf("negative wait/transfer on %s", s.Name)
		}
		if s.Class == "query" {
			window[s.Query] = [2]time.Duration{s.Start, s.End}
		}
	}
	for _, s := range tr.Spans() {
		if s.Class == "query" {
			continue
		}
		w, ok := window[s.Query]
		if !ok {
			t.Fatalf("operator span %s has no query span", s.Name)
		}
		if s.Start < w[0] || s.End > w[1] {
			t.Fatalf("span %s [%v,%v] outside query window [%v,%v]",
				s.Name, s.Start, s.End, w[0], w[1])
		}
	}
}

// TestMetricsConcurrentAccess exercises the registry-backed counters from
// parallel goroutines; under -race this fails if any counter is not atomic
// (the bug the old "single-threaded plain fields" doc comment invited).
func TestMetricsConcurrentAccess(t *testing.T) {
	m := NewMetrics()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Aborts.Inc()
				m.OperatorRuns.Inc()
				m.WastedTime.Add(time.Microsecond)
				m.GPURunTime.ObserveDuration(time.Duration(i) * time.Microsecond)
				m.HeapHighWater.Max(int64(i))
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Aborts.Load(); got != workers*iters {
		t.Fatalf("Aborts = %d, want %d", got, workers*iters)
	}
	if got := m.WastedTime.Load(); got != workers*iters*time.Microsecond {
		t.Fatalf("WastedTime = %v", got)
	}
}
