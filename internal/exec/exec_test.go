package exec

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/expr"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// fixedPlacer places every operator on one processor at compile time.
type fixedPlacer struct{ kind cost.ProcKind }

func (f fixedPlacer) Name() string { return "fixed-" + f.kind.String() }
func (f fixedPlacer) CompileTime(_ *Engine, p *plan.Plan) map[int]cost.ProcKind {
	m := make(map[int]cost.ProcKind)
	for _, n := range p.Nodes() {
		m[n.ID()] = f.kind
	}
	return m
}
func (f fixedPlacer) RunTime(*Engine, *plan.Node, []*Value) cost.ProcKind { return f.kind }

// hostAwarePlacer is a run-time placer: GPU unless an input is on the host.
type hostAwarePlacer struct{}

func (hostAwarePlacer) Name() string                                          { return "host-aware" }
func (hostAwarePlacer) CompileTime(*Engine, *plan.Plan) map[int]cost.ProcKind { return nil }
func (hostAwarePlacer) RunTime(_ *Engine, _ *plan.Node, inputs []*Value) cost.ProcKind {
	for _, v := range inputs {
		if !v.OnDevice() {
			return cost.CPU
		}
	}
	return cost.GPU
}

func testCatalog(rows int) *table.Catalog {
	vals := make([]int64, rows)
	qty := make([]int64, rows)
	price := make([]float64, rows)
	for i := range vals {
		vals[i] = int64(i % 100)
		qty[i] = int64(i % 50)
		price[i] = float64(i%10) + 0.5
	}
	cat := table.NewCatalog()
	cat.MustRegister(table.MustNew("fact",
		column.NewInt64("v", vals),
		column.NewInt64("qty", qty),
		column.NewFloat64("price", price),
	))
	return cat
}

func testPlan() *plan.Plan {
	scan := plan.Scan("fact", []string{"qty", "price"}, expr.NewCmp("v", expr.LT, 50))
	comp := plan.Compute(scan, "rev", "qty", engine.Mul, "price")
	agg := plan.Aggregate(comp, nil, []engine.AggSpec{{Func: engine.Sum, Col: "rev", As: "s"}})
	return plan.New(agg)
}

// expectSum computes the reference answer for testPlan on testCatalog(rows).
func expectSum(rows int) float64 {
	var s float64
	for i := 0; i < rows; i++ {
		if int64(i%100) < 50 {
			s += float64(int64(i%50)) * (float64(i%10) + 0.5)
		}
	}
	return s
}

func runQueryOnce(t *testing.T, e *Engine, pl *plan.Plan, placer Placer) (*Value, QueryStats) {
	t.Helper()
	var v *Value
	var st QueryStats
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		v, st, err = e.RunQuery(p, pl, placer)
	})
	e.Sim.Run()
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	requireRecordMatchesRing(t, e.Tracer, st)
	return v, st
}

// requireRecordMatchesRing asserts span completeness: a finished query's own
// record holds exactly the spans the ring holds under its id, in emission
// order — what a per-request ring scan used to provide. With the tracer off
// both sides are empty.
func requireRecordMatchesRing(t *testing.T, tr *trace.Tracer, st QueryStats) {
	t.Helper()
	var ring []trace.Span
	for _, s := range tr.Spans() {
		if s.Query == st.QueryID {
			ring = append(ring, s)
		}
	}
	if !reflect.DeepEqual(st.Spans, ring) {
		t.Fatalf("%s: the query's record has %d spans, the ring %d under its id, or they differ:\nrecord %+v\nring   %+v",
			st.QueryID, len(st.Spans), len(ring), st.Spans, ring)
	}
	if n := len(st.Spans); n > 0 && st.Spans[n-1].Class != "query" {
		t.Fatalf("%s: the record must end with the query span, ends with %+v", st.QueryID, st.Spans[n-1])
	}
}

func TestCPUOnlyProducesExactResult(t *testing.T) {
	cat := testCatalog(10000)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	v, st := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.CPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if st.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
	if e.Metrics.CPUOperators.Load() != 3 || e.Metrics.GPUOperators.Load() != 0 {
		t.Fatalf("op counts: cpu=%d gpu=%d", e.Metrics.CPUOperators.Load(), e.Metrics.GPUOperators.Load())
	}
	if e.Metrics.H2DBytes.Load() != 0 {
		t.Fatal("CPU-only run must not touch the bus")
	}
	if e.Metrics.QueriesCompleted.Load() != 1 {
		t.Fatal("query not counted")
	}
}

func TestGPURunMatchesCPUResult(t *testing.T) {
	cat := testCatalog(10000)
	eCPU := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	vCPU, _ := runQueryOnce(t, eCPU, testPlan(), fixedPlacer{cost.CPU})
	eGPU := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	vGPU, _ := runQueryOnce(t, eGPU, testPlan(), fixedPlacer{cost.GPU})
	c := vCPU.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	g := vGPU.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if c != g {
		t.Fatalf("results differ: cpu=%v gpu=%v", c, g)
	}
	if eGPU.Metrics.GPUOperators.Load() != 3 || eGPU.Metrics.Aborts.Load() != 0 {
		t.Fatalf("gpu ops=%d aborts=%d", eGPU.Metrics.GPUOperators.Load(), eGPU.Metrics.Aborts.Load())
	}
	// The root result must have been copied back.
	if vGPU.OnDevice() {
		t.Fatal("root result must be host-resident")
	}
	if eGPU.Metrics.D2HBytes.Load() == 0 {
		t.Fatal("result copy-back missing")
	}
	// Device memory fully reclaimed.
	if eGPU.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d bytes", eGPU.Heap.Used())
	}
}

func TestWarmCacheSpeedsUpGPU(t *testing.T) {
	cat := testCatalog(100000)
	pl := testPlan()
	// Cold: empty cache on first query; columns transferred.
	run := func(warm bool) time.Duration {
		e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
		if warm {
			for _, id := range pl.BaseColumns() {
				b, _ := e.Cat.ColumnBytes(id)
				e.Cache.Insert(id, b)
			}
		}
		_, st := runQueryOnce(t, e, pl, fixedPlacer{cost.GPU})
		return st.Latency
	}
	cold, warm := run(false), run(true)
	if warm >= cold {
		t.Fatalf("warm cache should be faster: warm=%v cold=%v", warm, cold)
	}
}

func TestHeapExhaustionAbortsAndFallsBack(t *testing.T) {
	cat := testCatalog(10000)
	// Tiny heap: every GPU operator aborts, query still succeeds on CPU.
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 64})
	v, _ := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if e.Metrics.Aborts.Load() == 0 {
		t.Fatal("expected aborts")
	}
	if e.Metrics.CPUOperators.Load() != 3 {
		t.Fatalf("all ops should have completed on CPU, got %d", e.Metrics.CPUOperators.Load())
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak after aborts: %d", e.Heap.Used())
	}
}

func TestTinyCacheStreamsThroughHeap(t *testing.T) {
	cat := testCatalog(10000)
	// Cache too small for any column, heap large: operators stream inputs.
	e := New(cat, Config{CacheBytes: 8, HeapBytes: 1 << 30})
	v, _ := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v", got)
	}
	if e.Metrics.GPUOperators.Load() != 3 {
		t.Fatalf("ops should run on GPU by streaming, got %d", e.Metrics.GPUOperators.Load())
	}
	if e.Metrics.CacheFailedInserts.Load() == 0 {
		t.Fatal("expected failed cache inserts")
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d", e.Heap.Used())
	}
}

// With compile-time GPU placement, the successor of an aborted operator
// stays on the GPU and re-uploads the intermediate (Figure 8, left); with
// run-time placement the successor runs on the CPU (Figure 8, right),
// saving the transfer.
func TestRunTimePlacementAvoidsPingPong(t *testing.T) {
	cat := testCatalog(100000)
	pl := testPlan()
	// Heap sized so the scan aborts (needs 3.25×input) but a later upload
	// would fit: force the abort on the first op.
	var colBytes int64
	for _, id := range pl.BaseColumns() {
		b, _ := cat.ColumnBytes(id)
		colBytes += b
	}
	heap := colBytes * 2 // < 3.25×, selection aborts; intermediate would fit
	runBytes := func(placer Placer) int64 {
		e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: heap})
		// warm cache so the selection's abort is the only event
		for _, id := range pl.BaseColumns() {
			b, _ := e.Cat.ColumnBytes(id)
			e.Cache.Insert(id, b)
		}
		runQueryOnce(t, e, pl, placer)
		return e.Metrics.H2DBytes.Load()
	}
	compileTime := runBytes(fixedPlacer{cost.GPU})
	runTime := runBytes(hostAwarePlacer{})
	if runTime >= compileTime {
		t.Fatalf("run-time placement should move fewer bytes: runtime=%d compile=%d", runTime, compileTime)
	}
}

func TestWastedTimeAccounting(t *testing.T) {
	cat := testCatalog(100000)
	pl := testPlan()
	e := New(cat, Config{CacheBytes: 8, HeapBytes: 1024})
	// Cache useless and heap tiny: the scan streams its input (grow fails
	// immediately) — wasted time small but abort counted.
	runQueryOnce(t, e, pl, fixedPlacer{cost.GPU})
	if e.Metrics.Aborts.Load() == 0 {
		t.Fatal("expected aborts")
	}
	if e.Metrics.WastedTime.Load() < 0 {
		t.Fatal("wasted time must be non-negative")
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	cat := testCatalog(100)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	bad := plan.New(plan.Scan("missing", []string{"x"}, nil))
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		_, _, err = e.RunQuery(p, bad, fixedPlacer{cost.CPU})
	})
	e.Sim.Run()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("expected catalog error, got %v", err)
	}
}

func TestQueryErrorOnGPUPropagates(t *testing.T) {
	cat := testCatalog(100)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	bad := plan.New(plan.Scan("fact", []string{"nope"}, nil))
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		_, _, err = e.RunQuery(p, bad, fixedPlacer{cost.GPU})
	})
	e.Sim.Run()
	if err == nil {
		t.Fatal("expected error from GPU kernel")
	}
	if e.Heap.Used() != 0 {
		t.Fatal("heap leak after failed query")
	}
}

func TestConcurrentQueriesShareProcessor(t *testing.T) {
	cat := testCatalog(50000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	pl := testPlan()
	var latencies []time.Duration
	for i := 0; i < 4; i++ {
		e.Sim.Spawn("session", func(p *sim.Proc) {
			_, st, err := e.RunQuery(p, pl, fixedPlacer{cost.CPU})
			if err != nil {
				t.Errorf("query failed: %v", err)
			}
			latencies = append(latencies, st.Latency)
		})
	}
	end := e.Sim.Run()
	if len(latencies) != 4 {
		t.Fatalf("completed %d queries", len(latencies))
	}
	// Makespan of 4 equal queries under processor sharing ≈ 4× single.
	eSingle := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	_, st := runQueryOnce(t, eSingle, pl, fixedPlacer{cost.CPU})
	lo := 3 * st.Latency
	hi := 5 * st.Latency
	if end < lo || end > hi {
		t.Fatalf("makespan %v outside [%v, %v]", end, lo, hi)
	}
}

func TestWorkerPoolBoundsGPUConcurrency(t *testing.T) {
	cat := testCatalog(50000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30, GPUWorkers: 1})
	pl := testPlan()
	maxActive := 0
	for i := 0; i < 4; i++ {
		e.Sim.Spawn("session", func(p *sim.Proc) {
			_, _, err := e.RunQuery(p, pl, fixedPlacer{cost.GPU})
			if err != nil {
				t.Errorf("query failed: %v", err)
			}
		})
	}
	// Monitor concurrency via a polling process.
	done := false
	var poll func(p *sim.Proc)
	poll = func(p *sim.Proc) {
		for !done {
			if a := e.GPU.Server.Active(); a > maxActive {
				maxActive = a
			}
			if e.Metrics.QueriesCompleted.Load() == 4 {
				done = true
				return
			}
			p.Hold(time.Microsecond)
		}
	}
	e.Sim.Spawn("poller", poll)
	e.Sim.Run()
	if maxActive > 1 {
		t.Fatalf("GPU worker pool violated: %d concurrent", maxActive)
	}
}

func TestOutstandingLoadTracking(t *testing.T) {
	cat := testCatalog(10000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	if e.Outstanding(cost.CPU) != 0 || e.Outstanding(cost.GPU) != 0 {
		t.Fatal("fresh engine should have no load")
	}
	runQueryOnce(t, e, testPlan(), fixedPlacer{cost.CPU})
	if e.Outstanding(cost.CPU) > 1e-9 {
		t.Fatalf("load not retired: %v", e.Outstanding(cost.CPU))
	}
	e.addLoad(cost.GPU, 1)
	e.removeLoad(cost.GPU, 2)
	if e.Outstanding(cost.GPU) != 0 {
		t.Fatal("load must clamp at zero")
	}

	// While an operator runs, its processor carries the estimate of it.
	for _, kind := range []cost.ProcKind{cost.CPU, cost.GPU} {
		e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
		pl := plan.New(plan.Scan("fact", []string{"qty"}, expr.NewCmp("v", expr.LT, 50)))
		est, err := e.EstimateReady(pl.Root, nil)
		if err != nil {
			t.Fatal(err)
		}
		var seen float64
		e.Sim.Spawn("session", func(p *sim.Proc) {
			if _, _, err := e.RunQuery(p, pl, fixedPlacer{kind}); err != nil {
				t.Errorf("query failed: %v", err)
			}
		})
		e.Sim.Spawn("poller", func(p *sim.Proc) {
			for e.Metrics.QueriesCompleted.Load() == 0 {
				seen = max(seen, e.Outstanding(kind))
				p.Hold(time.Microsecond)
			}
		})
		e.Sim.Run()
		if want := est.Time[kind].Seconds(); seen != want {
			t.Errorf("load on %s while the scan ran = %v s, want its estimate %v s", kind, seen, want)
		}
		if e.Outstanding(kind) != 0 {
			t.Errorf("load on %s not retired: %v", kind, e.Outstanding(kind))
		}
	}
}

func TestProcessorAccessor(t *testing.T) {
	e := New(testCatalog(10), Config{CacheBytes: 1, HeapBytes: 1})
	if e.Processor(cost.CPU) != e.CPU || e.Processor(cost.GPU) != e.GPU {
		t.Fatal("Processor accessor wrong")
	}
}

// A leaf reads an uncached input until the cache holds every column it reads;
// an operator over intermediates reads none.
func TestUncachedInput(t *testing.T) {
	cat := testCatalog(1000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	pl := testPlan()
	scan := pl.Leaves()[0]
	if !e.uncachedInput(scan) {
		t.Fatal("a leaf over an empty cache reads no uncached column")
	}
	cols := scan.Op.BaseColumns()
	for i, id := range cols {
		b, _ := cat.ColumnBytes(id)
		e.Cache.Insert(id, b)
		if got := e.uncachedInput(scan); got != (i < len(cols)-1) {
			t.Fatalf("%d of %d columns cached: uncached input %v", i+1, len(cols), got)
		}
	}
	if e.uncachedInput(pl.Root) {
		t.Fatal("the root reads no base column")
	}
}
