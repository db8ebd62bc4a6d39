package workload

import (
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/expr"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// The placement rules of the catalogue, one at a time on a hand-built engine.

var (
	loadBalancedRule = runTime(loadBalanced)
	dataResidentRule = runTime(dataResident)
)

// starCatalog is a 50 000-row fact table over a 100-row dimension.
func starCatalog() *table.Catalog {
	n := 50000
	fk := make([]int64, n)
	qty := make([]int64, n)
	for i := range fk {
		fk[i] = int64(i % 100)
		qty[i] = int64(i % 50)
	}
	dk := make([]int64, 100)
	attr := make([]int64, 100)
	for i := range dk {
		dk[i] = int64(i)
		attr[i] = int64(i % 10)
	}
	cat := table.NewCatalog()
	cat.MustRegister(table.MustNew("fact",
		column.NewInt64("fk", fk),
		column.NewInt64("qty", qty),
	))
	cat.MustRegister(table.MustNew("dim",
		column.NewInt64("dk", dk),
		column.NewInt64("attr", attr),
	))
	return cat
}

func starPlan() *plan.Plan {
	dim := plan.Scan("dim", []string{"dk"}, expr.NewCmp("attr", expr.LT, 5))
	fact := plan.Scan("fact", []string{"fk", "qty"}, expr.NewCmp("qty", expr.GE, 10))
	j := plan.Join(dim, fact, "dk", "fk", nil, []string{"qty"})
	a := plan.Aggregate(j, nil, []engine.AggSpec{{Func: engine.Sum, Col: "qty", As: "s"}})
	return plan.New(a)
}

func starEngine(cacheBytes int64) *exec.Engine {
	return exec.New(starCatalog(), exec.Config{CacheBytes: cacheBytes, HeapBytes: 1 << 30})
}

// sumCatalog is one 100 000-row table; sumPlan filters and sums it.
func sumCatalog() *table.Catalog {
	n := 100000
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i % 100)
	}
	cat := table.NewCatalog()
	cat.MustRegister(table.MustNew("t", column.NewInt64("v", v)))
	return cat
}

func sumPlan() *plan.Plan {
	scan := plan.Scan("t", []string{"v"}, expr.NewCmp("v", expr.LT, 50))
	agg := plan.Aggregate(scan, nil, []engine.AggSpec{{Func: engine.Sum, Col: "v", As: "s"}})
	return plan.New(agg)
}

func cacheColumns(e *exec.Engine, ids []table.ColumnID) {
	for _, id := range ids {
		b, _ := e.Cat.ColumnBytes(id)
		e.Cache.Insert(id, b)
	}
}

func TestUniformPlacers(t *testing.T) {
	e := starEngine(1 << 20)
	pl := starPlan()
	cpu := allOn(cost.CPU)(e, pl)
	gpu := allOn(cost.GPU)(e, pl)
	if len(cpu) != len(pl.Nodes()) || len(gpu) != len(pl.Nodes()) {
		t.Fatal("placement incomplete")
	}
	for _, n := range pl.Nodes() {
		if cpu[n.ID()] != cost.CPU {
			t.Fatal("cpu-only placed a node off-CPU")
		}
		if gpu[n.ID()] != cost.GPU {
			t.Fatal("gpu-preferred placed a node off-GPU")
		}
	}
}

func TestDataDrivenFollowsCache(t *testing.T) {
	pl := starPlan()
	dimScan := pl.Leaves()[0]
	factScan := pl.Leaves()[1]

	// Nothing cached: everything on CPU.
	e := starEngine(1 << 30)
	placement := followData(e, pl)
	for _, n := range pl.Nodes() {
		if placement[n.ID()] != cost.CPU {
			t.Fatal("with empty cache everything must run on CPU")
		}
	}

	// Only the dimension's columns cached: dim scan on GPU, the join (one
	// CPU child) and everything above on CPU.
	e = starEngine(1 << 30)
	cacheColumns(e, dimScan.Op.BaseColumns())
	placement = followData(e, pl)
	if placement[dimScan.ID()] != cost.GPU {
		t.Fatal("dim scan should run on GPU (inputs cached)")
	}
	if placement[factScan.ID()] != cost.CPU {
		t.Fatal("fact scan should run on CPU (inputs not cached)")
	}
	if placement[pl.Root.ID()] != cost.CPU {
		t.Fatal("chain must break at the join")
	}

	// Everything cached: whole plan on GPU.
	e = starEngine(1 << 30)
	cacheColumns(e, pl.BaseColumns())
	placement = followData(e, pl)
	for _, n := range pl.Nodes() {
		if placement[n.ID()] != cost.GPU {
			t.Fatalf("node %d should be on GPU", n.ID())
		}
	}
}

func TestCriticalPathChainConstraint(t *testing.T) {
	e := starEngine(1 << 30)
	pl := starPlan()
	placement := criticalPath(e, pl)
	if len(placement) != len(pl.Nodes()) {
		t.Fatal("placement incomplete")
	}
	// Constraint: a node is on GPU only if all children are.
	for _, n := range pl.Nodes() {
		if placement[n.ID()] == cost.GPU {
			for _, c := range n.Children {
				if placement[c.ID()] != cost.GPU {
					t.Fatal("critical path violated the chain constraint")
				}
			}
		}
	}
}

// With a hot cache the GPU is strictly better in the cost model, so the
// refinement should move at least one leaf path to the GPU.
func TestCriticalPathUsesGPUWhenProfitable(t *testing.T) {
	e := starEngine(1 << 30)
	pl := starPlan()
	cacheColumns(e, pl.BaseColumns())
	gpuCount := 0
	for _, k := range criticalPath(e, pl) {
		if k == cost.GPU {
			gpuCount++
		}
	}
	if gpuCount == 0 {
		t.Fatal("critical path should use the GPU when data is cached")
	}
}

// When transfers dwarf the speedup (cold cache, big columns), Critical Path
// must keep the big fact scan off the GPU.
func TestCriticalPathAvoidsExpensiveTransfers(t *testing.T) {
	e := starEngine(1 << 30) // cache empty → transfers charged in estimates
	pl := starPlan()
	placement := criticalPath(e, pl)
	factScan := pl.Leaves()[1]
	if placement[factScan.ID()] == cost.GPU {
		t.Fatal("fact scan with cold cache should stay on CPU")
	}
}

func TestCriticalPathBadPlanFallsBackToCPU(t *testing.T) {
	e := starEngine(1 << 20)
	bad := plan.New(plan.Scan("missing", []string{"x"}, nil))
	placement := criticalPath(e, bad)
	if placement[bad.Root.ID()] != cost.CPU {
		t.Fatal("unestimatable plan must fall back to CPU")
	}
}

func TestLoadBalancedPrefersWarmGPU(t *testing.T) {
	e := exec.New(sumCatalog(), exec.Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	scan := sumPlan().Leaves()[0]
	cacheColumns(e, scan.Op.BaseColumns())
	if loadBalancedRule.RunTime(e, scan, nil) != cost.GPU {
		t.Fatal("warm GPU should win")
	}
}

func TestLoadBalancedAvoidsFullHeap(t *testing.T) {
	e := exec.New(sumCatalog(), exec.Config{CacheBytes: 1 << 30, HeapBytes: 1024})
	scan := sumPlan().Leaves()[0]
	cacheColumns(e, scan.Op.BaseColumns())
	if loadBalancedRule.RunTime(e, scan, nil) != cost.CPU {
		t.Fatal("a full heap must push the operator to the CPU")
	}
}

func TestLoadBalancedIsTransferBlind(t *testing.T) {
	// HyPE-style estimates cover operator execution only: with an empty
	// cache the placer still prefers the faster GPU — the reason plain
	// chopping runs into cache thrashing while Data-Driven Chopping does
	// not (§6.2.1).
	cold := exec.New(sumCatalog(), exec.Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	scan := sumPlan().Leaves()[0]
	if loadBalancedRule.RunTime(cold, scan, nil) != cost.GPU {
		t.Fatal("load-balanced placement must not model transfer costs")
	}
}

func TestDataDrivenRuntimeRule(t *testing.T) {
	e := exec.New(sumCatalog(), exec.Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	pl := sumPlan()
	scan := pl.Leaves()[0]

	if dataResidentRule.RunTime(e, scan, nil) != cost.CPU {
		t.Fatal("uncached base columns → CPU")
	}
	cacheColumns(e, scan.Op.BaseColumns())
	if dataResidentRule.RunTime(e, scan, nil) != cost.GPU {
		t.Fatal("cached base columns → GPU")
	}
	hostVal := &exec.Value{Batch: engine.MustNewBatch(column.NewInt64("x", []int64{1}))}
	if dataResidentRule.RunTime(e, pl.Root, []*exec.Value{hostVal}) != cost.CPU {
		t.Fatal("host-resident input → CPU (continue after abort)")
	}
}

// End-to-end: chopping (bounded pools + run-time placement) executes a
// multi-user workload correctly and bounds GPU operator concurrency.
func TestChoppingEndToEnd(t *testing.T) {
	cat := sumCatalog()
	e := exec.New(cat, exec.Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		GPUWorkers: DefaultGPUWorkers, CPUWorkers: DefaultCPUWorkers,
	})
	pl := sumPlan()
	cacheColumns(e, pl.BaseColumns())
	var sum float64
	completed := 0
	for u := 0; u < 8; u++ {
		e.Sim.Spawn("user", func(p *sim.Proc) {
			v, _, err := e.RunQuery(p, pl, Chopping().Placer)
			if err != nil {
				t.Errorf("query failed: %v", err)
				return
			}
			sum = v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
			completed++
		})
	}
	e.Sim.Run()
	if completed != 8 {
		t.Fatalf("completed %d of 8", completed)
	}
	var want float64
	for i := 0; i < 100000; i++ {
		if i%100 < 50 {
			want += float64(i % 100)
		}
	}
	if sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	if e.Heap.Used() != 0 {
		t.Fatal("heap leak")
	}
}

// A failing catalog lookup inside run-time placement falls back to the CPU
// but surfaces the error through the engine's error counter instead of
// swallowing it.
func TestCatalogErrorsSurfaced(t *testing.T) {
	e := exec.New(sumCatalog(), exec.Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	bad := plan.New(plan.Scan("missing", []string{"x"}, nil))
	node := bad.Leaves()[0]
	if loadBalancedRule.RunTime(e, node, nil) != cost.CPU {
		t.Fatal("failed lookup must fall back to CPU")
	}
	if e.Metrics.CatalogErrors.Load() != 1 {
		t.Fatalf("catalog errors = %d, want 1", e.Metrics.CatalogErrors.Load())
	}
	// The data-driven rule only consults the catalog once the cache check
	// passes; the missing column misses the cache, so CPU without an error.
	if dataResidentRule.RunTime(e, node, nil) != cost.CPU {
		t.Fatal("data-driven must fall back to CPU")
	}
}

// A tripped device breaker overrides run-time placement to CPU even when the
// data is device-resident — the degradation ladder's last rung. It counts a
// degraded placement only where the rule chose the GPU, as under compile-time
// placement; a rule that chose the CPU keeps its own reason.
func TestRunTimePlacersConsultBreaker(t *testing.T) {
	e := exec.New(sumCatalog(), exec.Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	e.Tracer = trace.New(16)
	scan := sumPlan().Leaves()[0]
	cacheColumns(e, scan.Op.BaseColumns())
	if loadBalancedRule.RunTime(e, scan, nil) != cost.GPU ||
		dataResidentRule.RunTime(e, scan, nil) != cost.GPU {
		t.Fatal("healthy device should win with warm cache")
	}
	// Record faults until the breaker's own thresholds trip it.
	for i := 0; e.Health.State() != exec.BreakerOpen; i++ {
		if i == 100 {
			t.Fatal("100 faults in a row did not trip the breaker")
		}
		e.Health.BeginAttempt()
		e.Health.RecordFault(e.Sim.Now())
	}
	lastReason := func() string {
		evs := e.Tracer.Events()
		return evs[len(evs)-1].Reason
	}
	if loadBalancedRule.RunTime(e, scan, nil) != cost.CPU {
		t.Fatal("load-balanced ignored the open breaker")
	}
	if got := e.Metrics.DegradedPlacements.Load(); got != 1 || lastReason() != "breaker-open" {
		t.Fatalf("warm scan under load-balanced: degraded = %d, reason %q; want 1, breaker-open", got, lastReason())
	}
	e.Cache.Evict(scan.Op.BaseColumns()[0])
	if dataResidentRule.RunTime(e, scan, nil) != cost.CPU {
		t.Fatal("data-driven ignored the open breaker")
	}
	if got := e.Metrics.DegradedPlacements.Load(); got != 1 || lastReason() != "column-not-cached" {
		t.Fatalf("uncached scan under data-resident: degraded = %d, reason %q; want 1, column-not-cached", got, lastReason())
	}
}

// AdmittedBound feeds the front door's default admitted concurrency; it must
// track the pool bounds for chopping strategies and stay small for unbounded
// ones so a misconfigured front door cannot flood the operator stream.
func TestAdmittedBound(t *testing.T) {
	cases := []struct {
		gpu, cpu, want int
	}{
		{DefaultGPUWorkers, DefaultCPUWorkers, DefaultGPUWorkers + DefaultCPUWorkers + 2},
		{4, 8, 14},
		{0, 0, DefaultGPUWorkers + DefaultCPUWorkers + 2},     // unbounded strategy
		{exec.UnboundedWorkers, 8, DefaultGPUWorkers + 8 + 2}, // half-bounded
		{exec.UnboundedWorkers, exec.UnboundedWorkers, DefaultGPUWorkers + DefaultCPUWorkers + 2},
	}
	for _, c := range cases {
		if got := AdmittedBound(c.gpu, c.cpu); got != c.want {
			t.Errorf("AdmittedBound(%d, %d) = %d, want %d", c.gpu, c.cpu, got, c.want)
		}
	}
}
