package placer

import (
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/expr"
	"robustdb/internal/plan"
	"robustdb/internal/table"
)

func testCatalog() *table.Catalog {
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

func newEngine(cacheBytes int64) *exec.Engine {
	return exec.New(testCatalog(), exec.Config{CacheBytes: cacheBytes, HeapBytes: 1 << 30})
}

func TestUniformPlacers(t *testing.T) {
	e := newEngine(1 << 20)
	pl := starPlan()
	cpu := CPUOnly{}.CompileTime(e, pl)
	gpu := GPUPreferred{}.CompileTime(e, pl)
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
	if (CPUOnly{}).Name() != "cpu-only" || (GPUPreferred{}).Name() != "gpu-only" {
		t.Fatal("names wrong")
	}
	if (CPUOnly{}).RunTime(e, pl.Root, nil) != cost.CPU {
		t.Fatal("cpu-only runtime fallback wrong")
	}
	if (GPUPreferred{}).RunTime(e, pl.Root, nil) != cost.GPU {
		t.Fatal("gpu runtime fallback wrong")
	}
}

func TestDataDrivenFollowsCache(t *testing.T) {
	pl := starPlan()
	dimScan := pl.Leaves()[0]
	factScan := pl.Leaves()[1]

	// Nothing cached: everything on CPU.
	e := newEngine(1 << 30)
	placement := DataDriven{}.CompileTime(e, pl)
	for _, n := range pl.Nodes() {
		if placement[n.ID()] != cost.CPU {
			t.Fatal("with empty cache everything must run on CPU")
		}
	}

	// Only the dimension's columns cached: dim scan on GPU, the join (one
	// CPU child) and everything above on CPU.
	e = newEngine(1 << 30)
	for _, id := range dimScan.Op.BaseColumns() {
		b, _ := e.Cat.ColumnBytes(id)
		e.Cache.Insert(id, b)
	}
	placement = DataDriven{}.CompileTime(e, pl)
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
	e = newEngine(1 << 30)
	for _, id := range pl.BaseColumns() {
		b, _ := e.Cat.ColumnBytes(id)
		e.Cache.Insert(id, b)
	}
	placement = DataDriven{}.CompileTime(e, pl)
	for _, n := range pl.Nodes() {
		if placement[n.ID()] != cost.GPU {
			t.Fatalf("node %d should be on GPU", n.ID())
		}
	}
	if (DataDriven{}).Name() != "data-driven" {
		t.Fatal("name wrong")
	}
	if (DataDriven{}).RunTime(e, pl.Root, nil) != cost.CPU {
		t.Fatal("runtime fallback wrong")
	}
}

func TestCriticalPathChainConstraint(t *testing.T) {
	e := newEngine(1 << 30)
	pl := starPlan()
	placement := CriticalPath{}.CompileTime(e, pl)
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
	if (CriticalPath{}).Name() != "critical-path" {
		t.Fatal("name wrong")
	}
	if (CriticalPath{}).RunTime(e, pl.Root, nil) != cost.CPU {
		t.Fatal("runtime fallback wrong")
	}
}

// With a hot cache the GPU is strictly better in the cost model, so the
// refinement should move at least one leaf path to the GPU.
func TestCriticalPathUsesGPUWhenProfitable(t *testing.T) {
	e := newEngine(1 << 30)
	pl := starPlan()
	for _, id := range pl.BaseColumns() {
		b, _ := e.Cat.ColumnBytes(id)
		e.Cache.Insert(id, b)
	}
	placement := CriticalPath{}.CompileTime(e, pl)
	gpuCount := 0
	for _, k := range placement {
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
	e := newEngine(1 << 30) // cache empty → transfers charged in estimates
	pl := starPlan()
	placement := CriticalPath{}.CompileTime(e, pl)
	factScan := pl.Leaves()[1]
	if placement[factScan.ID()] == cost.GPU {
		t.Fatal("fact scan with cold cache should stay on CPU")
	}
}

func TestCriticalPathBadPlanFallsBackToCPU(t *testing.T) {
	e := newEngine(1 << 20)
	bad := plan.New(plan.Scan("missing", []string{"x"}, nil))
	placement := CriticalPath{}.CompileTime(e, bad)
	if placement[bad.Root.ID()] != cost.CPU {
		t.Fatal("unestimatable plan must fall back to CPU")
	}
}
