package exec

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"robustdb/internal/cost"
	"robustdb/internal/expr"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// scanPlan is a single chunkable leaf: the shape the pipelined executor runs.
func scanPlan() *plan.Plan {
	return plan.New(plan.Scan("fact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 50)))
}

// requireSameBatch asserts identical scan results.
func requireSameBatch(t *testing.T, want, got *Value) {
	t.Helper()
	if !reflect.DeepEqual(want.Batch.Columns(), got.Batch.Columns()) {
		t.Fatal("pipelined result differs from the serial one")
	}
}

// TestPipelinedBitIdenticalToSerial is the core exactness property: across
// pipeline depths, kernel worker counts, co-execution, and fault injection,
// the pipelined executor returns exactly the serial result — and leaks no
// device heap. The root package's TestJudge crosses the same axes over whole
// benchmarks; this is the one-operator case, with no plan around it.
func TestPipelinedBitIdenticalToSerial(t *testing.T) {
	cat := testCatalog(65536)
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	want, _ := runQueryOnce(t, serial, scanPlan(), fixedPlacer{cost.GPU})
	for _, depth := range []int{1, 2, 4} {
		for _, kw := range []int{0, 2, runtime.GOMAXPROCS(0)} {
			for _, coexec := range []bool{false, true} {
				for _, withFaults := range []bool{false, true} {
					cfg := Config{
						CacheBytes: 1 << 30, HeapBytes: 1 << 30,
						KernelWorkers: kw, PipelineDepth: depth, PipelineCoExec: coexec, PipelineChunkRows: 4096,
						// Traced, so runQueryOnce checks span completeness on
						// every cell: chunk, retry and CPU-redo spans included.
						Tracer: trace.New(0),
					}
					e := New(cat, cfg)
					if withFaults {
						injectUntil(e, faults.New(faults.Config{Seed: 7, TransferFailRate: 0.2, AllocFailRate: 0.1}), 2*time.Millisecond)
					}
					got, _ := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
					requireSameBatch(t, want, got)
					if used := e.Heap.Used(); used != 0 {
						t.Fatalf("depth=%d kw=%d coexec=%v faults=%v: heap leak of %d bytes", depth, kw, coexec, withFaults, used)
					}
					if chunks := e.Metrics.PipelineChunks.Load(); e.Metrics.PipelinedOps.Load() == 0 || chunks < 2 {
						t.Fatalf("depth=%d: operator did not run pipelined (%d chunks)", depth, chunks)
					}
				}
			}
		}
	}
}

// TestPipelinedDeterministic: two identical pipelined runs produce identical
// virtual latency and metrics — the simulator's reproducibility contract
// extends to the chunk schedule.
func TestPipelinedDeterministic(t *testing.T) {
	cat := testCatalog(65536)
	run := func() (time.Duration, trace.Snapshot) {
		e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
			PipelineDepth: 2, PipelineCoExec: true, PipelineChunkRows: 4096})
		_, st := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
		return st.Latency, e.Metrics.Snapshot()
	}
	l1, m1 := run()
	l2, m2 := run()
	if l1 != l2 || !reflect.DeepEqual(m1, m2) {
		t.Fatalf("non-deterministic pipelined run: latency %v vs %v, metrics\n%+v\n%+v", l1, l2, m1, m2)
	}
}

// TestPipelinedOverlapBeatsSerial: on a transfer-bound scan the pipelined
// schedule must be strictly faster than the serial transfer-then-compute
// path, the overlap ratio must be observed, and the trace must show an upload
// running while a compute runs (the visible double-buffering).
func TestPipelinedOverlapBeatsSerial(t *testing.T) {
	const rows = 262144
	cat := testCatalog(rows)
	pl := func() *plan.Plan { // selectivity 1: every row passes, transfer-bound both ways
		return plan.New(plan.Scan("fact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000)))
	}
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	_, stSerial := runQueryOnce(t, serial, pl(), fixedPlacer{cost.GPU})

	tr := trace.New(1 << 16)
	piped := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 2, PipelineChunkRows: 16384, Tracer: tr})
	_, stPiped := runQueryOnce(t, piped, pl(), fixedPlacer{cost.GPU})

	if stPiped.Latency >= stSerial.Latency {
		t.Fatalf("pipelined (%v) not faster than serial (%v)", stPiped.Latency, stSerial.Latency)
	}
	if n := piped.Metrics.QueryOverlapRatio.Count(); n != 1 {
		t.Fatalf("overlap ratio observations = %d, want 1", n)
	}
	if r := piped.Metrics.QueryOverlapRatio.Sum(); r <= 0.1 {
		t.Fatalf("overlap ratio %v, want > 0.1 on a transfer-bound scan", r)
	}

	// The schedule must visibly overlap: some chunk's upload interval must
	// intersect another chunk's device compute interval.
	var uploads, computes []trace.Span
	for _, s := range tr.Spans() {
		if s.Class != "chunk" {
			continue
		}
		switch s.Op {
		case "upload":
			uploads = append(uploads, s)
		case "compute":
			if s.Proc == "gpu" {
				computes = append(computes, s)
			}
		}
	}
	if len(uploads) < 2 || len(computes) < 2 {
		t.Fatalf("expected chunk stage spans, got %d uploads / %d computes", len(uploads), len(computes))
	}
	overlapping := false
	for _, u := range uploads {
		for _, c := range computes {
			if u.Name != c.Name && u.Start < c.End && c.Start < u.End {
				overlapping = true
			}
		}
	}
	if !overlapping {
		t.Fatal("no upload span overlaps a compute span: the pipeline is not overlapping")
	}

	// The bus busy meters mirrored the link busy time into the registry.
	if piped.Metrics.BusBusyH2D.Load() <= 0 || piped.Metrics.BusBusyD2H.Load() <= 0 {
		t.Fatalf("bus busy meters not wired: h2d=%v d2h=%v",
			piped.Metrics.BusBusyH2D.Load(), piped.Metrics.BusBusyD2H.Load())
	}
}

// TestPipelinedDeadlineFailsCleanly: a deadline that fires mid-chunk fails
// the query cleanly — the pipelined operator, like any operator in flight,
// runs its chunks to their end without deadlock and every device reservation
// is released.
func TestPipelinedDeadlineFailsCleanly(t *testing.T) {
	cat := testCatalog(262144)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 2, PipelineChunkRows: 8192,
		QueryDeadline: 200 * time.Microsecond})
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		_, _, err = e.RunQuery(p, scanPlan(), fixedPlacer{cost.GPU})
	})
	e.Sim.Run()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if e.Metrics.DeadlineFailures.Load() != 1 {
		t.Fatalf("deadline failures = %d, want 1", e.Metrics.DeadlineFailures.Load())
	}
	if used := e.Heap.Used(); used != 0 {
		t.Fatalf("cancelled pipelined query leaked %d heap bytes", used)
	}
}

// TestPipelinedCoExecUsesCPU: with co-execution on and a single transfer-bound
// operator, the policy hands some trailing chunks to the CPU pool, and the
// result is still exact (covered by the identity test; here we assert the CPU
// actually participated and the EXPLAIN fields surface it).
func TestPipelinedCoExecUsesCPU(t *testing.T) {
	cat := testCatalog(262144)
	tr := trace.New(1 << 16)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 1, PipelineCoExec: true, PipelineChunkRows: 4096, Tracer: tr})
	// Selectivity-1 scan: the GPU pipeline saturates on the bus, which is
	// when the co-execution policy starts pulling chunks onto the CPU.
	pl := plan.New(plan.Scan("fact", []string{"v", "qty", "price"}, expr.NewCmp("v", expr.LT, 1000)))
	runQueryOnce(t, e, pl, fixedPlacer{cost.GPU})
	if e.Metrics.PipelineCPUChunks.Load() == 0 {
		t.Fatal("co-execution never handed a chunk to the CPU")
	}
	// The attempt span carries the pipeline fields.
	var found bool
	for _, s := range tr.Spans() {
		if s.Class != "chunk" && s.Class != "query" && s.ChunkCount > 0 {
			found = true
			if s.PipelineDepth != 1 {
				t.Fatalf("span pipeline depth = %d, want 1", s.PipelineDepth)
			}
			if s.CPUChunks == 0 {
				t.Fatal("span CPU chunk count is zero despite CPU co-execution")
			}
		}
	}
	if !found {
		t.Fatal("no operator span carried pipeline fields")
	}
}

// TestPipelineDepthZeroIsSeedBehavior: depth 0 must not touch the pipelined
// path at all — counters stay zero and traces carry no chunk spans.
func TestPipelineDepthZeroIsSeedBehavior(t *testing.T) {
	cat := testCatalog(65536)
	tr := trace.New(1 << 16)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30, Tracer: tr})
	runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	if e.Metrics.PipelinedOps.Load() != 0 || e.Metrics.PipelineChunks.Load() != 0 {
		t.Fatal("pipelined counters moved with pipelining off")
	}
	for _, s := range tr.Spans() {
		if s.Class == "chunk" {
			t.Fatal("chunk span emitted with pipelining off")
		}
		if s.PipelineDepth != 0 || s.ChunkCount != 0 || s.Overlap != 0 {
			t.Fatalf("span %s carries pipeline fields with pipelining off", s.Name)
		}
	}
}

// TestPipelinedFaultsRedoOnCPU: with every transfer failing inside the fault
// window, device chunks roll back and redo on the CPU; the query still
// completes exactly and the faults are counted.
func TestPipelinedFaultsRedoOnCPU(t *testing.T) {
	cat := testCatalog(65536)
	serial := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	want, _ := runQueryOnce(t, serial, scanPlan(), fixedPlacer{cost.GPU})

	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 2, PipelineChunkRows: 8192,
		Faults: faults.New(faults.Config{Seed: 3, TransferFailRate: 1}),
	})
	got, _ := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	requireSameBatch(t, want, got)
	if e.Metrics.TransferFaults.Load() == 0 {
		t.Fatal("injected transfer faults not counted")
	}
	if e.Metrics.PipelineCPUChunks.Load() == 0 {
		t.Fatal("faulted device chunks did not redo on the CPU")
	}
	if used := e.Heap.Used(); used != 0 {
		t.Fatalf("faulted pipelined run leaked %d heap bytes", used)
	}
}
