package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/cost"
	"robustdb/internal/device"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// failFirst returns a hook body that fails its first n calls with err.
func failFirst(n int, err error) func() error {
	return func() error {
		if n > 0 {
			n--
			return err
		}
		return nil
	}
}

// attemptOutcome is what one cell of the classifier table asserts of both
// routes: how the first device attempt ended, what it counted, and what it
// left behind.
type attemptOutcome struct {
	abort      string // cause label of the first rolled-back device attempt's span
	failed     bool   // the query failed with the injected error
	allocF     int64
	transferF  int64
	aborts     int64
	wasted     bool // WastedTime > 0
	retries    int64
	faults     int   // health window: faults after the query
	samples    int   // health window: samples after the query, less a fault-free run's
	deviceLost int64 // device resets observed
}

// One device attempt behind both routes, cause by cause: every class of
// allocation or transfer failure striking the first device attempt of a
// whole operator and of the first chunk of a pipelined one. Both roll back,
// count, retry and fall back alike: a capacity abort says nothing about
// device health and restarts on the CPU at once; a transient fault counts
// against health and is retried after a backoff; a reset is retryable and
// was already noted by DeviceReset; anything else is not the device's doing
// and fails the query. Only what is per-chunk by construction differs: the
// chunks the CPU redid, and whether the operator completed on the device.
// Whatever the class, the rollback leaves no heap byte reserved.
func TestAttemptClassifierTable(t *testing.T) {
	const rows = 16384 // 4 chunks of 4096 rows; 128 KiB per column
	hard := errors.New("driver: context destroyed")
	cases := []struct {
		name  string
		alloc error // fails the first device allocation
		xfer  error // fails the first bus transfer
		reset bool  // a device reset 1µs into the run
		want  attemptOutcome
		// Operators completed on the device, by the operator route and by
		// the chunk route, and the chunks the CPU redid.
		gpuOps    [2]int64
		cpuChunks int64
	}{
		{
			name: "out-of-memory", alloc: device.ErrOutOfMemory,
			want:   attemptOutcome{abort: "oom", aborts: 1, wasted: true, samples: -1},
			gpuOps: [2]int64{0, 1}, cpuChunks: 1,
		},
		{
			name: "device-reset", reset: true,
			// DeviceReset notes the fault; the attempt it wiped adds its own
			// verdict.
			want:   attemptOutcome{abort: "reset", aborts: 1, wasted: true, retries: 1, faults: 2, samples: 2, deviceLost: 1},
			gpuOps: [2]int64{1, 1},
		},
		{
			name:   "injected-alloc-fault",
			alloc:  fmt.Errorf("%w (test)", faults.ErrInjectedAlloc),
			want:   attemptOutcome{abort: "fault", allocF: 1, aborts: 1, wasted: true, retries: 1, faults: 1, samples: 1},
			gpuOps: [2]int64{1, 1},
		},
		{
			name:   "injected-transfer-fault",
			xfer:   fmt.Errorf("%w (test)", faults.ErrInjectedTransfer),
			want:   attemptOutcome{abort: "fault", transferF: 1, aborts: 1, wasted: true, retries: 1, faults: 1, samples: 1},
			gpuOps: [2]int64{1, 1},
		},
		{
			name: "hard-alloc-error", alloc: hard,
			want: attemptOutcome{abort: "error", failed: true, aborts: 1, wasted: true, samples: -1},
		},
		{
			name: "hard-transfer-error", xfer: hard,
			want: attemptOutcome{abort: "error", failed: true, aborts: 1, wasted: true, samples: -1},
		},
	}
	for _, tc := range cases {
		for r, route := range []string{"operator", "chunk"} {
			t.Run(tc.name+"/"+route, func(t *testing.T) {
				// A cache too small for any column: inputs stream through the
				// heap, so the first allocation and transfer are the first
				// attempt's. One chunk in flight at a time: the reset strikes
				// the first chunk's attempt alone.
				config := func() Config {
					cfg := Config{CacheBytes: 8, HeapBytes: 1 << 30, Tracer: trace.New(0)}
					if route == "chunk" {
						cfg.PipelineDepth, cfg.PipelineChunkRows = 1, 4096
					}
					return cfg
				}
				clean := New(testCatalog(rows), config())
				runQueryOnce(t, clean, scanPlan(), fixedPlacer{cost.GPU})
				e := New(testCatalog(rows), config())
				if tc.alloc != nil {
					hook := failFirst(1, tc.alloc)
					e.Heap.SetAllocHook(func(int64) error { return hook() })
				}
				if tc.xfer != nil {
					hook := failFirst(1, tc.xfer)
					e.Bus.SetTransferHook(func(bus.Direction, int64) error { return hook() })
				}
				if tc.reset {
					e.Sim.Spawn("reset", func(p *sim.Proc) {
						p.Hold(time.Microsecond)
						e.DeviceReset()
					})
				}
				var st QueryStats
				var err error
				e.Sim.Spawn("session", func(p *sim.Proc) {
					_, st, err = e.RunQuery(p, scanPlan(), fixedPlacer{cost.GPU})
				})
				e.Sim.Run()

				if tc.want.failed != (err != nil) || (tc.want.failed && !errors.Is(err, hard)) {
					t.Fatalf("query error = %v, want failed=%v with the injected error", err, tc.want.failed)
				}
				if err == nil && (route == "chunk") != (e.Metrics.PipelinedOps.Load() == 1) {
					t.Fatalf("the scan did not take the %s route", route)
				}
				m := e.Metrics
				got := attemptOutcome{
					failed:     err != nil,
					allocF:     m.AllocFaults.Load(),
					transferF:  m.TransferFaults.Load(),
					aborts:     m.Aborts.Load(),
					wasted:     m.WastedTime.Load() > 0,
					retries:    m.Retries.Load(),
					faults:     e.Health.faults,
					samples:    e.Health.filled - clean.Health.filled,
					deviceLost: m.DeviceResets.Load(),
				}
				for _, s := range st.Spans {
					if s.Proc == "gpu" && s.Abort != "" {
						got.abort = s.Abort
						break
					}
				}
				if got != tc.want {
					t.Errorf("outcome\n got %+v\nwant %+v", got, tc.want)
				}
				if gpuOps, cpuChunks := m.GPUOperators.Load(), m.PipelineCPUChunks.Load(); gpuOps != tc.gpuOps[r] || cpuChunks != tc.cpuChunks*int64(r) {
					t.Errorf("gpuOps=%d cpuChunks=%d, want %d and %d", gpuOps, cpuChunks, tc.gpuOps[r], tc.cpuChunks*int64(r))
				}
				if e.Health.inFlight != 0 {
					t.Errorf("%d device attempts left open on the health tracker", e.Health.inFlight)
				}
				if used := e.Heap.Used(); used != 0 {
					t.Errorf("%d heap bytes left reserved", used)
				}
			})
		}
	}
}

// A chunk whose reservation takes the first slice of its footprint but not
// the second aborts mid-kernel exactly like an operator: after its upload and
// 60 % of its compute it rolls back, stalls the device — and the next chunk's
// kernel on it — for AbortSync while holding its memory, counts one abort,
// and is redone on the CPU.
func TestChunkAbortsMidKernel(t *testing.T) {
	const chunkRows = 4096
	// A full chunk, then one an eighth its size, whose whole footprint is
	// smaller than the full one's second slice.
	cat := testCatalog(chunkRows + chunkRows/8)
	want, _ := runQueryOnce(t, New(cat, Config{}), scanPlan(), fixedPlacer{cost.CPU})

	// A selection kernel slowed tenfold: the full chunk's 60 % outlasts the
	// small chunk's upload, whose kernel is ready when the stall begins.
	params := cost.DefaultParams()
	params.Throughput[cost.GPU][cost.Selection] /= 10
	op := scanPlan().Root.Op
	info, err := op.(plan.ChunkableOp).ChunkInfo(cat)
	if err != nil {
		t.Fatal(err)
	}
	var in, footprint [2]int64
	var compute time.Duration
	for i, r := range [][2]int{{0, chunkRows}, {chunkRows, info.Rows}} {
		pos, err := op.(plan.ChunkableOp).FilterChunk(nil, cat, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		in[i] = int64(float64(r[1]-r[0]) * info.InRowBytes())
		out := int64(float64(pos.Len()) * info.OutRowBytes)
		footprint[i] = params.HeapFootprint(op.Class(), in[i], out)
		if i == 0 {
			compute = params.OpDuration(op.Class(), cost.GPU, cost.Work(in[i], out))
		}
	}

	e := New(cat, Config{
		Params:     params,
		CacheBytes: 8, // every chunk streams through the heap
		// Both inputs, the full chunk's first slice and the small chunk's
		// whole footprint: the full chunk's second slice does not fit.
		HeapBytes:     in[0] + in[1] + int64(float64(footprint[0])*heapPhases[0].allocFraction) + footprint[1] + 1,
		PipelineDepth: 2, PipelineChunkRows: chunkRows, Tracer: trace.New(0),
	})
	got, st := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	requireSameBatch(t, want, got)
	if n := e.Metrics.Aborts.Load(); n != 1 {
		t.Fatalf("aborts = %d, want 1", n)
	}
	if stalled := e.GPU.Server.StalledTime(); stalled < params.AbortSync {
		t.Fatalf("device stalled %v, want at least AbortSync (%v)", stalled, params.AbortSync)
	}
	spans := map[string]trace.Span{}
	for _, s := range st.Spans {
		if s.Class == "chunk" {
			spans[s.Name[strings.LastIndex(s.Name, "/")+1:]+"/"+s.Proc] = s
		}
	}
	upload, abort, redo := spans["c000:upload/gpu"], spans["c000:abort/gpu"], spans["c000:compute/cpu"]
	if abort.Abort != "oom" || abort.Start > upload.Start || abort.End < upload.End {
		t.Fatalf("the abort span %+v does not cover the upload %+v", abort, upload)
	}
	// After the upload: 60 % of the kernel, then the stall.
	lost := time.Duration(float64(compute)*heapPhases[0].computeFraction) + params.AbortSync
	if d := abort.End - upload.End - lost; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("the attempt rolled back %v after its upload, want %v", abort.End-upload.End, lost)
	}
	if redo.Start < abort.End || e.Metrics.PipelineCPUChunks.Load() != 1 {
		t.Fatalf("chunk 0 was not redone on the CPU after its abort: %+v", redo)
	}
	if _, ok := spans["c001:compute/gpu"]; !ok || e.Metrics.GPUOperators.Load() != 1 {
		t.Fatal("the smaller chunk did not complete on the device")
	}
	if used := e.Heap.Used(); used != 0 {
		t.Fatalf("%d heap bytes left reserved", used)
	}
}

// With co-execution off, chunks still ask the breaker: once the faults trip
// it, no chunk attempt begins on the device, and the chunks degrade to the
// CPU like operators.
func TestChunkRespectsOpenBreaker(t *testing.T) {
	cat := testCatalog(65536)
	want, _ := runQueryOnce(t, New(cat, Config{}), scanPlan(), fixedPlacer{cost.CPU})
	e := New(cat, Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		PipelineDepth: 2, PipelineChunkRows: 4096, Tracer: trace.New(0),
		Faults: faults.New(faults.Config{Seed: 3, TransferFailRate: 1}),
	})
	got, st := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	requireSameBatch(t, want, got)
	if e.Health.Trips() != 1 {
		t.Fatalf("breaker trips = %d, want 1", e.Health.Trips())
	}
	if e.Metrics.DegradedPlacements.Load() == 0 {
		t.Fatal("no chunk was degraded to the CPU")
	}
	for _, s := range st.Spans {
		if s.Class == "chunk" && s.Proc == "gpu" && s.Start > e.Health.openedAt {
			t.Fatalf("%s began on the device at %v, after the breaker opened at %v", s.Name, s.Start, e.Health.openedAt)
		}
	}
}

// A result copy-back that faults after the kernel is done with its cached
// inputs rolls back like every other exit — once. The hand-placed abort at
// this site used to release the cache references a second time.
func TestCopyBackFaultRollsBackOnce(t *testing.T) {
	e := New(testCatalog(16384), Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30, ForceCopyBack: true, Tracer: trace.New(0),
	})
	fail := failFirst(1, fmt.Errorf("%w (test)", faults.ErrInjectedTransfer))
	e.Bus.SetTransferHook(func(d bus.Direction, _ int64) error {
		if d != bus.DeviceToHost {
			return nil
		}
		return fail()
	})
	v, st := runQueryOnce(t, e, scanPlan(), fixedPlacer{cost.GPU})
	if v.OnDevice() || v.Batch.NumRows() != 8200 {
		t.Fatalf("result: onDevice=%v rows=%d", v.OnDevice(), v.Batch.NumRows())
	}
	if got := st.Spans[0].Abort; got != "fault" {
		t.Fatalf("copy-back fault ended the attempt as %q, want fault", got)
	}
	if e.Metrics.Aborts.Load() != 1 || e.Metrics.Retries.Load() != 1 || e.Metrics.GPUOperators.Load() != 2 {
		t.Fatalf("aborts=%d retries=%d gpuOps=%d, want 1/1/2 (the kernel ran twice)",
			e.Metrics.Aborts.Load(), e.Metrics.Retries.Load(), e.Metrics.GPUOperators.Load())
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("%d heap bytes left reserved", e.Heap.Used())
	}
	// The columns stay cached and unreferenced: a flush finds nothing pinned
	// by a leaked reference.
	if e.Cache.Len() != 3 || e.Cache.Flush() != 3 {
		t.Fatal("cached inputs were not left intact and unreferenced")
	}
}
