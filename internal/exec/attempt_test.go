package exec

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/cost"
	"robustdb/internal/faults"
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

// attemptOutcome is what one cell of the classifier table asserts: how the
// first device attempt ended, what it counted, and what it left behind.
type attemptOutcome struct {
	abort      string // operator route: cause label of the attempt-0 span
	cpuChunks  int64  // chunk route: chunks redone on (or failed over to) the CPU
	failed     bool   // the query failed with the injected error
	allocF     int64
	transferF  int64
	aborts     int64
	wasted     bool // WastedTime > 0
	retries    int64
	faults     int // health window: faults / samples after the query
	samples    int
	gpuOps     int64 // operators that completed on the device
	deviceLost int64 // device resets observed
}

// The one classifier behind both attempt kinds, cause by cause: every class of
// allocation or transfer failure × {whole-operator attempt, chunk attempt}.
// A capacity abort says nothing about device health and falls back at once; a
// transient fault counts against health and is retried (the operator after a
// backoff, a chunk's transfer in place, a chunk's allocation on the CPU); a
// reset is retryable and was already noted by DeviceReset; anything else is
// not the device's doing and fails the query. Whatever the class, the rollback
// leaves no heap byte reserved.
func TestAttemptClassifierTable(t *testing.T) {
	const rows = 16384 // 4 chunks of 4096 rows; 128 KiB per column
	hard := errors.New("driver: context destroyed")
	cases := []struct {
		name  string
		heap  int64
		alloc error // fails the first device allocation
		xfer  error // fails the first bus transfer
		reset bool  // a device reset 1µs into the run
		op    attemptOutcome
		chunk attemptOutcome
	}{
		{
			name: "out-of-memory", heap: 64 << 10,
			op:    attemptOutcome{abort: "oom", aborts: 1, wasted: true},
			chunk: attemptOutcome{cpuChunks: 4},
		},
		{
			name: "device-reset", heap: 1 << 30, reset: true,
			// DeviceReset notes the fault; the operator attempt it wiped adds
			// its own verdict, the chunks it wiped do not.
			op:    attemptOutcome{abort: "reset", aborts: 1, wasted: true, retries: 1, faults: 2, samples: 3, gpuOps: 1, deviceLost: 1},
			chunk: attemptOutcome{cpuChunks: 2, wasted: true, faults: 1, samples: 2, gpuOps: 1, deviceLost: 1},
		},
		{
			name: "injected-alloc-fault", heap: 1 << 30,
			alloc: fmt.Errorf("%w (test)", faults.ErrInjectedAlloc),
			op:    attemptOutcome{abort: "fault", allocF: 1, aborts: 1, wasted: true, retries: 1, faults: 1, samples: 2, gpuOps: 1},
			chunk: attemptOutcome{cpuChunks: 1, allocF: 1, faults: 1, samples: 1, gpuOps: 1},
		},
		{
			name: "injected-transfer-fault", heap: 1 << 30,
			xfer:  fmt.Errorf("%w (test)", faults.ErrInjectedTransfer),
			op:    attemptOutcome{abort: "fault", transferF: 1, aborts: 1, wasted: true, retries: 1, faults: 1, samples: 2, gpuOps: 1},
			chunk: attemptOutcome{transferF: 1, retries: 1, faults: 1, samples: 1, gpuOps: 1},
		},
		{
			name: "hard-alloc-error", heap: 1 << 30, alloc: hard,
			op:    attemptOutcome{abort: "error", failed: true, aborts: 1, wasted: true},
			chunk: attemptOutcome{failed: true},
		},
		{
			name: "hard-transfer-error", heap: 1 << 30, xfer: hard,
			op:    attemptOutcome{abort: "error", failed: true, aborts: 1, wasted: true},
			chunk: attemptOutcome{failed: true},
		},
	}
	for _, tc := range cases {
		for _, route := range []string{"operator", "chunk"} {
			t.Run(tc.name+"/"+route, func(t *testing.T) {
				want := tc.op
				// A cache too small for any column: inputs stream through the
				// heap, so the first allocation and transfer are the attempt's.
				cfg := Config{CacheBytes: 8, HeapBytes: tc.heap, Tracer: trace.New(0)}
				if route == "chunk" {
					want = tc.chunk
					cfg.PipelineDepth, cfg.PipelineChunkRows = 2, 4096
				}
				e := New(testCatalog(rows), cfg)
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

				if want.failed != (err != nil) || (want.failed && !errors.Is(err, hard)) {
					t.Fatalf("query error = %v, want failed=%v with the injected error", err, want.failed)
				}
				m := e.Metrics
				got := attemptOutcome{
					failed:     err != nil,
					cpuChunks:  m.PipelineCPUChunks.Load(),
					allocF:     m.AllocFaults.Load(),
					transferF:  m.TransferFaults.Load(),
					aborts:     m.Aborts.Load(),
					wasted:     m.WastedTime.Load() > 0,
					retries:    m.Retries.Load(),
					faults:     e.Health.faults,
					samples:    e.Health.filled,
					gpuOps:     m.GPUOperators.Load(),
					deviceLost: m.DeviceResets.Load(),
				}
				if route == "operator" {
					first := st.Spans[0]
					if first.Proc != "gpu" || first.Attempt != 0 {
						t.Fatalf("first span is not the device attempt: %+v", first)
					}
					got.abort = first.Abort
				} else if err == nil && m.PipelinedOps.Load() != 1 {
					t.Fatal("the scan did not take the chunk route")
				}
				if got != want {
					t.Errorf("outcome\n got %+v\nwant %+v", got, want)
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
	if v.OnDevice || v.Batch.NumRows() != 8200 {
		t.Fatalf("result: onDevice=%v rows=%d", v.OnDevice, v.Batch.NumRows())
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
