package exec

import (
	"errors"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/device"
	"robustdb/internal/engine"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// The one attempt every placed unit of work runs through, whether it is a
// whole operator or one chunk of a pipelined operator (DESIGN.md §8): the
// retry loop (attempts), the device attempt with its one deferred rollback
// (runOnGPU), the host attempt (runOnCPU), and what they share — classifying
// the error that ended an attempt, moving data over the bus, applying the
// fault schedule's kernel stalls, and metering the kernel.

// unit is what one attempt runs: a whole operator over its inputs, or — c
// non-nil — one chunk of a pipelined operator, a range of its rows.
type unit struct {
	q      *query
	n      *plan.Node
	inputs []*Value
	c      *chunk
}

// abortKind classifies why a device attempt gave up. The engine's
// degradation ladder reacts differently per class: capacity aborts fall back
// to the CPU immediately (the paper's §2.5.1 fault tolerance), transient
// faults are retried with backoff before falling back, and both fault kinds
// — unlike capacity aborts — count against device health.
type abortKind uint8

const (
	abortNone abortKind = iota
	// abortOOM: the device heap is full. Normal under contention; placement
	// handles it, the health tracker ignores it.
	abortOOM
	// abortFault: an injected transient fault (allocator or transfer).
	// Retryable; counts against device health.
	abortFault
	// abortReset: a device reset wiped the attempt's state mid-run.
	// Retryable once the device is back; counts against device health.
	abortReset
	// abortError: not a device condition at all — a catalog, kernel or
	// engine error that no retry or fallback cures. It fails the query.
	abortError
)

// abortLabel is the trace-span cause string per abort kind.
func abortLabel(k abortKind, err error) string {
	switch {
	case err != nil:
		return "error"
	case k == abortOOM:
		return "oom"
	case k == abortFault:
		return "fault"
	case k == abortReset:
		return "reset"
	default:
		return ""
	}
}

// classify maps the error of a device allocation or bus transfer to its abort
// class, counting injected faults as it sees them.
func (e *Engine) classify(err error) abortKind {
	switch {
	case errors.Is(err, device.ErrOutOfMemory):
		return abortOOM
	case errors.Is(err, device.ErrReset):
		return abortReset
	case faults.IsTransient(err):
		if errors.Is(err, faults.ErrInjectedAlloc) {
			e.Metrics.AllocFaults.Inc()
		} else {
			e.Metrics.TransferFaults.Inc()
		}
		return abortFault
	default:
		return abortError
	}
}

// transferTimed runs one bus transfer and accumulates its virtual duration
// (successful or faulted) into acc. The link itself counts the bytes and busy
// time into the registry.
func (e *Engine) transferTimed(p *sim.Proc, d bus.Direction, n int64, acc *time.Duration) error {
	t0 := p.Now()
	err := e.Bus.TryTransfer(p, d, n)
	*acc += p.Now() - t0
	return err
}

// stall holds a device kernel for as long as the fault schedule keeps it
// stuck: the process waits while the device makes no progress.
func (e *Engine) stall(p *sim.Proc) {
	if e.injector == nil {
		return
	}
	if d := e.injector.OpDelay(p.Now()); d > 0 {
		e.Metrics.StuckOps.Inc()
		p.Hold(d)
	}
}

// runKernel makes one metered kernel call: it folds the context's
// parallelism into st and the morsel counter, and records the actual output
// size. The result of the plan's root is forced inside the call: what leaves
// the executor holds no gather still to do and so no intermediate, while
// every other result goes to the next operator as it is, whose reads do the
// copying. A nil context (serial engine) records no parallelism, keeping
// serial spans byte-identical to the pre-parallel engine.
func (e *Engine) runKernel(st *trace.Span, ectx *engine.Ctx, root bool, kernel func() (*engine.Batch, error)) (*engine.Batch, error) {
	result, err := kernel()
	if err == nil && root {
		result.Force(ectx)
	}
	if ectx != nil {
		st.KernelWorkers = ectx.Workers()
		st.MorselCount = ectx.Morsels()
		if st.MorselCount > 0 {
			e.Metrics.KernelMorsels.Add(st.MorselCount)
		}
	}
	if err == nil {
		st.Rows, st.OutBytes = int64(result.NumRows()), result.Bytes()
	}
	return result, err
}
