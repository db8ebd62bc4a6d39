package exec

import (
	"errors"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/column"
	"robustdb/internal/device"
	"robustdb/internal/engine"
	"robustdb/internal/faults"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// The mechanism every device attempt shares, whether it is of a whole
// operator (runOnGPU) or of one chunk (runChunkGPU): classifying the error
// that ended it, moving data over the bus with in-place retry, applying the
// fault schedule's kernel delays, and metering the kernel. What an attempt
// stages and what undoing it costs is policy and stays with its kind — each
// has one deferred rollback that every failing exit leaves through.

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
	// abortStopped: the attempt was overtaken — the query failed under it, or
	// the device copy a retried transfer was moving vanished while it backed
	// off; nothing is left to do.
	abortStopped
)

// rolledBack reports whether the attempt ended in a device condition —
// capacity, fault or reset — that another attempt can still get past: on the
// device after a backoff, or on the CPU at once.
func (k abortKind) rolledBack() bool {
	return k == abortOOM || k == abortFault || k == abortReset
}

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
// class, counting injected faults as it sees them. hit is nil when the error
// ends an operator attempt, whose health verdict execOp derives from the
// class; it is non-nil when the work the fault struck goes on (a chunk of a
// pipelined operator, a retried transfer), and the fault is then noted
// against device health at once and flagged in *hit.
func (e *Engine) classify(err error, now time.Duration, hit *bool) abortKind {
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
		if hit != nil {
			e.Health.NoteFault(now)
			*hit = true
		}
		return abortFault
	default:
		return abortError
	}
}

// transferTimed runs one bus transfer and accumulates its virtual duration
// (successful or faulted) into acc. Successful payload bytes are counted on
// the per-direction registry counters so the observability windows see
// transfer volume as it happens.
func (e *Engine) transferTimed(p *sim.Proc, d bus.Direction, n int64, acc *time.Duration) error {
	t0 := p.Now()
	err := e.Bus.TryTransfer(p, d, n)
	*acc += p.Now() - t0
	if err == nil {
		if d == bus.HostToDevice {
			e.Metrics.H2DBytes.Add(n)
		} else {
			e.Metrics.D2HBytes.Add(n)
		}
	}
	return err
}

// transferRetried is transferTimed with in-place retry: a try that fails with
// an injected fault is classified (see classify for hit) and repeated after
// an exponential virtual-time backoff, up to the retry budget. After every
// backoff stop is polled; when it reports that the transfer is no longer
// wanted the result is abortStopped. Otherwise the result is abortNone on
// success, or the class of the error that ended the retries with that error.
func (e *Engine) transferRetried(p *sim.Proc, d bus.Direction, n int64, acc *time.Duration,
	hit *bool, stop func() bool) (abortKind, error) {
	for attempt := 0; ; attempt++ {
		err := e.transferTimed(p, d, n, acc)
		if err == nil {
			return abortNone, nil
		}
		kind := e.classify(err, p.Now(), hit)
		if kind != abortFault || attempt+1 >= retryMaxAttempts {
			return kind, err
		}
		e.Metrics.Retries.Inc()
		p.Hold(retryBackoff(attempt))
		if stop() {
			return abortStopped, nil
		}
	}
}

// injectDelay applies the fault schedule's kernel degradation to a device
// kernel of nominal duration dur: a stuck kernel holds the process while the
// device makes no progress, a slow one stretches the returned duration. slow
// reports a stretched run, which must not calibrate the cost learner.
func (e *Engine) injectDelay(p *sim.Proc, dur time.Duration) (_ time.Duration, slow bool) {
	if e.injector == nil {
		return dur, false
	}
	factor, stall := e.injector.OpDelay(p.Now())
	if stall > 0 {
		e.Metrics.StuckOps.Inc()
		p.Hold(stall)
	}
	if factor == 1 {
		return dur, false
	}
	return time.Duration(float64(dur) * factor), true
}

// runKernel makes one metered kernel call: it brackets kernel with the
// decode meter, folds the context's parallelism into st and the morsel
// counter, and records the actual output size. The result of the plan's root
// is forced inside the call: what leaves the executor holds no gather still
// to do and so no intermediate, while every other result goes to the next
// operator as it is, whose reads do the copying. The meter is process-global,
// so its delta is read only when a tracer will report it; a nil context
// (serial engine) records no parallelism, keeping serial spans byte-identical
// to the pre-parallel engine.
func (e *Engine) runKernel(st *trace.Span, ectx *engine.Ctx, root bool, kernel func() (*engine.Batch, error)) (*engine.Batch, error) {
	var decodeBase int64
	if e.Tracer != nil {
		decodeBase = column.DecompressedBytes()
	}
	result, err := kernel()
	if err == nil && root {
		result.Force(ectx)
	}
	if e.Tracer != nil {
		st.DecompressBytes = column.DecompressedBytes() - decodeBase
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
