package exec

import (
	"fmt"
	"log/slog"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// heapPhases describes the step-wise allocation of a device operator's
// footprint: He et al.'s kernels allocate input/flag buffers up front, then
// prefix-sum arrays, then result buffers, each after part of the kernel ran
// (§2.5.1: "we are forced to allocate memory in several steps and hold onto
// already allocated memory"). Each entry is (fraction of the footprint to
// allocate, fraction of the kernel to run afterwards).
var heapPhases = []struct {
	allocFraction   float64
	computeFraction float64
}{
	{0.85, 0.60},
	{0.15, 0.40},
}

// execOp runs one operator on the chosen processor. A GPU attempt that
// aborts on a capacity failure is restarted on the CPU immediately
// (CoGaDB's per-operator fault tolerance, §2.5.1); an attempt that aborts on
// a transient infrastructure fault is retried with exponential virtual-time
// backoff up to the retry budget, then restarted on the CPU. Every attempt
// outcome feeds the device health tracker, and — with tracing on — every
// attempt emits one span recording where it ran, what it waited for, and why
// it gave up. Whether the *successors* stay on the GPU is not decided here:
// compile-time strategies keep their fixed placement (Figure 8, left),
// run-time strategies see the host-resident intermediate at the next
// placement decision (Figure 8, right).
func (e *Engine) execOp(p *sim.Proc, q *query, n *plan.Node, kind cost.ProcKind, inputs []*Value) (*Value, error) {
	e.pollReset(p.Now())
	if kind == cost.GPU && e.Health.AllowGPU(p.Now()) {
		// Chunkable leaves with data to transfer take the pipelined route;
		// everything else (nothing would overlap) takes the whole-operator one.
		if cp, ok := e.pipelinePlanFor(n); ok {
			return e.runPipelined(p, q, n, cp)
		}
	}
	attempt := 0
	if kind == cost.GPU {
		for ; ; attempt++ {
			if !e.Health.AllowGPU(p.Now()) {
				e.Metrics.DegradedPlacements.Inc()
				break
			}
			e.Health.BeginAttempt()
			start := p.Now()
			v, st, abort, err := e.runOnGPU(p, n, n == q.plan.Root, inputs)
			e.traceOp(q, n, cost.GPU, attempt, start, st, abort, err)
			if abort != abortNone && e.logEnabled(slog.LevelDebug) {
				e.logEvent(slog.LevelDebug, "operator aborted",
					slog.String("component", "exec"),
					slog.Duration("vt", p.Now()),
					slog.String("query", q.name),
					slog.String("operator", n.Op.Name()),
					slog.String("processor", "gpu"),
					slog.String("cause", abortLabel(abort, err)),
					slog.Int("attempt", attempt))
			}
			if err != nil {
				e.Health.RecordNeutral() // a query-logic error, not the device
				return nil, err
			}
			switch abort {
			case abortNone:
				e.Health.RecordSuccess(p.Now())
				return v, nil
			case abortOOM:
				e.Health.RecordNeutral()
			default: // abortFault, abortReset
				e.Health.RecordFault(p.Now())
			}
			if abort == abortOOM || attempt+1 >= retryMaxAttempts {
				attempt++
				break // out of patience: degrade to the CPU
			}
			e.Metrics.Retries.Inc()
			p.Hold(retryBackoff(attempt))
		}
	}
	start := p.Now()
	v, st, err := e.runOnCPU(p, n, n == q.plan.Root, inputs)
	e.traceOp(q, n, cost.CPU, attempt, start, st, abortNone, err)
	return v, err
}

// traceOp stamps the identity of one operator attempt onto the span its run
// measured into and emits it. With tracing off it is a single nil check — the
// per-operator cost of the disabled path.
func (e *Engine) traceOp(q *query, n *plan.Node, kind cost.ProcKind, attempt int,
	start time.Duration, st trace.Span, abort abortKind, err error) {
	if e.Tracer == nil {
		return
	}
	st.Query, st.Name, st.Op = q.name, procName(q.name, n), n.Op.Name()
	st.Class, st.Proc, st.Node = n.Op.Class().String(), kind.String(), n.ID()
	st.Start, st.End = start, e.Sim.Now()
	st.Abort, st.Attempt = abortLabel(abort, err), attempt
	if abort != abortNone || err != nil {
		// Aborted attempts report no actuals even when the kernel itself ran
		// (heap-phase aborts): the output was rolled back, not produced.
		st.Rows, st.OutBytes = 0, 0
	}
	q.emit(st)
}

// runOnGPU executes n on the co-processor. A non-abortNone return means the
// attempt was rolled back (partial state released, abort stall charged) and
// the caller decides between retry, CPU fallback and — abortError, the only
// class that carries an error — failing the query.
func (e *Engine) runOnGPU(p *sim.Proc, n *plan.Node, root bool, inputs []*Value) (v *Value, st trace.Span, aborted abortKind, err error) {
	tq := p.Now()
	e.GPU.Workers.Acquire(p)
	st.QueueWait = p.Now() - tq
	defer e.GPU.Workers.Release()

	start := p.Now()
	res := e.Heap.Reserve()
	// refs are the cache references the attempt holds; nil again once the
	// kernel is done with them.
	var refs []table.ColumnID
	// The rollback every failing exit leaves through, whatever it had staged.
	defer func() {
		st.HeapHighWater = res.MaxHeld()
		if aborted == abortNone {
			return
		}
		e.Metrics.Aborts.Inc()
		// Failed allocation + cleanup synchronize the device: every
		// in-flight kernel stalls, and the aborting operator's memory is
		// not reusable until the drain completes (cudaFree semantics).
		// Under memory pressure these storms collapse GPU throughput —
		// the amplification behind the paper's heap contention effect.
		e.GPU.Server.Stall(e.Params.AbortSync)
		p.Hold(e.Params.AbortSync)
		for _, id := range refs {
			e.Cache.Unref(id)
		}
		res.Release()
		e.Metrics.WastedTime.Add(p.Now() - start)
	}()
	// giveUp ends the attempt on the error of an allocation or a transfer.
	giveUp := func(derr error) (*Value, trace.Span, abortKind, error) {
		if kind := e.classify(derr, p.Now(), nil); kind != abortError {
			return nil, st, kind, nil
		}
		return nil, st, abortError, derr
	}

	// Input phase: base columns through the cache, intermediates onto the
	// heap. Operators start by allocating input memory (§4.1), so failures
	// here abort cheaply.
	var inBytes int64
	for _, id := range n.Op.BaseColumns() {
		colBytes, berr := e.Cat.ColumnBytes(id)
		if berr != nil {
			return nil, st, abortError, berr
		}
		inBytes += colBytes
		if e.Cache.Lookup(id) {
			if rerr := e.Cache.Ref(id); rerr != nil {
				return nil, st, abortError, rerr
			}
			refs = append(refs, id)
			continue // cache hit: data is already resident
		}
		// Operator-driven data placement: cache the column on demand.
		if evicted, ok := e.Cache.Insert(id, colBytes); ok {
			e.traceCacheAdmit(p.Now(), id, evicted, "operator-demand")
			if rerr := e.Cache.Ref(id); rerr != nil {
				return nil, st, abortError, rerr
			}
			if terr := e.transferTimed(p, bus.HostToDevice, colBytes, &st.Transfer); terr != nil {
				// The column never arrived: undo the placement.
				e.Cache.Unref(id)
				e.Cache.Evict(id)
				if e.Tracer != nil {
					e.Tracer.Event(trace.Event{At: p.Now(), Kind: "evict",
						Subject: string(id), Reason: "transfer-failed"})
				}
				return giveUp(terr)
			}
			refs = append(refs, id)
			continue
		}
		// The cache cannot hold the column: stream it through the heap.
		if aerr := res.Grow(colBytes); aerr != nil {
			return giveUp(aerr)
		}
		if terr := e.transferTimed(p, bus.HostToDevice, colBytes, &st.Transfer); terr != nil {
			return giveUp(terr)
		}
	}
	for _, in := range inputs {
		inBytes += in.Bytes()
		if in.OnDevice {
			continue // produced by a GPU child, already resident
		}
		if aerr := res.Grow(in.Bytes()); aerr != nil {
			return giveUp(aerr)
		}
		if terr := e.transferTimed(p, bus.HostToDevice, in.Bytes(), &st.Transfer); terr != nil {
			return giveUp(terr)
		}
	}
	if e.pollReset(p.Now()) || !res.Valid() {
		// The device reset while (or right after) inputs were staged: all
		// staged state is gone.
		return nil, st, abortReset, nil
	}

	// The kernel's real result; the simulator charges its cost below.
	batches := batchesOf(inputs)
	ectx := e.kernelCtx()
	result, kerr := e.runKernel(&st, ectx, root, func() (*engine.Batch, error) { return n.Op.Execute(ectx, e.Cat, batches) })
	if kerr != nil {
		return nil, st, abortError, fmt.Errorf("%s on gpu: %w", n.Op.Name(), kerr)
	}
	outBytes := st.OutBytes

	// Heap phase: scratch + result footprint. Device operators cannot
	// pre-declare their full demand (no concise upper bound for joins,
	// §2.5.1), so they allocate in steps and hold what they already have:
	// the first slice up front, the rest mid-kernel. Under contention the
	// second step fails *after* part of the kernel ran — the wasted work
	// behind heap contention (Figures 3 and 20).
	footprint := e.Params.HeapFootprint(n.Op.Class(), inBytes, outBytes)
	dur, slow := e.injectDelay(p, e.Params.OpDuration(n.Op.Class(), cost.GPU, cost.Work(inBytes, outBytes)))
	t0 := p.Now()
	for _, phase := range heapPhases {
		if aerr := res.Grow(int64(float64(footprint) * phase.allocFraction)); aerr != nil {
			return giveUp(aerr) // mid-kernel failure: the partial compute is wasted
		}
		e.GPU.Server.Execute(p, dur.Seconds()*phase.computeFraction)
		if e.pollReset(p.Now()) || !res.Valid() {
			return nil, st, abortReset, nil // the reset wiped the kernel's state mid-run
		}
	}
	if slow {
		// Degraded runs would poison the learner's calibration.
		e.Metrics.OperatorRuns.Inc()
	} else {
		e.observe(n.Op.Class(), cost.GPU, cost.Work(inBytes, outBytes), p.Now()-t0)
	}
	e.Metrics.GPUOperators.Inc()
	e.Metrics.HeapHighWater.Max(e.Heap.HighWater())

	// Cleanup: cached inputs are no longer referenced, consumed device
	// intermediates are freed, and the reservation shrinks to the result.
	for _, id := range refs {
		e.Cache.Unref(id)
	}
	refs = nil
	for _, in := range inputs {
		e.dropDevice(in)
	}
	if held := res.Held(); held >= outBytes {
		res.ReleasePartial(held - outBytes)
	} else if aerr := res.Grow(outBytes - held); aerr != nil {
		return giveUp(aerr) // the result itself does not fit (or faulted): late abort
	}
	if e.forceCopyBack {
		// UVA-style processing: results travel back after every operator.
		if terr := e.transferTimed(p, bus.DeviceToHost, outBytes, &st.Transfer); terr != nil {
			return giveUp(terr)
		}
		res.Release()
		return &Value{Batch: result, OnDevice: false}, st, abortNone, nil
	}
	return e.newDeviceValue(result, res), st, abortNone, nil
}

// runOnCPU executes n on the host. Device-resident inputs are copied back
// first (the extra transfers the paper attributes to aborted operators and
// to compile-time placement after faults); a copy-back that keeps faulting
// after retries fails the query cleanly.
func (e *Engine) runOnCPU(p *sim.Proc, n *plan.Node, root bool, inputs []*Value) (*Value, trace.Span, error) {
	var st trace.Span
	tq := p.Now()
	e.CPU.Workers.Acquire(p)
	st.QueueWait = p.Now() - tq
	defer e.CPU.Workers.Release()

	inBytes, err := e.InputBytes(n, inputs)
	if err != nil {
		return nil, st, err
	}
	for _, in := range inputs {
		d, err := e.pullToHost(p, in)
		st.Transfer += d
		if err != nil {
			return nil, st, err
		}
	}
	batches := batchesOf(inputs)
	ectx := e.kernelCtx()
	result, err := e.runKernel(&st, ectx, root, func() (*engine.Batch, error) { return n.Op.Execute(ectx, e.Cat, batches) })
	if err != nil {
		return nil, st, fmt.Errorf("%s on cpu: %w", n.Op.Name(), err)
	}
	dur := e.Params.OpDuration(n.Op.Class(), cost.CPU, cost.Work(inBytes, st.OutBytes))
	t0 := p.Now()
	e.CPU.Server.Execute(p, dur.Seconds())
	e.observe(n.Op.Class(), cost.CPU, cost.Work(inBytes, st.OutBytes), p.Now()-t0)
	e.Metrics.CPUOperators.Inc()
	return &Value{Batch: result, OnDevice: false}, st, nil
}

// pullToHost copies a device-resident value back to the host, retrying
// transient transfer faults with backoff, and returns the virtual bus time
// the copy-back consumed. After the retry budget the value stays
// device-resident and the error is returned — the caller fails the query,
// whose cleanup releases the device copy.
func (e *Engine) pullToHost(p *sim.Proc, v *Value) (time.Duration, error) {
	if !v.OnDevice {
		return 0, nil
	}
	var busTime time.Duration
	var hit bool
	// A device reset during a backoff invalidates the copy; the host batch
	// is authoritative and there is nothing left to fetch.
	gone := func() bool { return !v.OnDevice }
	if _, err := e.transferRetried(p, bus.DeviceToHost, v.Bytes(), &busTime, &hit, gone); err != nil {
		return busTime, fmt.Errorf("device copy-back of %d bytes failed: %w", v.Bytes(), err)
	}
	e.dropDevice(v)
	return busTime, nil
}

func batchesOf(inputs []*Value) []*engine.Batch {
	out := make([]*engine.Batch, len(inputs))
	for i, v := range inputs {
		out[i] = v.Batch
	}
	return out
}
