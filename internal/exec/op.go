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

// execOp runs one operator on the chosen processor: a chunkable leaf with
// data to transfer through the pipelined executor, whose chunks each run the
// attempts below, anything else as one unit. Whether the *successors* stay on
// the GPU is not decided here: compile-time strategies keep their fixed
// placement (Figure 8, left), run-time strategies see the host-resident
// intermediate at the next placement decision (Figure 8, right).
func (e *Engine) execOp(p *sim.Proc, q *query, n *plan.Node, kind cost.ProcKind, inputs []*Value) (*Value, error) {
	e.pollReset(p.Now())
	if kind == cost.GPU && e.Health.AllowGPU(p.Now()) {
		if cp, ok := e.pipelinePlanFor(n); ok {
			return e.runPipelined(p, q, n, cp)
		}
	}
	return e.attempts(p, unit{q: q, n: n, inputs: inputs}, kind)
}

// attempts runs u on the chosen processor: on the GPU through gpuAttempts,
// restarting on the CPU when they give up. It returns u's result: for a
// chunk a Value without a batch, its positions kept by its operator.
func (e *Engine) attempts(p *sim.Proc, u unit, kind cost.ProcKind) (*Value, error) {
	attempt := 0
	if kind == cost.GPU {
		v, n, err := e.gpuAttempts(p, u)
		if v != nil || err != nil {
			return v, err
		}
		attempt = n
	}
	start := p.Now()
	v, st, err := e.runOnCPU(p, u)
	e.traceOp(u, cost.CPU, attempt, start, st, abortNone, err)
	return v, err
}

// gpuAttempts runs u's device attempts. One that aborts on a capacity
// failure is restarted on the CPU immediately (CoGaDB's per-operator fault
// tolerance, §2.5.1); one that aborts on a transient infrastructure fault is
// retried with exponential virtual-time backoff up to the retry budget, then
// restarted on the CPU. The circuit breaker is asked before every attempt,
// every outcome feeds it, and — with tracing on — every attempt is recorded:
// where it ran, what it waited for, why it gave up. A chunk asks once it
// holds one of its pipeline's buffers, which it keeps until it leaves the
// device, so no chunk that queued for one reaches a device that opened
// meanwhile. It returns u's result, or nil and the attempts made when u is to
// restart on the CPU.
func (e *Engine) gpuAttempts(p *sim.Proc, u unit) (_ *Value, attempt int, _ error) {
	if c := u.c; c != nil {
		c.inFlight.Acquire(p)
		defer c.inFlight.Release()
	}
	for ; ; attempt++ {
		if !e.Health.AllowGPU(p.Now()) {
			e.Metrics.DegradedPlacements.Inc()
			return nil, attempt, nil
		}
		e.Health.BeginAttempt()
		start := p.Now()
		v, st, abort, err := e.runOnGPU(p, u)
		e.traceOp(u, cost.GPU, attempt, start, st, abort, err)
		if abort != abortNone && e.logEnabled(slog.LevelDebug) {
			e.logEvent(slog.LevelDebug, "operator aborted",
				slog.String("component", "exec"),
				slog.Duration("vt", p.Now()),
				slog.String("query", u.q.name),
				slog.String("operator", u.n.Op.Name()),
				slog.String("processor", "gpu"),
				slog.String("cause", abortLabel(abort, err)),
				slog.Int("attempt", attempt))
		}
		if err != nil {
			e.Health.RecordNeutral() // a query-logic error, not the device
			return nil, attempt, err
		}
		switch abort {
		case abortNone:
			e.Health.RecordSuccess(p.Now())
			return v, attempt, nil
		case abortOOM:
			e.Health.RecordNeutral()
		default: // abortFault, abortReset
			e.Health.RecordFault(p.Now())
		}
		if abort == abortOOM || attempt+1 >= retryMaxAttempts {
			return nil, attempt + 1, nil // out of patience: degrade to the CPU
		}
		e.Metrics.Retries.Inc()
		p.Hold(retryBackoff(attempt))
	}
}

// traceOp stamps the identity of one operator attempt onto the span its run
// measured into and emits it; a chunk's attempt, whose stages emitted their
// own spans, adds its bus time and reservation to its operator's span
// instead. With tracing off it is a single nil check — the per-operator cost
// of the disabled path.
func (e *Engine) traceOp(u unit, kind cost.ProcKind, attempt int,
	start time.Duration, st trace.Span, abort abortKind, err error) {
	if e.Tracer == nil {
		return
	}
	if c := u.c; c != nil {
		c.transfer += st.Transfer
		c.maxHeld = max(c.maxHeld, st.HeapHighWater)
		return
	}
	q, n := u.q, u.n
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

// runOnGPU executes u on the co-processor. A non-abortNone return means the
// attempt was rolled back (partial state released, abort stall charged) and
// the caller decides between retry, CPU fallback and — abortError, the only
// class that carries an error — failing the query. A chunk differs from a
// whole operator only where it must: it holds one of its pipeline's buffers
// (gpuAttempts), not a device worker slot; its rows are never a whole
// column, so they stream through the heap; its kernel is FilterChunk, run
// under the pipeline's compute slot; and its rows download as it finishes,
// each stage recorded in a span.
func (e *Engine) runOnGPU(p *sim.Proc, u unit) (v *Value, st trace.Span, aborted abortKind, err error) {
	n, c := u.n, u.c
	if c == nil { // a chunk holds one of its pipeline's buffers instead
		tq := p.Now()
		e.GPU.Workers.Acquire(p)
		st.QueueWait = p.Now() - tq
		defer e.GPU.Workers.Release()
	}

	start := p.Now()
	res := e.Heap.Reserve()
	// refs are the cache references the attempt holds; nil again once the
	// kernel is done with them. kexec is a chunk's compute slot while held.
	var refs []table.ColumnID
	var kexec *sim.Pool
	// The rollback every failing exit leaves through, whatever it had staged.
	defer func() {
		st.HeapHighWater = res.MaxHeld()
		if aborted == abortNone {
			return
		}
		if kexec != nil {
			kexec.Release()
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
		if c != nil {
			c.span("abort", "gpu", abortLabel(aborted, err), start, p.Now())
		}
	}()
	// giveUp ends the attempt on the error of an allocation or a transfer.
	giveUp := func(derr error) (*Value, trace.Span, abortKind, error) {
		if kind := e.classify(derr); kind != abortError {
			return nil, st, kind, nil
		}
		return nil, st, abortError, derr
	}
	// stream stages bytes the cache does not hold through the heap.
	stream := func(bytes int64) error {
		if aerr := res.Grow(bytes); aerr != nil {
			return aerr
		}
		return e.transferTimed(p, bus.HostToDevice, bytes, &st.Transfer)
	}

	// Input phase: base columns through the cache, intermediates onto the
	// heap. Operators start by allocating input memory (§4.1), so failures
	// here abort cheaply.
	var inBytes int64
	cols := n.Op.BaseColumns()
	if c != nil {
		// A chunk's rows are never a whole column, and a column enters the
		// cache only whole: they stream, as an uncacheable column does.
		cols, inBytes = nil, c.in
		if serr := stream(c.in); serr != nil {
			return giveUp(serr)
		}
		c.stage(p, "upload", "gpu", start, e.Bus.Duration(bus.HostToDevice, c.in))
	}
	for _, id := range cols {
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
		if serr := stream(colBytes); serr != nil {
			return giveUp(serr)
		}
	}
	for _, in := range u.inputs {
		inBytes += in.Bytes()
		if in.OnDevice() {
			continue // produced by a GPU child, already resident
		}
		if serr := stream(in.Bytes()); serr != nil {
			return giveUp(serr)
		}
	}
	if c != nil {
		// One kernel at a time on the device while other chunks' transfers
		// proceed on the links: the overlap the pipeline exists for.
		kexec = c.kexec
		kexec.Acquire(p)
	}
	if e.pollReset(p.Now()) || !res.Valid() {
		// The device reset while (or right after) inputs were staged: all
		// staged state is gone.
		return nil, st, abortReset, nil
	}

	// The kernel's real result; the simulator charges its cost below.
	result, outBytes, kerr := e.kernel(&st, u)
	if kerr != nil {
		return nil, st, abortError, fmt.Errorf("%s on gpu: %w", n.Op.Name(), kerr)
	}

	// Heap phase: scratch + result footprint. Device operators cannot
	// pre-declare their full demand (no concise upper bound for joins,
	// §2.5.1), so they allocate in steps and hold what they already have:
	// the first slice up front, the rest mid-kernel. Under contention the
	// second step fails *after* part of the kernel ran — the wasted work
	// behind heap contention (Figures 3 and 20).
	work := cost.Work(inBytes, outBytes)
	footprint := e.Params.HeapFootprint(n.Op.Class(), inBytes, outBytes)
	e.stall(p)
	dur := e.Params.OpDuration(n.Op.Class(), cost.GPU, work)
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
	if c != nil {
		// The operator feeds the learner once, with its chunks' summed work.
		kexec.Release()
		kexec = nil
		c.stage(p, "compute", "gpu", t0, dur)
		c.gpuWork += work
		c.gpuCompute += p.Now() - t0
	} else {
		e.observe(n.Op.Class(), cost.GPU, work, p.Now()-t0)
		e.Metrics.GPUOperators.Inc()
	}
	e.Metrics.HeapHighWater.Max(e.Heap.HighWater())

	// Cleanup: cached inputs are no longer referenced, consumed device
	// intermediates are freed, and the reservation shrinks to the result.
	for _, id := range refs {
		e.Cache.Unref(id)
	}
	refs = nil
	for _, in := range u.inputs {
		in.dropDevice()
	}
	if held := res.Held(); held >= outBytes {
		res.ReleasePartial(held - outBytes)
	} else if aerr := res.Grow(outBytes - held); aerr != nil {
		return giveUp(aerr) // the result itself does not fit (or faulted): late abort
	}
	if c != nil || e.forceCopyBack {
		// A chunk's rows stream back while the next chunk's kernel runs;
		// UVA-style processing copies every result back after its operator.
		t0 = p.Now()
		if terr := e.transferTimed(p, bus.DeviceToHost, outBytes, &st.Transfer); terr != nil {
			return giveUp(terr)
		}
		if c != nil && outBytes > 0 {
			c.stage(p, "download", "gpu", t0, e.Bus.Duration(bus.DeviceToHost, outBytes))
		}
		res.Release()
		return &Value{Batch: result}, st, abortNone, nil
	}
	return &Value{Batch: result, res: res}, st, abortNone, nil
}

// runOnCPU executes u on the host. Device-resident inputs are copied back
// first (the extra transfers the paper attributes to aborted operators and
// to compile-time placement after faults); a copy-back that keeps faulting
// after retries fails the query cleanly.
func (e *Engine) runOnCPU(p *sim.Proc, u unit) (*Value, trace.Span, error) {
	var st trace.Span
	tq := p.Now()
	e.CPU.Workers.Acquire(p)
	st.QueueWait = p.Now() - tq
	defer e.CPU.Workers.Release()

	n, c := u.n, u.c
	var inBytes int64
	var err error
	if c != nil {
		inBytes = c.in
	} else if inBytes, err = e.inputBytes(n, u.inputs); err != nil {
		return nil, st, err
	}
	for _, in := range u.inputs {
		d, err := e.pullToHost(p, in)
		st.Transfer += d
		if err != nil {
			return nil, st, err
		}
	}
	result, outBytes, err := e.kernel(&st, u)
	if err != nil {
		return nil, st, fmt.Errorf("%s on cpu: %w", n.Op.Name(), err)
	}
	work := cost.Work(inBytes, outBytes)
	dur := e.Params.OpDuration(n.Op.Class(), cost.CPU, work)
	t0 := p.Now()
	e.CPU.Server.Execute(p, dur.Seconds())
	if c != nil {
		c.stage(p, "compute", "cpu", t0, dur)
		c.cpuChunks++
		return nil, st, nil
	}
	e.observe(n.Op.Class(), cost.CPU, work, p.Now()-t0)
	e.Metrics.CPUOperators.Inc()
	return &Value{Batch: result}, st, nil
}

// kernel runs u's kernel: the operator's over its inputs, or FilterChunk
// over the chunk's rows, whose positions the chunk's operator keeps. It
// returns the operator's result (nil for a chunk) and the output bytes.
func (e *Engine) kernel(st *trace.Span, u unit) (*engine.Batch, int64, error) {
	if c := u.c; c != nil {
		pos, err := c.op.FilterChunk(c.ectx, e.Cat, c.lo, c.hi)
		if err != nil {
			return nil, 0, err
		}
		c.results[c.i] = pos
		return nil, int64(float64(pos.Len()) * c.info.OutRowBytes), nil
	}
	ectx := e.kernelCtx()
	batches := batchesOf(u.inputs)
	result, err := e.runKernel(st, ectx, u.n == u.q.plan.Root, func() (*engine.Batch, error) { return u.n.Op.Execute(ectx, e.Cat, batches) })
	return result, st.OutBytes, err
}

// pullToHost copies a device-resident value back to the host, retrying
// transient transfer faults in place with backoff — the copy-back is not a
// device attempt, so each fault is noted against device health as it
// happens — and returns the virtual bus time the copy-back consumed. A device
// reset during a backoff invalidates the copy; the host batch is
// authoritative and there is nothing left to fetch. After the retry budget
// the value stays device-resident and the error is returned — the caller
// fails the query, whose cleanup releases the device copy.
func (e *Engine) pullToHost(p *sim.Proc, v *Value) (time.Duration, error) {
	var busTime time.Duration
	for attempt := 0; v.OnDevice(); attempt++ {
		err := e.transferTimed(p, bus.DeviceToHost, v.Bytes(), &busTime)
		if err == nil {
			v.dropDevice()
			break
		}
		kind := e.classify(err)
		if kind == abortFault {
			e.Health.NoteFault(p.Now())
		}
		if kind != abortFault || attempt+1 >= retryMaxAttempts {
			return busTime, fmt.Errorf("device copy-back of %d bytes failed: %w", v.Bytes(), err)
		}
		e.Metrics.Retries.Inc()
		p.Hold(retryBackoff(attempt))
	}
	return busTime, nil
}

func batchesOf(inputs []*Value) []*engine.Batch {
	out := make([]*engine.Batch, len(inputs))
	for i, v := range inputs {
		out[i] = v.Batch
	}
	return out
}
