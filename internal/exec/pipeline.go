// Pipelined chunk execution: the engine splits a chunkable leaf operator
// into row-range chunks and runs them through a bounded double-buffered
// schedule — while chunk i computes on the device, chunk i+1 uploads over the
// H2D link and chunk i−1's result downloads over the D2H link. The
// full-duplex bus (separate DMA engines per direction, §2.5.3) makes the
// three stages genuinely concurrent, hiding most of the PCIe transfer time
// that otherwise serializes ahead of the kernel (Figure 2's thrashing cost).
//
// Correctness is by construction: FilterChunk over a partition of [0, rows)
// concatenated in range order equals the serial evaluation bit-identically
// (row-local predicates — the same argument the morsel kernels make), and the
// single final MaterializeResult sees exactly the serial position list. The
// schedule changes only *when* work happens, never *what* is computed.
//
// Co-execution: with PipelineCoExec on, trailing chunks are handed to the CPU
// worker pool when the device side is saturated or the circuit breaker has
// degraded the device — the §5.2 idea that a chopped operator stream can
// drain on both processors at once. Results stitch in chunk order regardless
// of where each chunk ran.
package exec

import (
	"errors"
	"fmt"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/device"
	"robustdb/internal/engine"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// pipelineChunkRowsFor resolves the chunk size for one pipelined operator:
// a fixed override (ablations sweep it), the configured cost-model sizer, or
// the built-in equal split into depth+2 chunks.
func (e *Engine) pipelineChunkRowsFor(class cost.OpClass, info plan.ChunkInfo) int {
	if e.pipeChunkRows > 0 {
		r := e.pipeChunkRows
		if r > info.Rows {
			r = info.Rows
		}
		return r
	}
	if e.chunkSizer != nil {
		return e.chunkSizer(e.Learner, e.Params, class, info.Rows, info.InRowBytes(), info.OutRowBytes, e.pipeDepth)
	}
	parts := e.pipeDepth + 2
	r := (info.Rows + parts - 1) / parts
	if r < 1 {
		r = 1
	}
	return r
}

// pipelinePlanFor decides whether the pipelined executor applies to a
// GPU-placed leaf and returns its chunking. It declines (k < 2) when the
// operator is not chunkable, the chunk sizer cannot split it, or its inputs
// are already device-resident — with nothing to transfer there is nothing to
// overlap, and the serial path serves the cache hit.
func (e *Engine) pipelinePlanFor(n *plan.Node) (plan.ChunkableOp, plan.ChunkInfo, int, int) {
	if e.pipeDepth <= 0 || len(n.Children) != 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	op, ok := n.Op.(plan.ChunkableOp)
	if !ok {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	if e.TransferInEstimate(cost.GPU, n, nil) == 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	info, err := op.ChunkInfo(e.Cat)
	if err != nil {
		e.NoteCatalogError(err)
		return nil, plan.ChunkInfo{}, 0, 0
	}
	if info.Rows <= 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	chunkRows := e.pipelineChunkRowsFor(n.Op.Class(), info)
	if chunkRows <= 0 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	k := (info.Rows + chunkRows - 1) / chunkRows
	if k < 2 {
		return nil, plan.ChunkInfo{}, 0, 0
	}
	return op, info, chunkRows, k
}

// PipelinedGPUEstimate estimates the seconds a GPU placement of n would take
// through the pipelined executor: per-chunk stage times rolled up with the
// overlap-aware makespan instead of summed transfer + compute. ok is false
// when the operator would not run pipelined, in which case callers fall back
// to the serial estimate.
func (e *Engine) PipelinedGPUEstimate(n *plan.Node) (float64, bool) {
	op, info, chunkRows, k := e.pipelinePlanFor(n)
	if op == nil {
		return 0, false
	}
	chunkIn := int64(float64(chunkRows) * info.InRowBytes())
	chunkOut := int64(float64(chunkRows) * info.OutRowBytes) // selectivity-1 bound
	up := e.Bus.Duration(bus.HostToDevice, chunkIn)
	down := e.Bus.Duration(bus.DeviceToHost, chunkOut)
	comp := e.Learner.Estimate(n.Op.Class(), cost.GPU, cost.Work(chunkIn, chunkOut))
	return cost.PipelinedDuration(up, comp, down, k).Seconds(), true
}

// chunkOutcome is the result of one chunk attempt on the device.
type chunkOutcome uint8

const (
	// chunkDone: the chunk completed and its positions are stored.
	chunkDone chunkOutcome = iota
	// chunkRedo: a capacity or infrastructure failure rolled the chunk back;
	// the caller redoes it on the CPU (the per-chunk analogue of the
	// operator-level abort-and-restart ladder).
	chunkRedo
	// chunkBail: the query failed or a sibling chunk hit a hard error; give
	// up without redoing.
	chunkBail
)

// pipeRun is the shared state of one pipelined operator execution. The
// simulator serializes all processes, so plain fields are safe.
type pipeRun struct {
	e     *Engine
	q     *query
	n     *plan.Node
	op    plan.ChunkableOp
	info  plan.ChunkInfo
	class cost.OpClass
	name  string
	ectx  *engine.Ctx

	chunkRows int
	k         int

	// inFlight bounds the buffered device chunks to the pipeline depth —
	// the mbarrier-style producer/consumer credit of a double-buffered
	// schedule. kexec is the single device compute slot: one kernel runs at a
	// time while transfers of other chunks proceed on the links.
	inFlight *sim.Pool
	kexec    *sim.Pool
	done     *sim.Signal

	results   []column.PosList
	remaining int
	err       error

	gpuChunks  int64
	cpuChunks  int64
	faulted    bool
	anySlow    bool
	transfer   time.Duration // accumulated bus time (incl. queueing), for the op span
	stageTime  time.Duration // ideal serial stage time (service times, no queueing)
	gpuWork    int64
	gpuCompute time.Duration
	curHeld    int64
	maxHeld    int64
}

// runPipelined executes a chunkable GPU-placed leaf through the pipelined
// schedule. ran=false means the executor declined and the caller should run
// the serial path; ran=true means the operator finished here (possibly with
// an error that fails the query).
func (e *Engine) runPipelined(p *sim.Proc, q *query, n *plan.Node) (*Value, bool, error) {
	op, info, chunkRows, k := e.pipelinePlanFor(n)
	if op == nil {
		return nil, false, nil
	}
	opStart := p.Now()
	e.GPU.Workers.Acquire(p)
	defer e.GPU.Workers.Release()
	queueWait := p.Now() - opStart
	e.Health.BeginAttempt()

	r := &pipeRun{
		e:         e,
		q:         q,
		n:         n,
		op:        op,
		info:      info,
		class:     n.Op.Class(),
		name:      procName(q.name, n),
		ectx:      e.kernelCtx(),
		chunkRows: chunkRows,
		k:         k,
		results:   make([]column.PosList, k),
		remaining: k,
	}
	r.inFlight = sim.NewPool(e.Sim, r.name+".pipe", e.pipeDepth)
	r.kexec = sim.NewPool(e.Sim, r.name+".kexec", 1)
	r.done = sim.NewSignal(e.Sim)
	start := p.Now()
	for i := 0; i < k; i++ {
		i := i
		e.Sim.Spawn(fmt.Sprintf("%s/c%03d", r.name, i), func(cp *sim.Proc) {
			r.runChunk(cp, i)
		})
	}
	r.done.Wait(p)

	var st opStats
	st.queueWait = queueWait
	st.transfer = r.transfer
	st.heapHW = r.maxHeld
	st.pipeDepth = e.pipeDepth
	st.pipeChunks = int64(k)
	st.pipeCPUChunks = r.cpuChunks
	kind := cost.GPU
	if r.gpuChunks == 0 {
		kind = cost.CPU
	}
	if r.err == nil && q.err != nil {
		r.err = q.err
	}
	if r.err != nil {
		// Per-chunk faults were already noted via NoteFault; the attempt
		// itself ends without a second health verdict.
		e.Health.RecordNeutral()
		e.traceOp(q, n, kind, 0, opStart, st, abortNone, r.err)
		return nil, true, r.err
	}

	// Stitch: concatenate the per-chunk position lists in chunk order and
	// materialize once. The rows were computed and transferred back inside
	// the chunk stages, so the stitch itself is free in virtual time.
	pos := column.Concat(r.results)
	var decodeBase int64
	if e.Tracer != nil {
		decodeBase = column.DecompressedBytes()
	}
	result, merr := r.op.MaterializeResult(r.ectx, e.Cat, pos)
	if e.Tracer != nil {
		st.decompress = column.DecompressedBytes() - decodeBase
	}
	e.noteKernel(&st, r.ectx)
	if merr != nil {
		e.Health.RecordNeutral()
		err := fmt.Errorf("%s pipelined: %w", n.Op.Name(), merr)
		e.traceOp(q, n, kind, 0, opStart, st, abortNone, err)
		return nil, true, err
	}
	st.rows, st.outBytes = int64(result.NumRows()), result.Bytes()

	// Overlap: the ideal serial schedule costs the sum of all stage service
	// times; the pipelined wall time (after admission) is what it actually
	// took. The hidden difference is the overlap win.
	wall := p.Now() - start
	if r.stageTime > 0 {
		hidden := r.stageTime - wall
		if hidden < 0 {
			hidden = 0
		}
		st.overlap = float64(hidden) / float64(r.stageTime)
		if st.overlap > 1 {
			st.overlap = 1
		}
		q.pipeStage += r.stageTime
		q.pipeHidden += hidden
	}

	if r.gpuChunks > 0 && !r.faulted {
		e.Health.RecordSuccess(p.Now())
	} else {
		e.Health.RecordNeutral()
	}
	if r.gpuChunks > 0 && !r.anySlow && r.gpuCompute > 0 {
		e.observe(r.class, cost.GPU, r.gpuWork, r.gpuCompute)
	} else {
		e.Metrics.OperatorRuns.Inc()
	}
	if kind == cost.GPU {
		e.Metrics.GPUOperators.Inc()
	} else {
		e.Metrics.CPUOperators.Inc()
	}
	e.Metrics.PipelinedOps.Inc()
	e.Metrics.PipelineChunks.Add(int64(k))
	e.Metrics.PipelineCPUChunks.Add(r.cpuChunks)
	e.Metrics.HeapHighWater.Max(e.Heap.HighWater())
	e.traceOp(q, n, kind, 0, opStart, st, abortNone, nil)
	// Chunk results streamed back to the host as they completed, so the
	// stitched value is host-resident (the transfer cost is already paid —
	// nothing is saved by leaving a copy on the device).
	return &Value{Batch: result, OnDevice: false}, true, nil
}

// bail reports whether the run should stop early: the query failed (deadline,
// sibling operator error) or a sibling chunk hit a hard error.
func (r *pipeRun) bail() bool { return r.err != nil || r.q.err != nil }

// fail records the first hard error of the run.
func (r *pipeRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// complete retires one chunk; the last one wakes the driver.
func (r *pipeRun) complete() {
	r.remaining--
	if r.remaining == 0 {
		r.done.Fire()
	}
}

// chunkSpan emits one pipeline-stage span (Class "chunk"). EXPLAIN ANALYZE
// and the per-node report breakdowns filter this class; the Chrome export
// shows the stage bars overlapping inside the query lane.
func (r *pipeRun) chunkSpan(i int, stage, proc string, start, end time.Duration) {
	if r.e.Tracer == nil {
		return
	}
	r.q.emit(trace.Span{
		Query: r.q.name,
		Name:  fmt.Sprintf("%s/c%03d:%s", r.name, i, stage),
		Op:    stage,
		Class: "chunk",
		Proc:  proc,
		Node:  r.n.ID(),
		Start: start,
		End:   end,
	})
}

// runChunk executes chunk i: on the device through the bounded pipeline, or
// on the CPU when co-execution takes it or the device attempt rolled back.
func (r *pipeRun) runChunk(p *sim.Proc, i int) {
	defer r.complete()
	if r.bail() {
		return
	}
	lo := i * r.chunkRows
	hi := lo + r.chunkRows
	if hi > r.info.Rows {
		hi = r.info.Rows
	}
	chunkIn := int64(float64(hi-lo) * r.info.InRowBytes())
	outMax := int64(float64(hi-lo) * r.info.OutRowBytes)
	if !r.wantCPU(p, chunkIn, outMax) {
		switch r.runChunkGPU(p, i, lo, hi, chunkIn, outMax) {
		case chunkDone, chunkBail:
			return
		case chunkRedo:
			if r.bail() {
				return
			}
		}
	}
	r.runChunkCPU(p, i, lo, hi, chunkIn, outMax)
}

// wantCPU is the co-execution policy: hand this chunk to the CPU when the
// breaker keeps it off the device, or when the device backlog (buffered +
// queued chunks) would make the CPU finish it sooner than the pipeline's
// bottleneck cycle predicts the device will get to it.
func (r *pipeRun) wantCPU(p *sim.Proc, chunkIn, outMax int64) bool {
	if !r.e.pipeCoExec {
		return false
	}
	e := r.e
	if !e.Health.AllowGPU(p.Now()) {
		return true
	}
	work := cost.Work(chunkIn, outMax)
	cpuSec := e.Learner.Estimate(r.class, cost.CPU, work).Seconds() + e.Outstanding(cost.CPU)
	up := e.Bus.Duration(bus.HostToDevice, chunkIn).Seconds()
	comp := e.Params.OpDuration(r.class, cost.GPU, work).Seconds()
	down := e.Bus.Duration(bus.DeviceToHost, outMax).Seconds()
	cycle := up
	if comp > cycle {
		cycle = comp
	}
	if down > cycle {
		cycle = down
	}
	backlog := r.inFlight.InUse() + r.inFlight.Waiting()
	return cpuSec < cycle*float64(backlog+1)
}

// noteChunkFault classifies a chunk-stage failure, counting injected faults
// and feeding device health. OOM is capacity, not health (the serial ladder's
// distinction); resets were already noted by DeviceReset.
func (r *pipeRun) noteChunkFault(err error, now time.Duration) {
	e := r.e
	if err == nil || !faults.IsTransient(err) {
		return
	}
	if errors.Is(err, faults.ErrInjectedAlloc) {
		e.Metrics.AllocFaults.Inc()
	} else {
		e.Metrics.TransferFaults.Inc()
	}
	e.Health.NoteFault(now)
	r.faulted = true
}

// runChunkGPU runs one chunk's upload → compute → download on the device.
// Any capacity or infrastructure failure rolls the chunk back (reservation
// released, no partial state) and reports chunkRedo; the caller restarts it
// on the CPU, so a faulty device degrades chunk-by-chunk instead of wasting
// the whole operator.
func (r *pipeRun) runChunkGPU(p *sim.Proc, i, lo, hi int, chunkIn, outMax int64) chunkOutcome {
	e := r.e
	r.inFlight.Acquire(p)
	defer r.inFlight.Release()
	if r.bail() {
		return chunkBail
	}
	chunkStart := p.Now()

	// Per-chunk heap reservation: the full footprint up front. A chunk is
	// small, so the step-wise allocation storm of whole operators (§2.5.1)
	// does not apply; what matters is that at most depth chunks hold
	// reservations at once and every exit path releases.
	res := e.Heap.Reserve()
	footprint := e.Params.HeapFootprint(r.class, chunkIn, outMax)
	release := func() {
		r.curHeld -= footprint
		res.Release()
	}
	if aerr := res.Grow(footprint); aerr != nil {
		res.Release()
		if isHardAllocErr(aerr) {
			r.fail(aerr)
			return chunkBail
		}
		r.noteChunkFault(aerr, p.Now())
		e.Metrics.WastedTime.Add(p.Now() - chunkStart)
		return chunkRedo
	}
	r.curHeld += footprint
	if r.curHeld > r.maxHeld {
		r.maxHeld = r.curHeld
	}

	// Upload: chunk input over the H2D link, retrying transient faults.
	t0 := p.Now()
	for attempt := 0; ; attempt++ {
		terr := e.transferTimed(p, bus.HostToDevice, chunkIn, &r.transfer)
		if terr == nil {
			break
		}
		r.noteChunkFault(terr, p.Now())
		if attempt+1 >= e.retry.MaxAttempts {
			release()
			e.Metrics.WastedTime.Add(p.Now() - chunkStart)
			return chunkRedo
		}
		e.Metrics.Retries.Inc()
		p.Hold(e.retry.backoff(attempt))
		if r.bail() {
			release()
			return chunkBail
		}
	}
	r.chunkSpan(i, "upload", "gpu", t0, p.Now())
	r.stageTime += e.Bus.Duration(bus.HostToDevice, chunkIn)
	if e.pollReset(p.Now()) || !res.Valid() {
		release()
		e.Metrics.WastedTime.Add(p.Now() - chunkStart)
		return chunkRedo
	}
	if r.bail() {
		release()
		return chunkBail
	}

	// Compute: one kernel at a time on the device while other chunks'
	// transfers proceed on the links — the overlap this executor exists for.
	r.kexec.Acquire(p)
	if e.pollReset(p.Now()) || !res.Valid() {
		r.kexec.Release()
		release()
		e.Metrics.WastedTime.Add(p.Now() - chunkStart)
		return chunkRedo
	}
	t0 = p.Now()
	pos, kerr := r.op.FilterChunk(r.ectx, e.Cat, lo, hi)
	if kerr != nil {
		r.kexec.Release()
		release()
		r.fail(fmt.Errorf("%s on gpu (chunk %d): %w", r.n.Op.Name(), i, kerr))
		return chunkBail
	}
	chunkOut := int64(float64(pos.Len()) * r.info.OutRowBytes)
	work := cost.Work(chunkIn, chunkOut)
	dur := e.Params.OpDuration(r.class, cost.GPU, work)
	if e.injector != nil {
		slowFactor, stall := e.injector.OpDelay(p.Now())
		if stall > 0 {
			e.Metrics.StuckOps.Inc()
			p.Hold(stall)
		}
		if slowFactor != 1 {
			dur = time.Duration(float64(dur) * slowFactor)
			r.anySlow = true
		}
	}
	e.GPU.Server.Execute(p, dur.Seconds())
	r.kexec.Release()
	r.chunkSpan(i, "compute", "gpu", t0, p.Now())
	r.stageTime += dur
	r.gpuWork += work
	r.gpuCompute += p.Now() - t0
	if e.pollReset(p.Now()) || !res.Valid() {
		release()
		e.Metrics.WastedTime.Add(p.Now() - chunkStart)
		return chunkRedo
	}

	// Download: the chunk's qualifying rows stream back while the next
	// chunk's kernel runs.
	if chunkOut > 0 {
		t0 = p.Now()
		for attempt := 0; ; attempt++ {
			terr := e.transferTimed(p, bus.DeviceToHost, chunkOut, &r.transfer)
			if terr == nil {
				break
			}
			r.noteChunkFault(terr, p.Now())
			if attempt+1 >= e.retry.MaxAttempts {
				release()
				e.Metrics.WastedTime.Add(p.Now() - chunkStart)
				return chunkRedo
			}
			e.Metrics.Retries.Inc()
			p.Hold(e.retry.backoff(attempt))
			if r.bail() {
				release()
				return chunkBail
			}
		}
		r.chunkSpan(i, "download", "gpu", t0, p.Now())
		r.stageTime += e.Bus.Duration(bus.DeviceToHost, chunkOut)
	}
	release()
	r.results[i] = pos
	r.gpuChunks++
	return chunkDone
}

// runChunkCPU runs one chunk on the host: the co-execution path and the redo
// target of rolled-back device chunks. FilterChunk is pure, so a redo
// reproduces exactly the positions the device attempt would have produced.
func (r *pipeRun) runChunkCPU(p *sim.Proc, i, lo, hi int, chunkIn, outMax int64) {
	e := r.e
	e.CPU.Workers.Acquire(p)
	defer e.CPU.Workers.Release()
	if r.bail() {
		return
	}
	t0 := p.Now()
	pos, kerr := r.op.FilterChunk(r.ectx, e.Cat, lo, hi)
	if kerr != nil {
		r.fail(fmt.Errorf("%s on cpu (chunk %d): %w", r.n.Op.Name(), i, kerr))
		return
	}
	chunkOut := int64(float64(pos.Len()) * r.info.OutRowBytes)
	dur := e.Params.OpDuration(r.class, cost.CPU, cost.Work(chunkIn, chunkOut))
	e.CPU.Server.Execute(p, dur.Seconds())
	r.chunkSpan(i, "compute", "cpu", t0, p.Now())
	r.stageTime += dur
	r.results[i] = pos
	r.cpuChunks++
}

// isHardAllocErr reports whether a reservation failure is neither capacity
// nor a known transient fault — a genuine engine error that must fail the
// query instead of silently redoing on the CPU.
func isHardAllocErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, device.ErrOutOfMemory) || errors.Is(err, device.ErrReset) {
		return false
	}
	return !faults.IsTransient(err)
}
