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
	"fmt"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// chunkPlan is the chunking of one pipelined operator: the kernel pair to
// run, the rows and row widths it covers, and the k chunks of chunkRows rows
// it is cut into.
type chunkPlan struct {
	op        plan.ChunkableOp
	info      plan.ChunkInfo
	chunkRows int
	k         int
}

// pipelinePlanFor decides whether the pipelined executor applies to a
// GPU-placed leaf and returns its chunking. It declines when pipelining is
// off, the operator is not a chunkable leaf, its inputs are already
// device-resident — with nothing to transfer there is nothing to overlap, and
// the whole-operator path serves the cache hit — or the chunk size (the
// cost-model sizer's, or the fixed one ablations sweep) yields fewer than two
// chunks.
func (e *Engine) pipelinePlanFor(n *plan.Node) (chunkPlan, bool) {
	if e.pipeDepth <= 0 || len(n.Children) != 0 {
		return chunkPlan{}, false
	}
	op, ok := n.Op.(plan.ChunkableOp)
	if !ok || e.TransferInEstimate(cost.GPU, n, nil) == 0 {
		return chunkPlan{}, false
	}
	info, err := op.ChunkInfo(e.Cat)
	if err != nil {
		e.NoteCatalogError(err)
		return chunkPlan{}, false
	}
	if info.Rows <= 0 {
		return chunkPlan{}, false
	}
	chunkRows := e.pipeChunkRows
	if chunkRows <= 0 {
		chunkRows = cost.PipelineChunkRows(e.Learner, e.Params, n.Op.Class(),
			info.Rows, info.InRowBytes(), info.OutRowBytes, e.pipeDepth)
	}
	k := (info.Rows + chunkRows - 1) / chunkRows
	return chunkPlan{op: op, info: info, chunkRows: chunkRows, k: k}, k >= 2
}

// PipelinedGPUEstimate estimates the seconds a GPU placement of n would take
// through the pipelined executor: per-chunk stage times rolled up with the
// overlap-aware makespan instead of summed transfer + compute. ok is false
// when the operator would not run pipelined, in which case callers fall back
// to the serial estimate.
func (e *Engine) PipelinedGPUEstimate(n *plan.Node) (float64, bool) {
	cp, ok := e.pipelinePlanFor(n)
	if !ok {
		return 0, false
	}
	chunkIn := int64(float64(cp.chunkRows) * cp.info.InRowBytes())
	chunkOut := int64(float64(cp.chunkRows) * cp.info.OutRowBytes) // selectivity-1 bound
	up := e.Bus.Duration(bus.HostToDevice, chunkIn)
	down := e.Bus.Duration(bus.DeviceToHost, chunkOut)
	comp := e.Learner.Estimate(n.Op.Class(), cost.GPU, cost.Work(chunkIn, chunkOut))
	return cost.PipelinedDuration(up, comp, down, cp.k).Seconds(), true
}

// pipeRun is the shared state of one pipelined operator execution. The
// simulator serializes all processes, so plain fields are safe.
type pipeRun struct {
	chunkPlan
	e     *Engine
	q     *query
	n     *plan.Node
	class cost.OpClass
	name  string
	ectx  *engine.Ctx

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
// schedule chunks; an error fails the query.
func (e *Engine) runPipelined(p *sim.Proc, q *query, n *plan.Node, chunks chunkPlan) (*Value, error) {
	opStart := p.Now()
	e.GPU.Workers.Acquire(p)
	defer e.GPU.Workers.Release()
	queueWait := p.Now() - opStart
	e.Health.BeginAttempt()

	r := &pipeRun{
		chunkPlan: chunks,
		e:         e,
		q:         q,
		n:         n,
		class:     n.Op.Class(),
		name:      procName(q.name, n),
		ectx:      e.kernelCtx(),
		results:   make([]column.PosList, chunks.k),
		remaining: chunks.k,
	}
	r.inFlight = sim.NewPool(e.Sim, r.name+".pipe", e.pipeDepth)
	r.kexec = sim.NewPool(e.Sim, r.name+".kexec", 1)
	r.done = sim.NewSignal(e.Sim)
	start := p.Now()
	for i := 0; i < r.k; i++ {
		i := i
		e.Sim.Spawn(fmt.Sprintf("%s/c%03d", r.name, i), func(cp *sim.Proc) {
			r.runChunk(cp, i)
		})
	}
	r.done.Wait(p)

	st := trace.Span{QueueWait: queueWait, Transfer: r.transfer, HeapHighWater: r.maxHeld,
		PipelineDepth: e.pipeDepth, ChunkCount: int64(r.k), CPUChunks: r.cpuChunks}
	kind := cost.GPU
	if r.gpuChunks == 0 {
		kind = cost.CPU
	}
	err := r.err
	if err == nil {
		err = q.err
	}
	var result *engine.Batch
	if err == nil {
		// Stitch: concatenate the per-chunk position lists in chunk order and
		// materialize once. The rows were computed and transferred back inside
		// the chunk stages, so the stitch itself is free in virtual time.
		pos := column.Concat(r.results)
		result, err = e.runKernel(&st, r.ectx, n == q.plan.Root, func() (*engine.Batch, error) { return r.op.MaterializeResult(r.ectx, e.Cat, pos) })
		if err != nil {
			err = fmt.Errorf("%s pipelined: %w", n.Op.Name(), err)
		}
	}
	if err != nil {
		// Per-chunk faults were already noted via NoteFault; the attempt
		// itself ends without a second health verdict.
		e.Health.RecordNeutral()
		e.traceOp(q, n, kind, 0, opStart, st, abortNone, err)
		return nil, err
	}

	// Overlap: the ideal serial schedule costs the sum of all stage service
	// times; the pipelined wall time (after admission) is what it actually
	// took. The hidden difference is the overlap win.
	wall := p.Now() - start
	if r.stageTime > 0 {
		hidden := r.stageTime - wall
		if hidden < 0 {
			hidden = 0
		}
		st.Overlap = min(float64(hidden)/float64(r.stageTime), 1)
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
	e.Metrics.PipelineChunks.Add(int64(r.k))
	e.Metrics.PipelineCPUChunks.Add(r.cpuChunks)
	e.Metrics.HeapHighWater.Max(e.Heap.HighWater())
	e.traceOp(q, n, kind, 0, opStart, st, abortNone, nil)
	// Chunk results streamed back to the host as they completed, so the
	// stitched value is host-resident (the transfer cost is already paid —
	// nothing is saved by leaving a copy on the device).
	return &Value{Batch: result, OnDevice: false}, nil
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

// chunkSpan emits one pipeline-stage span (Class "chunk"), or with a non-empty
// abort class the span of a rolled-back device chunk (stage "abort"), whose
// time the engine counts as wasted. EXPLAIN ANALYZE and the per-node report
// breakdowns filter this class; the Chrome export shows the stage bars
// overlapping inside the query lane.
func (r *pipeRun) chunkSpan(i int, stage, proc, abort string, start, end time.Duration) {
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
		Abort: abort,
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
		// A rolled-back device attempt restarts on the CPU — the per-chunk
		// analogue of the operator-level abort-and-restart ladder. Done,
		// failed and overtaken chunks end here.
		if aborted := r.runChunkGPU(p, i, lo, hi, chunkIn, outMax); !aborted.rolledBack() || r.bail() {
			return
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

// ended passes on the class a chunk's device attempt ended in, recording the
// error of the one class that carries one as the run's.
func (r *pipeRun) ended(kind abortKind, err error) abortKind {
	if kind == abortError {
		r.fail(err)
	}
	return kind
}

// runChunkGPU runs one chunk's upload → compute → download on the device.
// Any capacity or infrastructure failure rolls the chunk back (reservation
// released, no partial state) and the caller restarts it on the CPU, so a
// faulty device degrades chunk-by-chunk instead of wasting the whole
// operator; abortStopped means the run was already failing, abortError that
// this chunk failed it.
func (r *pipeRun) runChunkGPU(p *sim.Proc, i, lo, hi int, chunkIn, outMax int64) (aborted abortKind) {
	e := r.e
	r.inFlight.Acquire(p)
	defer r.inFlight.Release()
	if r.bail() {
		return abortStopped
	}
	chunkStart := p.Now()

	// Per-chunk heap reservation: the full footprint up front. A chunk is
	// small, so the step-wise allocation storm of whole operators (§2.5.1)
	// does not apply; what matters is that at most depth chunks hold
	// reservations at once and every exit, whatever its class, releases.
	res := e.Heap.Reserve()
	defer res.Release()
	var held int64
	defer func() {
		r.curHeld -= held
		if aborted.rolledBack() {
			e.Metrics.WastedTime.Add(p.Now() - chunkStart)
			r.chunkSpan(i, "abort", "gpu", abortLabel(aborted, nil), chunkStart, p.Now())
		}
	}()
	footprint := e.Params.HeapFootprint(r.class, chunkIn, outMax)
	if aerr := res.Grow(footprint); aerr != nil {
		return r.ended(e.classify(aerr, p.Now(), &r.faulted), aerr)
	}
	held = footprint
	r.curHeld += held
	if r.curHeld > r.maxHeld {
		r.maxHeld = r.curHeld
	}

	// Upload: chunk input over the H2D link, retrying transient faults.
	t0 := p.Now()
	if kind, terr := e.transferRetried(p, bus.HostToDevice, chunkIn, &r.transfer, &r.faulted, r.bail); kind != abortNone {
		return r.ended(kind, terr)
	}
	r.chunkSpan(i, "upload", "gpu", "", t0, p.Now())
	r.stageTime += e.Bus.Duration(bus.HostToDevice, chunkIn)
	if e.pollReset(p.Now()) || !res.Valid() {
		return abortReset
	}
	if r.bail() {
		return abortStopped
	}

	// Compute: one kernel at a time on the device while other chunks'
	// transfers proceed on the links — the overlap this executor exists for.
	r.kexec.Acquire(p)
	if e.pollReset(p.Now()) || !res.Valid() {
		r.kexec.Release()
		return abortReset
	}
	t0 = p.Now()
	pos, kerr := r.op.FilterChunk(r.ectx, e.Cat, lo, hi)
	if kerr != nil {
		r.kexec.Release()
		return r.ended(abortError, fmt.Errorf("%s on gpu (chunk %d): %w", r.n.Op.Name(), i, kerr))
	}
	chunkOut := int64(float64(pos.Len()) * r.info.OutRowBytes)
	work := cost.Work(chunkIn, chunkOut)
	dur, slow := e.injectDelay(p, e.Params.OpDuration(r.class, cost.GPU, work))
	r.anySlow = r.anySlow || slow
	e.GPU.Server.Execute(p, dur.Seconds())
	r.kexec.Release()
	r.chunkSpan(i, "compute", "gpu", "", t0, p.Now())
	r.stageTime += dur
	r.gpuWork += work
	r.gpuCompute += p.Now() - t0
	if e.pollReset(p.Now()) || !res.Valid() {
		return abortReset
	}

	// Download: the chunk's qualifying rows stream back while the next
	// chunk's kernel runs.
	if chunkOut > 0 {
		t0 = p.Now()
		if kind, terr := e.transferRetried(p, bus.DeviceToHost, chunkOut, &r.transfer, &r.faulted, r.bail); kind != abortNone {
			return r.ended(kind, terr)
		}
		r.chunkSpan(i, "download", "gpu", "", t0, p.Now())
		r.stageTime += e.Bus.Duration(bus.DeviceToHost, chunkOut)
	}
	r.results[i] = pos
	r.gpuChunks++
	return abortNone
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
	r.chunkSpan(i, "compute", "cpu", "", t0, p.Now())
	r.stageTime += dur
	r.results[i] = pos
	r.cpuChunks++
}
