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
// Every chunk runs the attempts a whole operator runs (attempts, attempt.go):
// the same heap phases, rollback, abort stall, retries, breaker check and
// health verdict, restarting on the CPU when its device attempts give up.
// The operator itself is counted, observed and traced once.
//
// Co-execution: with PipelineCoExec on, trailing chunks are handed to the CPU
// worker pool when the device side is saturated — the §5.2 idea that a
// chopped operator stream can drain on both processors at once. Results
// stitch in chunk order regardless of where each chunk ran.
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
	if !ok || !e.uncachedInput(n) {
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

// pipeRun is the shared state of one pipelined operator execution. The
// simulator serializes all processes, so plain fields are safe.
type pipeRun struct {
	chunkPlan
	e    *Engine
	q    *query
	n    *plan.Node
	name string
	ectx *engine.Ctx

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

	cpuChunks  int64
	transfer   time.Duration // the chunk attempts' bus time (incl. queueing), for the op span
	maxHeld    int64         // the largest reservation a chunk attempt held, for the op span
	stageTime  time.Duration // ideal serial stage time (service times, no queueing)
	gpuWork    int64
	gpuCompute time.Duration
}

// chunk is one chunk of a pipelined operator: rows [lo, hi), whose input
// columns span in bytes.
type chunk struct {
	*pipeRun
	i, lo, hi int
	in        int64
}

// runPipelined executes a chunkable GPU-placed leaf through the pipelined
// schedule; a chunk's error fails the query.
func (e *Engine) runPipelined(p *sim.Proc, q *query, n *plan.Node, chunks chunkPlan) (*Value, error) {
	opStart := p.Now()
	e.GPU.Workers.Acquire(p)
	defer e.GPU.Workers.Release()
	queueWait := p.Now() - opStart

	r := &pipeRun{
		chunkPlan: chunks,
		e:         e,
		q:         q,
		n:         n,
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
		e.Sim.Spawn(fmt.Sprintf("%s/c%03d", r.name, i), func(cp *sim.Proc) {
			r.runChunk(cp, i)
		})
	}
	r.done.Wait(p)

	st := trace.Span{QueueWait: queueWait, Transfer: r.transfer, HeapHighWater: r.maxHeld,
		PipelineDepth: e.pipeDepth, ChunkCount: int64(r.k), CPUChunks: r.cpuChunks}
	kind := cost.GPU
	if r.cpuChunks == int64(r.k) {
		kind = cost.CPU
	}
	op := unit{q: q, n: n}
	err := r.err
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
		e.traceOp(op, kind, 0, opStart, st, abortNone, err)
		return nil, err
	}

	// Overlap: the ideal serial schedule costs the sum of all stage service
	// times; the pipelined wall time (after admission) is what it actually
	// took. The hidden difference is the overlap win.
	wall := p.Now() - start
	if r.stageTime > 0 {
		hidden := max(r.stageTime-wall, 0)
		st.Overlap = min(float64(hidden)/float64(r.stageTime), 1)
		q.pipeStage += r.stageTime
		q.pipeHidden += hidden
	}

	if kind == cost.GPU && r.gpuCompute > 0 {
		e.observe(n.Op.Class(), cost.GPU, r.gpuWork, r.gpuCompute)
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
	e.traceOp(op, kind, 0, opStart, st, abortNone, nil)
	// Chunk results streamed back to the host as they completed, so the
	// stitched value is host-resident (the transfer cost is already paid —
	// nothing is saved by leaving a copy on the device).
	return &Value{Batch: result}, nil
}

// runChunk runs chunk i through the attempts of a whole operator: on the
// device unless co-execution hands it to the CPU, restarted on the CPU when
// its device attempts give up. Like an operator in flight, it runs to its end
// when the query fails under it.
func (r *pipeRun) runChunk(p *sim.Proc, i int) {
	lo := i * r.chunkRows
	hi := min(lo+r.chunkRows, r.info.Rows)
	c := &chunk{pipeRun: r, i: i, lo: lo, hi: hi, in: int64(float64(hi-lo) * r.info.InRowBytes())}
	kind := cost.GPU
	if r.wantCPU(c) {
		kind = cost.CPU
	}
	if _, err := r.e.attempts(p, unit{q: r.q, n: r.n, c: c}, kind); err != nil && r.err == nil {
		r.err = err
	}
	r.remaining--
	if r.remaining == 0 {
		r.done.Fire()
	}
}

// wantCPU is the co-execution policy: hand this chunk to the CPU when the
// device backlog (buffered + queued chunks) would make the CPU finish it
// sooner than the pipeline's bottleneck cycle predicts the device will get
// to it. Whether the breaker lets a chunk onto the device at all is the
// attempts' check, as for every operator.
func (r *pipeRun) wantCPU(c *chunk) bool {
	if !r.e.pipeCoExec {
		return false
	}
	e := r.e
	outMax := int64(float64(c.hi-c.lo) * r.info.OutRowBytes)
	cpuSec := e.price(r.n.Op.Class(), c.in, outMax).Time[cost.CPU].Seconds() + e.Outstanding(cost.CPU)
	up := e.Bus.Duration(bus.HostToDevice, c.in).Seconds()
	comp := e.Params.OpDuration(r.n.Op.Class(), cost.GPU, cost.Work(c.in, outMax)).Seconds()
	down := e.Bus.Duration(bus.DeviceToHost, outMax).Seconds()
	backlog := r.inFlight.InUse() + r.inFlight.Waiting()
	return cpuSec < max(up, comp, down)*float64(backlog+1)
}

// stage records one completed stage of the chunk: its span, and its service
// time in the operator's ideal serial schedule.
func (c *chunk) stage(p *sim.Proc, name, proc string, start, ideal time.Duration) {
	c.stageTime += ideal
	c.span(name, proc, "", start, p.Now())
}

// span emits one pipeline-stage span (Class "chunk"), or with a non-empty
// abort class the span of a rolled-back device attempt of the chunk (stage
// "abort"), whose time the engine counts as wasted. EXPLAIN ANALYZE and the
// per-node report breakdowns filter this class; the Chrome export shows the
// stage bars overlapping inside the query lane.
func (c *chunk) span(stage, proc, abort string, start, end time.Duration) {
	if c.e.Tracer == nil {
		return
	}
	c.q.emit(trace.Span{
		Query: c.q.name,
		Name:  fmt.Sprintf("%s/c%03d:%s", c.name, c.i, stage),
		Op:    stage,
		Class: "chunk",
		Proc:  proc,
		Node:  c.n.ID(),
		Start: start,
		End:   end,
		Abort: abort,
	})
}
