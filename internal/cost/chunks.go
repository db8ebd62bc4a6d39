package cost

// Pipeline-aware chunk sizing for the pipelined chunk executor (the §5.2
// chunks, sized for transfer/compute overlap instead of only for heap
// pressure): a chunk should be small enough that several are in flight —
// upload of chunk i+1 under the compute of chunk i — and large enough that
// the fixed per-chunk costs (bus latency, kernel launch) stay amortized.

// MinChunkRows is the smallest chunk the sizer emits: below ~1k rows the
// fixed per-chunk costs dominate any overlap win.
const MinChunkRows = 1024

// overheadBudget caps the fixed per-chunk cost (bus latency + kernel
// launch) at this fraction of the chunk's bottleneck stage time.
const overheadBudget = 0.10

// PipelineChunkRows sizes the chunks of a pipelined chunkable operator. The
// per-row cost of each pipeline stage — upload, device compute, download —
// comes from the machine params and the online cost learner; the bottleneck
// stage sets the cycle time, and the chunk is sized so the fixed per-chunk
// overhead stays under overheadBudget of one cycle. The result is clamped so
// at least depth+1 chunks exist whenever the table is large enough — a
// pipeline of depth d needs d+1 chunks before any stage overlaps — and never
// below MinChunkRows. The pipelined executor and the placement estimate
// that prices it (exec.Estimate's Pipelined makespan) both size through here.
func PipelineChunkRows(learner *Learner, params *Params, class OpClass,
	totalRows int, inRowBytes, outRowBytes float64, depth int) int {
	if totalRows <= 0 {
		return 0
	}
	if depth < 1 {
		depth = 1
	}
	upRow := inRowBytes / params.BusBandwidth
	downRow := outRowBytes / params.BusBandwidth
	// Per-row compute slope from the learner: the estimate over the full
	// volume minus the fixed startup, divided by the rows. The learner starts
	// at the analytical prior and converges to observed throughput.
	workBytes := int64(float64(totalRows) * (inRowBytes + outRowBytes))
	compute := learner.Estimate(class, GPU, workBytes) - params.Startup[GPU]
	compRow := 0.0
	if compute > 0 {
		compRow = compute.Seconds() / float64(totalRows)
	}
	bottleneck := upRow
	if compRow > bottleneck {
		bottleneck = compRow
	}
	if downRow > bottleneck {
		bottleneck = downRow
	}
	overhead := (params.BusLatency + params.Startup[GPU]).Seconds()
	rows := totalRows
	if bottleneck > 0 {
		rows = int(overhead / (overheadBudget * bottleneck))
	}
	// The pipeline only overlaps with more chunks in flight than its depth;
	// prefer depth+1 chunks over perfectly amortized overhead when the table
	// is big enough to afford it.
	if maxRows := totalRows / (depth + 1); maxRows >= MinChunkRows && rows > maxRows {
		rows = maxRows
	}
	if rows < MinChunkRows {
		rows = MinChunkRows
	}
	if rows > totalRows {
		rows = totalRows
	}
	return rows
}
