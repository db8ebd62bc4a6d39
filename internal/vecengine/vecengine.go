// Package vecengine is the vectorized (vector-at-a-time) comparator backend
// standing in for MonetDB/Ocelot in the paper's Appendix A comparison.
//
// It executes the same physical plans as the bulk engine, but streams base
// tables through unary operator chains in cache-sized vectors: a scan's
// output chunk flows through filters, computes, and projections without
// ever being materialized as a full intermediate. Only *pipeline breakers*
// (joins, aggregations, sorts — and the plan root) materialize, exactly the
// property §5.5 discusses. Results are produced by the same kernels as the
// bulk engine and are bit-identical to it.
//
// The execution statistics (vectors dispatched, bytes materialized at
// breakers, bytes that skipped materialization) feed the Figure 22/23 cost
// comparison: vectorized execution saves the write+read of unary
// intermediates and pays a small per-vector dispatch overhead instead.
package vecengine

import (
	"fmt"
	"time"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/par"
	"robustdb/internal/plan"
	"robustdb/internal/table"
)

// DefaultVectorSize is the number of rows per vector (MonetDB/X100-style
// cache-resident chunks).
const DefaultVectorSize = 1024

// Stats describes one vectorized plan execution.
type Stats struct {
	// Vectors is the number of vector dispatches across all pipelines.
	Vectors int64
	// MaterializedBytes were written at pipeline breakers.
	MaterializedBytes int64
	// SavedBytes are intermediate bytes that flowed through unary chains
	// without materialization (the bulk engine would write and re-read
	// them).
	SavedBytes int64
	// Pipelines is the number of executed pipelines.
	Pipelines int64
}

// Engine executes plans vector-at-a-time.
type Engine struct {
	cat        *table.Catalog
	vectorSize int
	// pool, when non-nil, dispatches pipeline vectors (and the breakers'
	// bulk kernels) across its workers. Results and stats are bit-identical
	// to the serial engine: vectors fill indexed slots and stat deltas are
	// summed in vector order.
	pool *par.Pool
}

// New creates a vectorized engine over the catalog. vectorSize ≤ 0 selects
// DefaultVectorSize.
func New(cat *table.Catalog, vectorSize int) *Engine {
	if vectorSize <= 0 {
		vectorSize = DefaultVectorSize
	}
	return &Engine{cat: cat, vectorSize: vectorSize}
}

// SetPool selects the worker pool vectors are dispatched on (nil = serial).
func (e *Engine) SetPool(p *par.Pool) { e.pool = p }

// VectorSize returns the configured rows-per-vector.
func (e *Engine) VectorSize() int { return e.vectorSize }

// Execute runs the plan and returns its exact result plus the execution
// statistics.
func (e *Engine) Execute(p *plan.Plan) (*engine.Batch, Stats, error) {
	var stats Stats
	var ectx *engine.Ctx
	if e.pool != nil {
		ectx = engine.NewCtx(e.pool)
	}
	out, err := e.execNode(ectx, p.Root, &stats)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, stats, nil
}

// pipelineable reports whether the operator can process a vector stream
// without seeing the full input.
func pipelineable(op plan.Operator) bool {
	switch op.Class() {
	case cost.Selection, cost.Compute, cost.Materialize:
		// Scans are selection-class sources; Filter/Compute/Project are
		// streaming unary operators.
		return true
	default:
		return false
	}
}

// execNode materializes the output of node n: breakers run as bulk kernels
// over materialized children; unary streaming chains run vector-at-a-time.
func (e *Engine) execNode(ectx *engine.Ctx, n *plan.Node, stats *Stats) (*engine.Batch, error) {
	if pipelineable(n.Op) {
		return e.execPipeline(ectx, n, stats)
	}
	inputs := make([]*engine.Batch, len(n.Children))
	for i, c := range n.Children {
		in, err := e.execNode(ectx, c, stats)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	out, err := n.Op.Execute(ectx, e.cat, inputs)
	if err != nil {
		return nil, fmt.Errorf("vecengine: %s: %w", n.Op.Name(), err)
	}
	stats.MaterializedBytes += out.Bytes()
	return out, nil
}

// execPipeline walks down the chain of streaming unary operators below n,
// materializes the chain's source, and streams it through the chain in
// vectors, materializing only the final output (n is consumed by a breaker
// or is the root). With a pool set, vectors are processed concurrently into
// indexed slots and stitched back in vector order, so the output batch and
// the statistics match the serial execution exactly.
func (e *Engine) execPipeline(ectx *engine.Ctx, n *plan.Node, stats *Stats) (*engine.Batch, error) {
	// Collect the unary streaming chain bottom-up: source first.
	var chain []*plan.Node
	cur := n
	for {
		chain = append([]*plan.Node{cur}, chain...)
		if len(cur.Children) != 1 || !pipelineable(cur.Children[0].Op) {
			break
		}
		cur = cur.Children[0]
	}
	source := chain[0]
	// The source's input: a scan reads the catalog; a streaming operator
	// over a breaker consumes the breaker's materialized output.
	var input *engine.Batch
	switch {
	case len(source.Children) == 0:
		// Leaf scan: materialize per-vector below.
		input = nil
	case len(source.Children) == 1:
		breakerOut, err := e.execNode(ectx, source.Children[0], stats)
		if err != nil {
			return nil, err
		}
		input = breakerOut
	default:
		return nil, fmt.Errorf("vecengine: streaming operator %s with %d children", source.Op.Name(), len(source.Children))
	}

	stats.Pipelines++

	// Lay out the vector chunks up front (an empty source still emits one
	// empty vector, so downstream operators see the schema).
	type chunk struct{ lo, hi int }
	var chunks []chunk
	var makeVec func(c chunk) (*engine.Batch, error)
	var scanSaves bool // charge SavedBytes for the scan's own vectors

	if input == nil {
		scan, ok := source.Op.(*plan.ScanOp)
		if !ok {
			return nil, fmt.Errorf("vecengine: leaf %s is not a scan", source.Op.Name())
		}
		t, err := e.cat.Table(scan.Table)
		if err != nil {
			return nil, err
		}
		// Evaluate the scan predicate once over the full table (morsel-wise
		// on the pool via the filter kernel), then chunk the positions.
		pos, err := scan.FilterChunk(ectx, e.cat, 0, t.NumRows())
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < pos.Len() || lo == 0; lo += e.vectorSize {
			chunks = append(chunks, chunk{lo, min(lo+e.vectorSize, pos.Len())})
			if pos.Len() == 0 {
				break
			}
		}
		scanSaves = len(chain) > 1
		makeVec = func(c chunk) (*engine.Batch, error) {
			return scan.MaterializeResult(nil, e.cat, pos.Slice(c.lo, c.hi))
		}
	} else {
		for lo := 0; lo < input.NumRows() || lo == 0; lo += e.vectorSize {
			hi := lo + e.vectorSize
			if hi > input.NumRows() {
				hi = input.NumRows()
			}
			chunks = append(chunks, chunk{lo, hi})
			if input.NumRows() == 0 {
				break
			}
		}
		makeVec = func(c chunk) (*engine.Batch, error) {
			return sliceBatch(input, c.lo, c.hi), nil
		}
	}

	// Per-chunk results and stat deltas, filled independently and folded in
	// chunk order below. Stage kernels run serially (nil ctx): one vector is
	// below the morsel grain, and the pool's workers are already busy with
	// whole vectors.
	type delta struct {
		piece   *engine.Batch
		vectors int64
		saved   int64
	}
	deltas := make([]delta, len(chunks))
	err := e.pool.ForEachN(len(chunks), func(ci int) error {
		vec, err := makeVec(chunks[ci])
		if err != nil {
			return err
		}
		d := &deltas[ci]
		if scanSaves {
			d.saved += vec.Bytes()
		}
		curBatch := vec
		for _, stage := range chain {
			if len(stage.Children) == 0 {
				// Source scan already produced the vector; skip.
				continue
			}
			out, err := stage.Op.Execute(nil, e.cat, []*engine.Batch{curBatch})
			if err != nil {
				return fmt.Errorf("vecengine: %s: %w", stage.Op.Name(), err)
			}
			if stage != chain[len(chain)-1] {
				d.saved += out.Bytes()
			}
			curBatch = out
		}
		d.vectors++
		d.piece = curBatch
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fold deltas and stitch pieces in chunk order: the first vector is
	// always kept (it carries the schema), later ones only when non-empty —
	// the same rule the serial loop applied incrementally.
	var pieces []*engine.Batch
	for ci := range deltas {
		stats.Vectors += deltas[ci].vectors
		stats.SavedBytes += deltas[ci].saved
		if deltas[ci].piece != nil && (ci == 0 || deltas[ci].piece.NumRows() > 0) {
			pieces = append(pieces, deltas[ci].piece)
		}
	}
	out, err := concatBatches(pieces)
	if err != nil {
		return nil, err
	}
	stats.MaterializedBytes += out.Bytes()
	return out, nil
}

// sliceBatch returns rows [lo, hi) of a batch.
func sliceBatch(b *engine.Batch, lo, hi int) *engine.Batch {
	return b.Gather(column.Range(lo, hi))
}

// concatBatches appends the pieces of a pipeline into one batch.
func concatBatches(pieces []*engine.Batch) (*engine.Batch, error) {
	if len(pieces) == 0 {
		return engine.NewBatch()
	}
	first := pieces[0]
	cols := make([]column.Column, first.NumColumns())
	for ci, proto := range first.Columns() {
		switch proto.(type) {
		case *column.Int64Column:
			var vals []int64
			for _, p := range pieces {
				vals = append(vals, p.Columns()[ci].(*column.Int64Column).Values...)
			}
			cols[ci] = column.NewInt64(proto.Name(), vals)
		case *column.Float64Column:
			var vals []float64
			for _, p := range pieces {
				vals = append(vals, p.Columns()[ci].(*column.Float64Column).Values...)
			}
			cols[ci] = column.NewFloat64(proto.Name(), vals)
		case *column.DateColumn:
			var vals []int32
			for _, p := range pieces {
				vals = append(vals, p.Columns()[ci].(*column.DateColumn).Values...)
			}
			cols[ci] = column.NewDate(proto.Name(), vals)
		case *column.StringColumn:
			// Re-encode through strings: vector dictionaries may differ.
			var vals []string
			for _, p := range pieces {
				sc := p.Columns()[ci].(*column.StringColumn)
				for i := 0; i < sc.Len(); i++ {
					vals = append(vals, sc.Value(i))
				}
			}
			cols[ci] = column.NewString(proto.Name(), vals)
		case *column.CompressedInt64Column:
			// Late materialization keeps scan vectors compressed; the
			// pipeline output re-packs the concatenation so the encoding
			// survives the breaker boundary.
			cols[ci] = column.CompressInt64(concatInt64(proto.Name(), pieces, ci))
		case *column.CompressedDateColumn:
			var vals []int32
			for _, p := range pieces {
				vals = append(vals, column.Materialized(p.Columns()[ci]).(*column.DateColumn).Values...)
			}
			cols[ci] = column.CompressDate(column.NewDate(proto.Name(), vals))
		default:
			return nil, fmt.Errorf("vecengine: cannot concatenate column type %T", proto)
		}
	}
	return engine.NewBatch(cols...)
}

// concatInt64 flattens the ci-th column of every piece into one plain
// int64 column, decoding whatever encoding each piece carries.
func concatInt64(name string, pieces []*engine.Batch, ci int) *column.Int64Column {
	var vals []int64
	for _, p := range pieces {
		vals = append(vals, column.Materialized(p.Columns()[ci]).(*column.Int64Column).Values...)
	}
	return column.NewInt64(name, vals)
}

// EstimateTime predicts the virtual execution time of the vectorized run on
// a processor: per-pipeline work counts pipeline inputs and breaker outputs
// (the saved unary intermediates are not charged), plus a per-vector
// dispatch cost. This is the quantity Figures 22/23 plot for the comparator.
func EstimateTime(p *plan.Plan, stats Stats, params *cost.Params, kind cost.ProcKind, cat *table.Catalog) time.Duration {
	var total time.Duration
	for _, n := range p.Nodes() {
		var in int64
		for _, id := range n.Op.BaseColumns() {
			if b, err := cat.ColumnBytes(id); err == nil {
				in += b
			}
		}
		if pipelineable(n.Op) {
			// Streaming stage: charge reading its input only; the write of
			// its output is charged by the consuming breaker (or root).
			total += time.Duration(float64(in) / params.Throughput[kind][n.Op.Class()] * float64(time.Second))
			continue
		}
		total += params.OpDuration(n.Op.Class(), kind, cost.Work(n.EstInBytes, n.EstOutBytes))
	}
	// Vector dispatch overhead: a fraction of a kernel launch per vector.
	dispatch := params.Startup[kind] / 8
	total += time.Duration(stats.Vectors) * dispatch
	total += time.Duration(float64(stats.MaterializedBytes) / params.Throughput[kind][cost.Materialize] * float64(time.Second))
	return total
}
