package plan

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/expr"
	"robustdb/internal/table"
)

// ChunkInfo describes the chunkable shape of a leaf operator for the
// pipelined executor: how many rows it scans, how many bytes per row must
// travel host→device, and how many bytes one selected output row costs
// device→host.
type ChunkInfo struct {
	// Rows is the total row count of the scanned table.
	Rows int
	// InBytes is the total input volume (every base column the operator
	// reads, in its stored encoding).
	InBytes int64
	// OutRowBytes is the estimated output bytes per *selected* row.
	OutRowBytes float64
}

// InRowBytes returns the input bytes per scanned row.
func (c ChunkInfo) InRowBytes() float64 {
	if c.Rows <= 0 {
		return 0
	}
	return float64(c.InBytes) / float64(c.Rows)
}

// ChunkableOp is an operator the pipelined executor can split into row-range
// chunks. The contract is exactness: concatenating FilterChunk results over a
// partition of [0, Rows) in range order and materializing once must be
// bit-identical to Execute. Only leaf operators (no batch inputs) implement
// it today.
type ChunkableOp interface {
	Operator
	// ChunkInfo reports the chunkable shape, or an error when the catalog
	// cannot resolve the operator's table.
	ChunkInfo(cat *table.Catalog) (ChunkInfo, error)
	// FilterChunk evaluates the operator's selection over rows [lo, hi) and
	// returns the qualifying positions as global row numbers, in ascending
	// order.
	FilterChunk(ectx *engine.Ctx, cat *table.Catalog, lo, hi int) (column.PosList, error)
	// MaterializeResult builds the operator's output batch from the stitched
	// position list.
	MaterializeResult(ectx *engine.Ctx, cat *table.Catalog, pos column.PosList) (*engine.Batch, error)
}

// ScanOp filters a base table and materializes the requested columns.
// With a nil predicate it materializes the columns unfiltered; with an empty
// column list it emits a single "<table>.rowid" position column (the shape of
// the paper's selection micro-benchmarks, which measure pure filtering).
type ScanOp struct {
	Table string
	Cols  []string
	Pred  expr.Predicate
	base  []table.ColumnID // BaseColumns, listed once by Scan
}

// Scan builds a leaf scan node.
func Scan(tbl string, cols []string, pred expr.Predicate) *Node {
	o := &ScanOp{Table: tbl, Cols: cols, Pred: pred}
	seen := make(map[string]bool)
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			o.base = append(o.base, table.MakeColumnID(tbl, c))
		}
	}
	if pred != nil {
		for _, c := range pred.Columns() {
			add(c)
		}
	}
	for _, c := range cols {
		add(c)
	}
	return NewNode(o)
}

// Class returns cost.Selection.
func (o *ScanOp) Class() cost.OpClass { return cost.Selection }

// Name describes the scan.
func (o *ScanOp) Name() string {
	if o.Pred != nil {
		return fmt.Sprintf("scan(%s where %s)", o.Table, o.Pred)
	}
	return fmt.Sprintf("scan(%s)", o.Table)
}

// BaseColumns returns the filter columns and the materialized columns, in
// that order and each once: a list shared by every caller, not to be
// written to.
func (o *ScanOp) BaseColumns() []table.ColumnID { return o.base }

// Execute runs the scan on real data: one full-range chunk, stitched and
// materialized — the serial special case of the chunked execution path, which
// makes chunked and serial scans bit-identical by construction.
func (o *ScanOp) Execute(ectx *engine.Ctx, cat *table.Catalog, _ []*engine.Batch) (*engine.Batch, error) {
	t, err := cat.Table(o.Table)
	if err != nil {
		return nil, err
	}
	pos, err := o.FilterChunk(ectx, cat, 0, t.NumRows())
	if err != nil {
		return nil, err
	}
	return o.MaterializeResult(ectx, cat, pos)
}

// ChunkInfo reports the scan's chunkable shape for the pipelined executor.
func (o *ScanOp) ChunkInfo(cat *table.Catalog) (ChunkInfo, error) {
	t, err := cat.Table(o.Table)
	if err != nil {
		return ChunkInfo{}, err
	}
	info := ChunkInfo{Rows: t.NumRows()}
	for _, id := range o.BaseColumns() {
		b, err := cat.ColumnBytes(id)
		if err != nil {
			return ChunkInfo{}, err
		}
		info.InBytes += b
	}
	if len(o.Cols) == 0 {
		info.OutRowBytes = 8 // the rowid column
	} else if info.Rows > 0 {
		for _, name := range o.Cols {
			c, err := t.Column(name)
			if err != nil {
				return ChunkInfo{}, err
			}
			info.OutRowBytes += float64(c.Bytes()) / float64(info.Rows)
		}
	}
	return info, nil
}

// FilterChunk evaluates the scan's predicate over rows [lo, hi), returning
// global positions. With a nil predicate every row in the range qualifies.
func (o *ScanOp) FilterChunk(ectx *engine.Ctx, cat *table.Catalog, lo, hi int) (column.PosList, error) {
	t, err := cat.Table(o.Table)
	if err != nil {
		return column.PosList{}, err
	}
	if o.Pred == nil {
		return column.Range(lo, hi), nil
	}
	// The filter kernel reads the table's columns in their stored encoding:
	// compressed columns are scanned in the code domain (block skipping)
	// over the chunk's rows without ever materializing.
	return engine.FilterRange(ectx, t, o.Pred, lo, hi)
}

// MaterializeResult returns the requested columns at the stitched position
// list (or emits the rowid column for a bare selection).
func (o *ScanOp) MaterializeResult(ectx *engine.Ctx, cat *table.Catalog, pos column.PosList) (*engine.Batch, error) {
	t, err := cat.Table(o.Table)
	if err != nil {
		return nil, err
	}
	if len(o.Cols) == 0 {
		return engine.NewBatch(rowIDs(o.Table, pos))
	}
	return gatherBase(ectx, t, o.Cols, pos)
}

// gatherBase is the rows pos of the named columns of t as a batch.
func gatherBase(ectx *engine.Ctx, t *table.Table, names []string, pos column.PosList) (*engine.Batch, error) {
	cols := make([]column.Column, len(names))
	for i, name := range names {
		var err error
		if cols[i], err = t.Column(name); err != nil {
			return nil, err
		}
	}
	b, err := engine.NewBatch(cols...)
	if err != nil {
		return nil, err
	}
	return b.GatherCtx(ectx, pos), nil
}

// FilterOp filters an intermediate batch with a predicate.
type FilterOp struct {
	Pred expr.Predicate
}

// Filter builds a selection node over child.
func Filter(child *Node, pred expr.Predicate) *Node {
	return NewNode(&FilterOp{Pred: pred}, child)
}

// Class returns cost.Selection.
func (o *FilterOp) Class() cost.OpClass { return cost.Selection }

// Name describes the filter.
func (o *FilterOp) Name() string { return fmt.Sprintf("filter(%s)", o.Pred) }

// BaseColumns returns nil: filters read intermediates only.
func (o *FilterOp) BaseColumns() []table.ColumnID { return nil }

// Execute runs the filter.
func (o *FilterOp) Execute(ectx *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("filter: want 1 input, got %d", len(inputs))
	}
	return engine.Select(ectx, inputs[0], o.Pred)
}

// ProjectOp keeps only the named columns of its input.
type ProjectOp struct {
	Cols []string
}

// Project builds a projection node over child.
func Project(child *Node, cols ...string) *Node {
	return NewNode(&ProjectOp{Cols: cols}, child)
}

// Class returns cost.Materialize.
func (o *ProjectOp) Class() cost.OpClass { return cost.Materialize }

// Name describes the projection.
func (o *ProjectOp) Name() string { return fmt.Sprintf("project%v", o.Cols) }

// BaseColumns returns nil.
func (o *ProjectOp) BaseColumns() []table.ColumnID { return nil }

// Execute runs the projection.
func (o *ProjectOp) Execute(_ *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("project: want 1 input, got %d", len(inputs))
	}
	return inputs[0].Project(o.Cols...)
}

// ComputeOp appends a derived column "As = Left op Right" to its input.
// Exactly one of Right (column) or Const/ConstLeft forms is used.
type ComputeOp struct {
	As    string
	Left  string
	Op    engine.BinOp
	Right string // column form when non-empty

	Const     float64 // constant form when Right == ""
	ConstLeft bool    // true: As = Const op Left; false: As = Left op Const
}

// Compute builds "as = left op right" over child (column × column).
func Compute(child *Node, as, left string, op engine.BinOp, right string) *Node {
	return NewNode(&ComputeOp{As: as, Left: left, Op: op, Right: right}, child)
}

// ComputeConst builds "as = left op k" over child.
func ComputeConst(child *Node, as, left string, op engine.BinOp, k float64) *Node {
	return NewNode(&ComputeOp{As: as, Left: left, Op: op, Const: k}, child)
}

// ComputeConstLeft builds "as = k op left" over child (e.g. 1 - discount).
func ComputeConstLeft(child *Node, as string, k float64, op engine.BinOp, left string) *Node {
	return NewNode(&ComputeOp{As: as, Left: left, Op: op, Const: k, ConstLeft: true}, child)
}

// Class returns cost.Compute.
func (o *ComputeOp) Class() cost.OpClass { return cost.Compute }

// Name describes the computation.
func (o *ComputeOp) Name() string {
	if o.Right != "" {
		return fmt.Sprintf("compute(%s=%s%s%s)", o.As, o.Left, o.Op, o.Right)
	}
	if o.ConstLeft {
		return fmt.Sprintf("compute(%s=%v%s%s)", o.As, o.Const, o.Op, o.Left)
	}
	return fmt.Sprintf("compute(%s=%s%s%v)", o.As, o.Left, o.Op, o.Const)
}

// BaseColumns returns nil.
func (o *ComputeOp) BaseColumns() []table.ColumnID { return nil }

// Execute runs the computation.
func (o *ComputeOp) Execute(ectx *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("compute: want 1 input, got %d", len(inputs))
	}
	in := inputs[0]
	var (
		col column.Column
		err error
	)
	switch {
	case o.Right != "":
		col, err = engine.Compute(ectx, in, o.As, o.Left, o.Op, o.Right)
	case o.ConstLeft:
		col, err = engine.ComputeConstLeft(ectx, in, o.As, o.Const, o.Op, o.Left)
	default:
		col, err = engine.ComputeConst(ectx, in, o.As, o.Left, o.Op, o.Const)
	}
	if err != nil {
		return nil, err
	}
	return in.Extend(col)
}

// JoinOp hash-joins its two children: build on the left (child 0), probe
// with the right (child 1), keeping LeftCols and RightCols.
type JoinOp struct {
	LeftKey, RightKey   string
	LeftCols, RightCols []string
}

// Join builds a hash-join node with left as the build side.
func Join(left, right *Node, leftKey, rightKey string, leftCols, rightCols []string) *Node {
	return NewNode(&JoinOp{
		LeftKey: leftKey, RightKey: rightKey,
		LeftCols: leftCols, RightCols: rightCols,
	}, left, right)
}

// Class returns cost.Join.
func (o *JoinOp) Class() cost.OpClass { return cost.Join }

// Name describes the join.
func (o *JoinOp) Name() string { return fmt.Sprintf("join(%s=%s)", o.LeftKey, o.RightKey) }

// BaseColumns returns nil: joins read intermediates only.
func (o *JoinOp) BaseColumns() []table.ColumnID { return nil }

// Execute runs the join.
func (o *JoinOp) Execute(ectx *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("join: want 2 inputs, got %d", len(inputs))
	}
	return engine.Join(ectx, inputs[0], o.LeftKey, o.LeftCols, inputs[1], o.RightKey, o.RightCols)
}

// AggregateOp groups by Keys and computes Aggs.
type AggregateOp struct {
	Keys []string
	Aggs []engine.AggSpec
}

// Aggregate builds a group-by node over child.
func Aggregate(child *Node, keys []string, aggs []engine.AggSpec) *Node {
	return NewNode(&AggregateOp{Keys: keys, Aggs: aggs}, child)
}

// Class returns cost.Aggregation.
func (o *AggregateOp) Class() cost.OpClass { return cost.Aggregation }

// Name describes the aggregation.
func (o *AggregateOp) Name() string { return fmt.Sprintf("aggregate(by %v)", o.Keys) }

// BaseColumns returns nil.
func (o *AggregateOp) BaseColumns() []table.ColumnID { return nil }

// Execute runs the aggregation.
func (o *AggregateOp) Execute(ectx *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("aggregate: want 1 input, got %d", len(inputs))
	}
	return engine.GroupBy(ectx, inputs[0], o.Keys, o.Aggs)
}

// SortOp orders its input; Limit > 0 keeps the first Limit rows.
type SortOp struct {
	Keys  []engine.SortKey
	Limit int
}

// Sort builds an order-by node over child.
func Sort(child *Node, keys ...engine.SortKey) *Node {
	return NewNode(&SortOp{Keys: keys}, child)
}

// TopN builds an order-by-limit node over child.
func TopN(child *Node, n int, keys ...engine.SortKey) *Node {
	return NewNode(&SortOp{Keys: keys, Limit: n}, child)
}

// Class returns cost.Sort.
func (o *SortOp) Class() cost.OpClass { return cost.Sort }

// Name describes the sort.
func (o *SortOp) Name() string {
	if o.Limit > 0 {
		return fmt.Sprintf("top%d(%v)", o.Limit, o.Keys)
	}
	return fmt.Sprintf("sort(%v)", o.Keys)
}

// BaseColumns returns nil.
func (o *SortOp) BaseColumns() []table.ColumnID { return nil }

// Execute runs the sort.
func (o *SortOp) Execute(_ *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("sort: want 1 input, got %d", len(inputs))
	}
	if o.Limit > 0 {
		return engine.TopN(inputs[0], o.Limit, o.Keys...)
	}
	return engine.OrderBy(inputs[0], o.Keys...)
}
