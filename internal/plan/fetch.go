package plan

import (
	"fmt"
	"math"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/table"
)

// FetchOp is late materialization: it gathers base-table columns at the row
// positions its child produced (a "<table>.rowid" column, as emitted by a
// projection-free Scan). This is the final materialization step of a
// positional selection pipeline — the "select *" of the paper's
// micro-benchmarks — and reads base columns, so it participates in caching
// and data-driven placement like a scan.
type FetchOp struct {
	Table string
	Cols  []string
}

// Fetch builds a late-materialization node over child.
func Fetch(child *Node, tbl string, cols ...string) *Node {
	return NewNode(&FetchOp{Table: tbl, Cols: cols}, child)
}

// Class returns cost.Materialize.
func (o *FetchOp) Class() cost.OpClass { return cost.Materialize }

// Name describes the fetch.
func (o *FetchOp) Name() string { return fmt.Sprintf("fetch(%s%v)", o.Table, o.Cols) }

// BaseColumns returns the gathered base columns.
func (o *FetchOp) BaseColumns() []table.ColumnID {
	out := make([]table.ColumnID, len(o.Cols))
	for i, c := range o.Cols {
		out[i] = table.MakeColumnID(o.Table, c)
	}
	return out
}

// Execute returns the base columns at the child's row ids, which may come in
// any order; an ascending run of them — a fetch of every row — is the
// zero-copy range.
func (o *FetchOp) Execute(ectx *engine.Ctx, cat *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 1 {
		return nil, fmt.Errorf("fetch: want 1 input, got %d", len(inputs))
	}
	t, err := cat.Table(o.Table)
	if err != nil {
		return nil, err
	}
	pos, err := rowPositions(o, inputs[0], o.Table, int64(t.NumRows()), false)
	if err != nil {
		return nil, err
	}
	return gatherBase(ectx, t, o.Cols, pos)
}

// RowIDError is a "<table>.rowid" input an operator cannot take: a row id
// outside the table (or a position), or one not above its predecessor where
// the operator needs its input strictly ascending.
type RowIDError struct {
	Op     string // the operator's Name
	RowID  int64
	Reason string
}

func (e *RowIDError) Error() string { return fmt.Sprintf("%s: rowid %d %s", e.Op, e.RowID, e.Reason) }

// rowPositions narrows the "<tbl>.rowid" column of in to positions for op,
// every one checked to lie in [0, limit) and, with mustAscend, above the one
// before it. What does ascend strictly is wrapped as such, so a run of row
// ids becomes a range.
func rowPositions(op Operator, in *engine.Batch, tbl string, limit int64, mustAscend bool) (column.PosList, error) {
	c, err := in.Column(tbl + ".rowid")
	if err != nil {
		return column.PosList{}, fmt.Errorf("%s: %w", op.Name(), err)
	}
	rids, ok := c.(*column.Int64Column)
	if !ok {
		return column.PosList{}, fmt.Errorf("%s: rowid column has type %T", op.Name(), c)
	}
	pos := make([]int32, len(rids.Values))
	ascends, prev := true, int64(-1)
	for i, r := range rids.Values {
		if r < 0 || r >= limit {
			return column.PosList{}, &RowIDError{op.Name(), r, fmt.Sprintf("out of range [0,%d)", limit)}
		}
		if r <= prev {
			if mustAscend {
				return column.PosList{}, &RowIDError{op.Name(), r, "does not ascend"}
			}
			ascends = false
		}
		pos[i], prev = int32(r), r
	}
	if ascends {
		return column.Ascending(pos), nil
	}
	return column.Positions(pos), nil
}

// IntersectOp intersects two sorted "<table>.rowid" position columns — the
// conjunction operator of a positional selection pipeline.
type IntersectOp struct {
	Table string
}

// Intersect builds a rowid-intersection node over two children.
func Intersect(left, right *Node, tbl string) *Node {
	return NewNode(&IntersectOp{Table: tbl}, left, right)
}

// Class returns cost.Selection.
func (o *IntersectOp) Class() cost.OpClass { return cost.Selection }

// Name describes the intersection.
func (o *IntersectOp) Name() string { return fmt.Sprintf("intersect(%s)", o.Table) }

// BaseColumns returns nil.
func (o *IntersectOp) BaseColumns() []table.ColumnID { return nil }

// Execute intersects the two rowid lists, each of which must ascend strictly
// and fit a position.
func (o *IntersectOp) Execute(_ *engine.Ctx, _ *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	if len(inputs) != 2 {
		return nil, fmt.Errorf("intersect: want 2 inputs, got %d", len(inputs))
	}
	var lists [2]column.PosList
	for i, in := range inputs {
		var err error
		if lists[i], err = rowPositions(o, in, o.Table, math.MaxInt32+1, true); err != nil {
			return nil, err
		}
	}
	return engine.NewBatch(rowIDs(o.Table, lists[0].Intersect(lists[1])))
}

// rowIDs returns the "<table>.rowid" column listing pos.
func rowIDs(tbl string, pos column.PosList) *column.Int64Column {
	ids := make([]int64, 0, pos.Len())
	for _, p := range pos.Explicit() {
		ids = append(ids, int64(p))
	}
	return column.NewInt64(tbl+".rowid", ids)
}
