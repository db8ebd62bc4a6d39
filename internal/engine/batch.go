// Package engine implements the operator kernels of the database: selection,
// hash join, group-by aggregation, sort, top-n, and derived-column
// computation. The engine follows CoGaDB's operator-at-a-time bulk model:
// every operator consumes the complete output of its inputs and produces its
// own complete output, of which the rows, the names and the footprint are
// settled when it returns. The copy of a column an operator only carries from
// its input to its output waits for the operator that reads the column
// (Batch; DESIGN.md §22).
//
// The same kernels serve both the CPU and the simulated co-processor — query
// results are always exact; the simulator only assigns them different costs
// and a different memory budget.
package engine

import (
	"fmt"
	"sync"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/table"
)

// Batch is an intermediate result: a row count and columns of that length
// addressable by name. A column is held, or pending — a gather that waits
// for its first reader (batchCol; DESIGN.md §22), so that a column an
// operator only hands on is never copied for it. What a batch answers — rows,
// names, footprint, every value — never changes; only when a pending column
// is copied does.
type Batch struct {
	rows   int
	cols   []*batchCol
	byName map[string]int
}

// batchCol is one column of a batch, shared by every batch that hands it on
// (Project, Extend). A pending one is the rows *pos of the held column src;
// whoever asks for it first gathers it, on their own context, and the source
// and the list are let go. The columns of a batch gathered together share
// pos.
type batchCol struct {
	name string
	// pending is set for good when the column is built as a gather, and its
	// footprint is then width bytes a row plus extra (a dictionary) whether
	// the gather has been done or not.
	pending      bool
	width, extra int64

	mu  sync.Mutex // guards the three below of a pending column
	col column.Column
	src column.Column
	pos *column.PosList
}

// state returns the column if it is held by now, else the gather it stands for.
func (c *batchCol) state() (col, src column.Column, pos *column.PosList) {
	if c.pending {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.col, c.src, c.pos
}

// get returns the column, gathering it on ctx if nobody has yet.
func (c *batchCol) get(ctx *Ctx) column.Column {
	if !c.pending {
		return c.col
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.col == nil {
		c.col = Gather(ctx, c.src, *c.pos)
		c.src, c.pos = nil, nil
	}
	return c.col
}

// footprint reports what a gather of c weighs, width bytes a row plus extra,
// where that does not depend on the rows gathered: the four plain layouts.
// A bit-packed gather re-encodes, so only doing it tells.
func footprint(c column.Column) (width, extra int64, ok bool) {
	switch c.(type) {
	case *column.Int64Column, *column.Float64Column, *column.DateColumn, *column.StringColumn:
		width = int64(c.Type().Width())
		return width, c.Bytes() - width*int64(c.Len()), true
	}
	return 0, 0, false
}

// newBatch indexes cols, which all have rows rows, by name.
func newBatch(rows int, cols []*batchCol) (*Batch, error) {
	b := &Batch{rows: rows, cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := b.byName[c.name]; dup {
			return nil, fmt.Errorf("batch: duplicate column %s", c.name)
		}
		b.byName[c.name] = i
	}
	return b, nil
}

// NewBatch builds a batch from columns; duplicate names or ragged lengths
// are an error.
func NewBatch(cols ...column.Column) (*Batch, error) {
	rows := 0
	held := make([]batchCol, len(cols))
	out := make([]*batchCol, len(cols))
	for i, c := range cols {
		if i == 0 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("batch: column %s has %d rows, want %d", c.Name(), c.Len(), rows)
		}
		held[i].name, held[i].col = c.Name(), c
		out[i] = &held[i]
	}
	return newBatch(rows, out)
}

// MustNewBatch is NewBatch but panics on error.
func MustNewBatch(cols ...column.Column) *Batch {
	b, err := NewBatch(cols...)
	if err != nil {
		panic(err)
	}
	return b
}

// FromTable wraps all columns of a table in a batch (no copying).
func FromTable(t *table.Table) *Batch {
	return MustNewBatch(t.Columns()...)
}

// NumRows returns the row count, which a batch has even without a column:
// a join that keeps none still counts its matches.
func (b *Batch) NumRows() int { return b.rows }

// NumColumns returns the number of columns.
func (b *Batch) NumColumns() int { return len(b.cols) }

// Column returns the named column, gathered serially if it was pending; the
// kernels ask through column, on their context.
func (b *Batch) Column(name string) (column.Column, error) { return b.column(nil, name) }

func (b *Batch) column(ctx *Ctx, name string) (column.Column, error) {
	c, err := b.find(name)
	if err != nil {
		return nil, err
	}
	return c.get(ctx), nil
}

// find returns the named column as the batch has it, held or pending.
func (b *Batch) find(name string) (*batchCol, error) {
	i, ok := b.byName[name]
	if !ok {
		return nil, fmt.Errorf("batch: no column %q (have %v)", name, b.ColumnNames())
	}
	return b.cols[i], nil
}

// MustColumn is Column but panics on error.
func (b *Batch) MustColumn(name string) column.Column {
	c, err := b.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Has reports whether the batch holds a column with the given name.
func (b *Batch) Has(name string) bool {
	_, ok := b.byName[name]
	return ok
}

// ColumnNames returns the column names in order.
func (b *Batch) ColumnNames() []string {
	names := make([]string, len(b.cols))
	for i, c := range b.cols {
		names[i] = c.name
	}
	return names
}

// Columns returns the columns in order, every pending one gathered serially.
func (b *Batch) Columns() []column.Column { return b.Force(nil) }

// Force gathers every column still pending, on ctx, and returns the columns
// in order. The executor forces a query's result, which then refers to no
// intermediate.
func (b *Batch) Force(ctx *Ctx) []column.Column {
	cols := make([]column.Column, len(b.cols))
	for i, c := range b.cols {
		cols[i] = c.get(ctx)
	}
	return cols
}

// Bytes returns the materialized footprint of the batch: what its columns
// weigh once every one is held, asked of the held ones and computed for the
// pending ones, which it leaves pending.
func (b *Batch) Bytes() int64 {
	var n int64
	for _, c := range b.cols {
		if c.pending {
			n += int64(b.rows)*c.width + c.extra
		} else {
			n += c.col.Bytes()
		}
	}
	return n
}

// Project returns a batch of the named columns, in the given order, held or
// pending as they are.
func (b *Batch) Project(names ...string) (*Batch, error) {
	cols := make([]*batchCol, len(names))
	for i, n := range names {
		c, err := b.find(n)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return newBatch(b.rows, cols)
}

// Extend returns a new batch with col appended.
func (b *Batch) Extend(col column.Column) (*Batch, error) {
	if col.Len() != b.rows {
		return nil, fmt.Errorf("batch: column %s has %d rows, want %d", col.Name(), col.Len(), b.rows)
	}
	cols := make([]*batchCol, 0, len(b.cols)+1)
	cols = append(cols, b.cols...)
	return newBatch(b.rows, append(cols, &batchCol{name: col.Name(), col: col}))
}

// Gather is GatherCtx with what has to be copied at once copied serially.
func (b *Batch) Gather(pos column.PosList) *Batch { return b.GatherCtx(nil, pos) }

// Filter evaluates the predicate against the batch's columns and returns the
// qualifying positions: FilterRange over every row. The columns the predicate
// names are gathered first, on ctx, where they are pending, so that the
// morsels do not queue behind a serial gather by the first of them; one it
// names in vain is FilterRange's to report.
func Filter(ctx *Ctx, b *Batch, pred expr.Predicate) (column.PosList, error) {
	for _, name := range pred.Columns() {
		if i, ok := b.byName[name]; ok {
			b.cols[i].get(ctx)
		}
	}
	return FilterRange(ctx, b, pred, 0, b.NumRows())
}

// Select evaluates the predicate and returns the qualifying rows.
func Select(ctx *Ctx, b *Batch, pred expr.Predicate) (*Batch, error) {
	pos, err := Filter(ctx, b, pred)
	if err != nil {
		return nil, err
	}
	return b.GatherCtx(ctx, pos), nil
}
