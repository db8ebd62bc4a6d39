// Package engine implements the operator kernels of the database: selection,
// hash join, group-by aggregation, sort, top-n, and derived-column
// computation. The engine follows CoGaDB's operator-at-a-time bulk model:
// every operator consumes fully materialized inputs and materializes its
// complete output.
//
// The same kernels serve both the CPU and the simulated co-processor — query
// results are always exact; the simulator only assigns them different costs
// and a different memory budget.
package engine

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/table"
)

// Batch is a fully materialized intermediate result: a set of equally long
// columns addressable by name. Batches are immutable once built.
type Batch struct {
	cols   []column.Column
	byName map[string]int
}

// NewBatch builds a batch from columns; duplicate names or ragged lengths
// are an error.
func NewBatch(cols ...column.Column) (*Batch, error) {
	b := &Batch{cols: cols, byName: make(map[string]int, len(cols))}
	n := -1
	for i, c := range cols {
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("batch: column %s has %d rows, want %d", c.Name(), c.Len(), n)
		}
		if _, dup := b.byName[c.Name()]; dup {
			return nil, fmt.Errorf("batch: duplicate column %s", c.Name())
		}
		b.byName[c.Name()] = i
	}
	return b, nil
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

// NumRows returns the row count (0 for an empty batch).
func (b *Batch) NumRows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// NumColumns returns the number of columns.
func (b *Batch) NumColumns() int { return len(b.cols) }

// Column returns the named column.
func (b *Batch) Column(name string) (column.Column, error) {
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
		names[i] = c.Name()
	}
	return names
}

// Columns returns the columns in order.
func (b *Batch) Columns() []column.Column { return b.cols }

// Bytes returns the materialized footprint of the batch.
func (b *Batch) Bytes() int64 {
	var n int64
	for _, c := range b.cols {
		n += c.Bytes()
	}
	return n
}

// Project returns a batch holding only the named columns, in the given order.
func (b *Batch) Project(names ...string) (*Batch, error) {
	cols := make([]column.Column, len(names))
	for i, n := range names {
		c, err := b.Column(n)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return NewBatch(cols...)
}

// Extend returns a new batch with col appended.
func (b *Batch) Extend(col column.Column) (*Batch, error) {
	cols := make([]column.Column, 0, len(b.cols)+1)
	cols = append(cols, b.cols...)
	cols = append(cols, col)
	return NewBatch(cols...)
}

// Gather materializes the addressed rows of every column into a new batch.
func (b *Batch) Gather(pos column.PosList) *Batch { return b.GatherCtx(nil, pos) }

// Filter evaluates the predicate against the batch's columns and returns the
// qualifying positions: FilterRange over every row.
func Filter(ctx *Ctx, b *Batch, pred expr.Predicate) (column.PosList, error) {
	return FilterRange(ctx, b, pred, 0, b.NumRows())
}

// Select evaluates the predicate and materializes the qualifying rows.
func Select(ctx *Ctx, b *Batch, pred expr.Predicate) (*Batch, error) {
	pos, err := Filter(ctx, b, pred)
	if err != nil {
		return nil, err
	}
	return b.GatherCtx(ctx, pos), nil
}
