package engine

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// sliceColumn returns a zero-copy view of rows [lo, hi) of a column: the
// dense storage types and run-length columns as column.GatherRange views
// (string views share the dictionary), bit-packed columns as window views
// over their packed blocks at any offset — morsel workers scan encoded data
// in place. Reports false for column types without view support, which
// callers handle by falling back to serial paths.
func sliceColumn(c column.Column, lo, hi int) (column.Column, bool) {
	switch c := c.(type) {
	case *column.CompressedInt64Column:
		return c.Slice(lo, hi), true
	case *column.CompressedDateColumn:
		return c.Slice(lo, hi), true
	default:
		return column.GatherRange(c, lo, hi)
	}
}

// parFilter evaluates the whole predicate tree per morsel against zero-copy
// column views and concatenates the per-morsel position lists. Predicates
// are row-local (And/Or combine positions within a row range), so the
// morsel-wise evaluation restricted to [lo, hi) shifted by lo reproduces the
// serial evaluation exactly.
func parFilter(ctx *Ctx, b *Batch, pred expr.Predicate, n int) (column.PosList, error) {
	// Fall back to the serial evaluator if any referenced column cannot be
	// sliced zero-copy (defensive: every storage and compressed encoding
	// supports views, so this only triggers for exotic column types).
	for _, name := range pred.Columns() {
		c, err := b.Column(name)
		if err == nil {
			if _, ok := sliceColumn(c, 0, 0); !ok {
				return pred.Eval(b.Column)
			}
		}
	}
	parts := make([]column.PosList, par.Morsels(n))
	err := ctx.forEachMorsel(n, func(mi, lo, hi int) error {
		resolve := func(name string) (column.Column, error) {
			c, err := b.Column(name)
			if err != nil {
				return nil, err
			}
			v, _ := sliceColumn(c, lo, hi)
			return v, nil
		}
		pos, err := pred.Eval(resolve)
		parts[mi] = pos.Shift(lo)
		return err
	})
	if err != nil {
		return column.PosList{}, err
	}
	return column.Concat(parts), nil
}

// FilterRange evaluates the predicate against rows [lo, hi) of the batch and
// returns the qualifying positions as global row numbers. Predicates are
// row-local, so concatenating FilterRange results over a partition of [0, n)
// in range order reproduces Filter over the full batch bit-identically — the
// property the pipelined chunk executor stitches on, and the same argument
// parFilter makes per morsel. Columns are sliced zero-copy; a column type
// without view support falls back to a full evaluation restricted to the
// range (correct, merely not chunk-local).
func FilterRange(ctx *Ctx, b *Batch, pred expr.Predicate, lo, hi int) (column.PosList, error) {
	n := b.NumRows()
	if lo < 0 || hi > n || lo > hi {
		return column.PosList{}, fmt.Errorf("engine: filter range [%d, %d) outside batch of %d rows", lo, hi, n)
	}
	if lo == 0 && hi == n {
		return Filter(ctx, b, pred)
	}
	for _, name := range pred.Columns() {
		if c, err := b.Column(name); err == nil {
			if _, ok := sliceColumn(c, 0, 0); !ok {
				return filterRangeSlow(ctx, b, pred, lo, hi)
			}
		}
	}
	view := make([]column.Column, len(b.cols))
	for i, c := range b.cols {
		v, ok := sliceColumn(c, lo, hi)
		if !ok {
			return filterRangeSlow(ctx, b, pred, lo, hi)
		}
		view[i] = v
	}
	vb, err := NewBatch(view...)
	if err != nil {
		return column.PosList{}, err
	}
	pos, err := Filter(ctx, vb, pred)
	return pos.Shift(lo), err
}

// filterRangeSlow evaluates the predicate over the whole batch and keeps the
// positions inside [lo, hi) — the defensive fallback for unsliceable columns.
func filterRangeSlow(ctx *Ctx, b *Batch, pred expr.Predicate, lo, hi int) (column.PosList, error) {
	all, err := Filter(ctx, b, pred)
	return all.Intersect(column.Range(lo, hi)), err
}

// Gather materializes the rows addressed by pos into a new column, identical
// (Len, values, Bytes) to c.Gather of the explicit list at every worker
// count. A range — the whole input of a predicate-less scan, the probe side
// of a join every row of which matches once — copies nothing: the result is
// a view of c's storage (column.GatherRange). Other large gathers fan out
// over the context's pool, bit-packed columns in 128-row-aligned chunks of
// the output so that the packed blocks do not depend on the schedule.
func Gather(ctx *Ctx, c column.Column, pos column.PosList) column.Column {
	return GatherAll(ctx, []column.Column{c}, pos)[0]
}

// GatherAll is Gather for several columns through one list. A range that
// some column cannot share (a bit-packed one, when the range starts inside a
// block) is written out as a list once for all of them.
func GatherAll(ctx *Ctx, cols []column.Column, pos column.PosList) []column.Column {
	lo, hi, isRange := pos.AsRange()
	var list []int32
	out := make([]column.Column, len(cols))
	for i, c := range cols {
		if isRange {
			if v, ok := column.GatherRange(c, lo, hi); ok {
				out[i] = v
				continue
			}
		}
		if list == nil {
			list = pos.Explicit()
		}
		out[i] = gatherList(ctx, c, list)
	}
	return out
}

// gatherList is Gather through an explicit list.
func gatherList(ctx *Ctx, c column.Column, pos []int32) column.Column {
	n := len(pos)
	if !ctx.parallel() || n <= par.DefaultMorselRows {
		return c.Gather(pos)
	}
	switch c := c.(type) {
	case *column.Int64Column:
		return column.NewInt64(c.Name(), gatherRows(ctx, c.Values, pos))
	case *column.Float64Column:
		return column.NewFloat64(c.Name(), gatherRows(ctx, c.Values, pos))
	case *column.DateColumn:
		return column.NewDate(c.Name(), gatherRows(ctx, c.Values, pos))
	case *column.StringColumn:
		return column.NewStringFromDict(c.Name(), c.Dict, gatherRows(ctx, c.Codes, pos))
	case *column.CompressedInt64Column:
		return c.GatherWith(pos, ctx.forEachNNoErr)
	case *column.CompressedDateColumn:
		return c.GatherWith(pos, ctx.forEachNNoErr)
	default:
		return c.Gather(pos)
	}
}

// gatherRows copies src[pos[i]] to out[i], a morsel of the output per task.
func gatherRows[T any](ctx *Ctx, src []T, pos []int32) []T {
	out := make([]T, len(pos))
	ctx.forEachMorselNoErr(len(pos), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = src[pos[i]]
		}
	})
	return out
}

// GatherCtx is Batch.Gather with the columns gathered through the context's
// pool.
func (b *Batch) GatherCtx(ctx *Ctx, pos column.PosList) *Batch {
	return MustNewBatch(GatherAll(ctx, b.cols, pos)...)
}
