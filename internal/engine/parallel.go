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
	numMorsels := par.Morsels(n)
	parts := make([]column.PosList, numMorsels)
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
		if err != nil {
			return err
		}
		for i := range pos {
			pos[i] += int32(lo)
		}
		parts[mi] = pos
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil, nil
	}
	out := make(column.PosList, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
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
		return nil, fmt.Errorf("engine: filter range [%d, %d) outside batch of %d rows", lo, hi, n)
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
		return nil, err
	}
	pos, err := Filter(ctx, vb, pred)
	if err != nil {
		return nil, err
	}
	for i := range pos {
		pos[i] += int32(lo)
	}
	return pos, nil
}

// filterRangeSlow evaluates the predicate over the whole batch and keeps the
// positions inside [lo, hi) — the defensive fallback for unsliceable columns.
func filterRangeSlow(ctx *Ctx, b *Batch, pred expr.Predicate, lo, hi int) (column.PosList, error) {
	all, err := Filter(ctx, b, pred)
	if err != nil {
		return nil, err
	}
	var out column.PosList
	for _, p := range all {
		if int(p) >= lo && int(p) < hi {
			out = append(out, p)
		}
	}
	return out, nil
}

// contiguous reports whether pos lists the rows p0, p0+1, …, p0+len−1 and
// returns p0. Every element is checked; a list that is not a range is
// usually found out within a few.
func contiguous(pos column.PosList) (p0 int, ok bool) {
	if len(pos) == 0 {
		return 0, false
	}
	for i, p := range pos {
		if p != pos[0]+int32(i) {
			return 0, false
		}
	}
	return int(pos[0]), true
}

// Gather materializes the rows addressed by pos into a new column, identical
// (Len, values, Bytes) to c.Gather(pos) at every worker count. A contiguous
// ascending list — the whole input of a predicate-less scan, the probe side
// of a join every row of which matches once — copies nothing: the result is
// a view of c's storage (column.GatherRange). Other large gathers fan out
// over the context's pool, bit-packed columns in 128-row-aligned chunks of
// the output so that the packed blocks do not depend on the schedule.
func Gather(ctx *Ctx, c column.Column, pos column.PosList) column.Column {
	p0, isRange := contiguous(pos)
	return gather(ctx, c, pos, p0, isRange)
}

// GatherAll is Gather for several columns through one list, which is
// inspected once for all of them.
func GatherAll(ctx *Ctx, cols []column.Column, pos column.PosList) []column.Column {
	p0, isRange := contiguous(pos)
	out := make([]column.Column, len(cols))
	for i, c := range cols {
		out[i] = gather(ctx, c, pos, p0, isRange)
	}
	return out
}

// gather is Gather given what contiguous(pos) reported.
func gather(ctx *Ctx, c column.Column, pos column.PosList, p0 int, isRange bool) column.Column {
	if isRange {
		if v, ok := column.GatherRange(c, p0, p0+len(pos)); ok {
			return v
		}
	}
	n := len(pos)
	if !ctx.parallel() || n <= par.DefaultMorselRows {
		return c.Gather(pos)
	}
	switch c := c.(type) {
	case *column.Int64Column:
		src := c.Values
		out := make([]int64, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewInt64(c.Name(), out)
	case *column.Float64Column:
		src := c.Values
		out := make([]float64, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewFloat64(c.Name(), out)
	case *column.DateColumn:
		src := c.Values
		out := make([]int32, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewDate(c.Name(), out)
	case *column.StringColumn:
		src := c.Codes
		out := make([]int32, n)
		ctx.forEachMorselNoErr(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = src[pos[i]]
			}
		})
		return column.NewStringFromDict(c.Name(), c.Dict, out)
	case *column.CompressedInt64Column:
		return c.GatherWith(pos, ctx.forEachNNoErr)
	case *column.CompressedDateColumn:
		return c.GatherWith(pos, ctx.forEachNNoErr)
	default:
		return c.Gather(pos)
	}
}

// GatherCtx is Batch.Gather with the columns gathered through the context's
// pool.
func (b *Batch) GatherCtx(ctx *Ctx, pos column.PosList) *Batch {
	return MustNewBatch(GatherAll(ctx, b.cols, pos)...)
}
