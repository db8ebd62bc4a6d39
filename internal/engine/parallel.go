package engine

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/par"
)

// Columns is what a predicate is evaluated against: a batch, or a base table
// handed over as it is stored.
type Columns interface {
	Column(name string) (column.Column, error)
	NumRows() int
}

// FilterRange evaluates the predicate against rows [lo, hi) of src and
// returns the qualifying positions as rows of src. It is the one place a
// predicate is evaluated: in one piece when the range is a single morsel or
// the context is serial, otherwise a morsel at a time on the context's pool.
// Each piece scans its rows of the columns in their stored encoding and
// numbers what it finds as rows of the column, so the pieces are concatenated
// as they are. Predicates are row-local, which makes the pieces of any
// partition of a range, in range order, the selection over the range — the
// property the morsels rely on here and the pipelined chunk executor stitches
// on.
func FilterRange(ctx *Ctx, src Columns, pred expr.Predicate, lo, hi int) (column.PosList, error) {
	if n := src.NumRows(); lo < 0 || hi > n || lo > hi {
		return column.PosList{}, fmt.Errorf("engine: filter range [%d, %d) outside the %d rows of the source", lo, hi, n)
	}
	resolve := expr.Resolver(src.Column)
	if !ctx.parallel() || hi-lo <= par.DefaultMorselRows {
		return pred.Eval(resolve, column.Range(lo, hi))
	}
	parts := make([]column.PosList, par.Morsels(hi-lo))
	err := ctx.forEachMorsel(hi-lo, func(mi, mlo, mhi int) (err error) {
		parts[mi], err = pred.Eval(resolve, column.Range(lo+mlo, lo+mhi))
		return err
	})
	if err != nil {
		return column.PosList{}, err
	}
	return column.Concat(parts), nil
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
