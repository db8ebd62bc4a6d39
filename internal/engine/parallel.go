package engine

import (
	"fmt"
	"slices"

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

// gatherRows copies src[pos[i]] to out[i], a morsel of the output per task
// where the context fans out and the list is longer than one.
func gatherRows[T any](ctx *Ctx, src []T, pos []int32) []T {
	out := make([]T, len(pos))
	run := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = src[pos[i]]
		}
	}
	if ctx.parallel() && len(pos) > par.DefaultMorselRows {
		ctx.forEachMorselNoErr(len(pos), run)
	} else {
		run(0, 0, len(pos))
	}
	return out
}

// GatherCtx returns the rows of b that pos addresses, in that order. It is
// the one way rows of a batch are picked — a selection, a semi join, either
// side of a join, a sort, a scan's or a fetch's read of a base table — and
// it copies as little as the result allows. A range of a held column is the
// view GatherRange gives. A list over a held plain column is left pending,
// sharing pos with the others of its kind. A pending column stays pending
// through the composition of its list with pos, written once for all the
// columns that shared the list, so its source is still a held column however
// long the chain. Only a bit-packed column under a list (or a
// range no view can give) is gathered now, through ctx: the footprint of its
// re-encoded rows is not known before they are (footprint).
func (b *Batch) GatherCtx(ctx *Ctx, pos column.PosList) *Batch {
	_, _, isRange := pos.AsRange()
	out := make([]batchCol, len(b.cols))
	cols := make([]*batchCol, len(b.cols))
	var (
		from, to []*column.PosList // to[j] is *from[j] composed with pos; pos itself for from[j] == nil, the held columns
		now      []column.Column   // gathered at once, into the columns at
		at       []int
	)
	for i, c := range b.cols {
		cols[i] = &out[i]
		col, src, via := c.state()
		width, extra, canWait := c.width, c.extra, c.pending
		if col != nil { // held: itself the source, of a gather through pos alone
			if !c.pending {
				width, extra, canWait = footprint(col)
			}
			if isRange || !canWait {
				out[i].name = c.name
				now, at = append(now, col), append(at, i)
				continue
			}
			src = col
		}
		j := slices.Index(from, via)
		if j < 0 {
			j = len(from)
			list := pos
			if via != nil {
				list = compose(ctx, *via, pos)
			}
			from, to = append(from, via), append(to, &list)
		}
		out[i] = batchCol{name: c.name, pending: true, width: width, extra: extra, src: src, pos: to[j]}
	}
	for j, col := range GatherAll(ctx, now, pos) {
		out[at[j]].col = col
	}
	return &Batch{rows: pos.Len(), cols: cols, byName: b.byName}
}

// compose returns the rows of p that q addresses: gathering through p and
// then through q reads the source through it.
func compose(ctx *Ctx, p, q column.PosList) column.PosList {
	if lo, hi, ok := q.AsRange(); ok {
		return p.Slice(lo, hi)
	}
	return column.Positions(gatherRows(ctx, p.Explicit(), q.Explicit()))
}
