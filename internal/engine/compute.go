package engine

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// BinOp enumerates arithmetic operators for derived columns.
type BinOp uint8

// Arithmetic operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
)

// String returns the operator symbol.
func (op BinOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return fmt.Sprintf("binop(%d)", uint8(op))
	}
}

// operand is one side of a derived column: a numeric column, read a block at
// a time (column.Reader) — a pending one through its positions — or a
// constant.
type operand struct {
	read func(lo, hi int, scratch []float64) []float64
	k    float64
}

// columnOperand resolves a numeric column of the batch as an operand.
func columnOperand(b *Batch, as, col string) (operand, error) {
	c, err := b.find(col)
	if err != nil {
		return operand{}, fmt.Errorf("compute %s: %w", as, err)
	}
	read, ok := column.Reader[float64](c.stored())
	if !ok {
		return operand{}, fmt.Errorf("compute %s: column %s is not numeric", as, c.name)
	}
	return operand{read: read}, nil
}

// block returns rows [lo, hi) of the operand; scratch holds at least hi−lo.
func (o operand) block(lo, hi int, scratch []float64) []float64 {
	if o.read != nil {
		return o.read(lo, hi, scratch)
	}
	vals := scratch[:hi-lo]
	for i := range vals {
		vals[i] = o.k
	}
	return vals
}

// compute evaluates "l op r" row-wise into a new float64 column, a morsel at
// a time — serially, or on the context's pool when it can fan out. Each
// morsel reports its first error, and the scheduler surfaces the
// lowest-morsel one, so a division-by-zero error names the same row at every
// worker count.
func compute(ctx *Ctx, n int, as string, l operand, op BinOp, r operand) (column.Column, error) {
	if op > Div {
		return nil, fmt.Errorf("compute %s: unknown operator %v", as, op)
	}
	out := make([]float64, n)
	run := func(_, lo, hi int) error {
		ls, rs := par.Get[float64](hi-lo), par.Get[float64](hi-lo)
		defer par.Put(ls)
		defer par.Put(rs)
		lv, rv, dst := l.block(lo, hi, ls), r.block(lo, hi, rs), out[lo:hi]
		switch op {
		case Add:
			for i := range dst {
				dst[i] = lv[i] + rv[i]
			}
		case Sub:
			for i := range dst {
				dst[i] = lv[i] - rv[i]
			}
		case Mul:
			for i := range dst {
				dst[i] = lv[i] * rv[i]
			}
		case Div:
			for i := range dst {
				if rv[i] == 0 {
					return fmt.Errorf("compute %s: division by zero at row %d", as, lo+i)
				}
				dst[i] = lv[i] / rv[i]
			}
		}
		return nil
	}
	var err error
	if ctx.parallel() && n > par.DefaultMorselRows {
		err = ctx.forEachMorsel(n, run)
	} else {
		err = (*par.Pool)(nil).ForEachMorsel(n, run)
	}
	if err != nil {
		return nil, err
	}
	return column.NewFloat64(as, out), nil
}

// Compute evaluates "left op right" row-wise over two numeric columns of the
// batch and returns the derived column under the given name. The result is
// always float64, matching the engine's aggregate domain.
func Compute(ctx *Ctx, b *Batch, as string, left string, op BinOp, right string) (column.Column, error) {
	l, err := columnOperand(b, as, left)
	if err != nil {
		return nil, err
	}
	r, err := columnOperand(b, as, right)
	if err != nil {
		return nil, err
	}
	return compute(ctx, b.NumRows(), as, l, op, r)
}

// ComputeConst evaluates "col op constant" row-wise, e.g. "price * 0.9".
func ComputeConst(ctx *Ctx, b *Batch, as string, col string, op BinOp, k float64) (column.Column, error) {
	l, err := columnOperand(b, as, col)
	if err != nil {
		return nil, err
	}
	if op == Div && k == 0 {
		return nil, fmt.Errorf("compute %s: division by zero constant", as)
	}
	return compute(ctx, b.NumRows(), as, l, op, operand{k: k})
}

// ComputeConstLeft evaluates "constant op col" row-wise (e.g. the
// "1 - discount" term of TPC-H pricing expressions).
func ComputeConstLeft(ctx *Ctx, b *Batch, as string, k float64, op BinOp, col string) (column.Column, error) {
	r, err := columnOperand(b, as, col)
	if err != nil {
		return nil, err
	}
	return compute(ctx, b.NumRows(), as, operand{k: k}, op, r)
}
