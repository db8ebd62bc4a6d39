package expr

import (
	"fmt"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// CmpCols compares two columns of the same relation row-wise
// (e.g. TPC-H Q4's l_commitdate < l_receiptdate). Both columns must be
// numeric. Two integer-family columns (int64 or date, in any encoding)
// compare as integers, exactly; with a float on either side both compare as
// float64.
type CmpCols struct {
	Left  string
	Op    CmpOp
	Right string
}

// NewCmpCols builds a column-vs-column comparison predicate.
func NewCmpCols(left string, op CmpOp, right string) *CmpCols {
	return &CmpCols{Left: left, Op: op, Right: right}
}

// Columns returns both compared columns.
func (c *CmpCols) Columns() []string {
	if c.Left == c.Right {
		return []string{c.Left}
	}
	return []string{c.Left, c.Right}
}

// String renders "left op right".
func (c *CmpCols) String() string { return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right) }

// truth[op] has bit c set when "l op r" holds given the outcome c of comparing
// l with r: 1 for less, 2 for equal, 4 for greater, and 0 for unordered — a
// NaN on either side, which satisfies <> and nothing else, as IEEE has it.
var truth = [...]uint8{EQ: 1 << 2, NE: 1<<0 | 1<<1 | 1<<4, LT: 1 << 1, LE: 1<<1 | 1<<2, GT: 1 << 4, GE: 1<<2 | 1<<4}

// holds is 1 when the comparison with truth bits t holds for l and r, and
// otherwise 0.
func holds[T int64 | float64](t uint8, l, r T) int {
	return int(t) >> (column.B2I(l < r) | column.B2I(l == r)<<1 | column.B2I(l > r)<<2) & 1
}

// Eval collects the rows of sel where the comparison holds.
func (c *CmpCols) Eval(resolve Resolver, sel column.PosList) (column.PosList, error) {
	lc, err := resolve(c.Left)
	if err != nil {
		return none, err
	}
	rc, err := resolve(c.Right)
	if err != nil {
		return none, err
	}
	if integral := func(c column.Column) bool { return c.Type() == column.Int64 || c.Type() == column.Date }; integral(lc) && integral(rc) {
		return cmpCols[int64](c, lc, rc, sel)
	}
	return cmpCols[float64](c, lc, rc, sel)
}

// cmpCols is Eval in the domain T. Both columns are read a window of rows at
// a time (decoded, if compressed): a range in windows of block rows, a list
// from a listed row to the last one listed in the same packed block, so that
// no block is decoded that the selection does not touch. The write is the
// scan kernels': every candidate row is stored, and the cursor moves on by
// the comparison.
func cmpCols[T int64 | float64](c *CmpCols, lc, rc column.Column, sel column.PosList) (column.PosList, error) {
	lr, lok := column.Reader[T](lc, nil)
	rr, rok := column.Reader[T](rc, nil)
	switch {
	case !lok:
		return none, fmt.Errorf("predicate %s: column %s is not numeric", c, lc.Name())
	case !rok:
		return none, fmt.Errorf("predicate %s: column %s is not numeric", c, rc.Name())
	case lc.Len() != rc.Len():
		return none, fmt.Errorf("predicate %s: column lengths differ (%d vs %d)", c, lc.Len(), rc.Len())
	case int(c.Op) >= len(truth):
		return none, fmt.Errorf("predicate %s: unknown operator", c)
	case sel.Len() == 0:
		return none, nil
	}
	const block = 4096
	out, k, t := par.Get[int32](sel.Len())[:sel.Len()], 0, truth[c.Op]
	if lo, hi, isRange := sel.AsRange(); isRange {
		lbuf, rbuf := make([]T, block), make([]T, block)
		for base := lo; base < hi; base += block {
			end := min(base+block, hi)
			lv, rv := lr(base, end, lbuf), rr(base, end, rbuf)
			for i, l := range lv {
				out[k] = int32(base + i)
				k += holds(t, l, rv[i])
			}
		}
		return par.TakePos(out[:k]), nil
	}
	lbuf, rbuf := make([]T, column.BlockRows), make([]T, column.BlockRows)
	for list := sel.Explicit(); len(list) > 0; {
		var in []int32
		in, list = column.HeadBlock(list)
		base, end := int(in[0]), int(in[len(in)-1])+1
		lv, rv := lr(base, end, lbuf), rr(base, end, rbuf)
		for _, p := range in {
			out[k] = p
			k += holds(t, lv[int(p)-base], rv[int(p)-base])
		}
	}
	return par.TakePos(out[:k]), nil
}
