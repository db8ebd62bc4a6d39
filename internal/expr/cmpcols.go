package expr

import (
	"fmt"

	"robustdb/internal/column"
)

// CmpCols compares two columns of the same relation row-wise
// (e.g. TPC-H Q4's l_commitdate < l_receiptdate). Both columns must be
// numeric (int64, date, or float64); mixing int-family and float works.
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

// Eval scans both columns and collects rows where the comparison holds.
func (c *CmpCols) Eval(resolve func(string) (column.Column, error)) (column.PosList, error) {
	lc, err := resolve(c.Left)
	if err != nil {
		return none, err
	}
	rc, err := resolve(c.Right)
	if err != nil {
		return none, err
	}
	lr, lok := column.Reader[float64](lc)
	rr, rok := column.Reader[float64](rc)
	switch {
	case !lok:
		return none, fmt.Errorf("predicate %s: column %s is not numeric", c, lc.Name())
	case !rok:
		return none, fmt.Errorf("predicate %s: column %s is not numeric", c, rc.Name())
	case lc.Len() != rc.Len():
		return none, fmt.Errorf("predicate %s: column lengths differ (%d vs %d)", c, lc.Len(), rc.Len())
	}
	// filterOrdered visits the rows in ascending order, so both columns are
	// read a block at a time (decoded, if compressed) just ahead of it.
	const block = 4096
	n := lc.Len()
	lbuf, rbuf := make([]float64, block), make([]float64, block)
	var lv, rv []float64
	base, end := 0, 0
	return filterOrdered(n, c.Op, func(i int) int {
		if i >= end {
			base, end = i, min(i+block, n)
			lv, rv = lr(base, end, lbuf), rr(base, end, rbuf)
		}
		return cmpFloat64(lv[i-base], rv[i-base])
	}), nil
}
