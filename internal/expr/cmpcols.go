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

// holds reports whether "l op r" is true, as IEEE comparison has it: a NaN on
// either side satisfies <> and nothing else.
func (op CmpOp) holds(l, r float64) bool {
	switch op {
	case EQ:
		return l == r
	case NE:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	default:
		return l >= r
	}
}

// Eval scans rows [lo, hi) of both columns and collects those where the
// comparison holds.
func (c *CmpCols) Eval(resolve Resolver, lo, hi int) (column.PosList, error) {
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
	// Both columns are read a block at a time (decoded, if compressed).
	const block = 4096
	lbuf, rbuf := make([]float64, block), make([]float64, block)
	out := make([]int32, 0, (hi-lo)/4)
	for base := lo; base < hi; base += block {
		end := min(base+block, hi)
		lv, rv := lr(base, end, lbuf), rr(base, end, rbuf)
		for i, l := range lv {
			if c.Op.holds(l, rv[i]) {
				out = append(out, int32(base+i))
			}
		}
	}
	return column.Ascending(out), nil
}
