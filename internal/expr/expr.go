// Package expr defines the scalar predicate language operators filter with.
//
// Predicates are comparisons of a column against constants (point and range
// predicates) combined with conjunction and disjunction. A predicate is a
// function from a selection to a selection: evaluated over a sorted position
// list — a row range or the survivors of an earlier predicate — it returns
// the positions among them that qualify. Every comparison with constants
// first becomes an interval of the column's value domain — integers for
// integer and date columns of any encoding, dictionary codes for strings
// (exploiting the order-preserving encoding of column.StringColumn), floats
// for float columns — and column.Scan finds the rows inside it.
package expr

import (
	"cmp"
	"fmt"
	"math"

	"robustdb/internal/column"
	"robustdb/internal/par"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators for column-vs-constant predicates.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Resolver maps a column name to the column a predicate filters.
type Resolver func(name string) (column.Column, error)

// Predicate filters the rows of a single table.
type Predicate interface {
	// Eval returns, ascending, the rows of sel that qualify, numbered as rows
	// of the resolved columns; sel must itself be ascending. A row qualifies
	// or not whatever selection it is asked about in, so evaluating q over
	// what p kept keeps what both keep, and the results over a partition of a
	// range, one after the other, are the result over the range.
	Eval(resolve Resolver, sel column.PosList) (column.PosList, error)
	// Columns returns the names of the columns the predicate reads.
	Columns() []string
	// String renders the predicate in SQL-ish syntax.
	String() string
}

// Cmp is a column-vs-constant comparison. Value must be int64, float64,
// int32 (dates), or string, matching the column type.
type Cmp struct {
	Col   string
	Op    CmpOp
	Value interface{}
}

// NewCmp builds a comparison predicate.
func NewCmp(col string, op CmpOp, value interface{}) *Cmp {
	return &Cmp{Col: col, Op: op, Value: value}
}

// Columns returns the single filtered column.
func (c *Cmp) Columns() []string { return []string{c.Col} }

// String renders "col op value".
func (c *Cmp) String() string { return fmt.Sprintf("%s %s %v", c.Col, c.Op, c.Value) }

// none is the empty selection returned beside an error.
var none column.PosList

// nothing is the empty interval of either domain; its complement is every row.
func nothing[T int64 | float64](not bool) column.Interval[T] {
	return column.Interval[T]{Lo: 1, Hi: 0, Not: not}
}

// interval is "value op v" over a domain that runs from first to last and in
// which below and above are the values next to v. A comparison nothing can
// satisfy (below the first value, above the last, any of the four orderings
// against a NaN) is the empty interval.
func interval[T int64 | float64](op CmpOp, v, first, last, below, above T) column.Interval[T] {
	switch op {
	case EQ, NE:
		return column.Interval[T]{Lo: v, Hi: v, Not: op == NE}
	case LT:
		if v > first {
			return column.Interval[T]{Lo: first, Hi: below}
		}
	case LE:
		return column.Interval[T]{Lo: first, Hi: v}
	case GT:
		if v < last {
			return column.Interval[T]{Lo: above, Hi: last}
		}
	case GE:
		return column.Interval[T]{Lo: v, Hi: last}
	}
	return nothing[T](false)
}

func intInterval(op CmpOp, v int64) column.Interval[int64] {
	return interval(op, v, math.MinInt64, math.MaxInt64, v-1, v+1)
}

func floatInterval(op CmpOp, v float64) column.Interval[float64] {
	inf := math.Inf(1)
	return interval(op, v, -inf, inf, math.Nextafter(v, -inf), math.Nextafter(v, inf))
}

// scan evaluates a column-vs-constant predicate p, normalized to iv, over
// the rows sel of col.
func scan[T int64 | float64](p Predicate, col column.Column, iv column.Interval[T], sel column.PosList) (column.PosList, error) {
	out, ok := column.Scan(col, iv, sel, par.Get[int32](sel.Len()))
	if !ok {
		return none, fmt.Errorf("predicate %s: unsupported column type %T", p, col)
	}
	return par.TakePos(out), nil
}

// Eval scans the rows sel of the column for the comparison's interval. A
// string constant absent from the dictionary stands just below its insertion
// point: equal to nothing, and ordered against the codes on either side.
func (c *Cmp) Eval(resolve Resolver, sel column.PosList) (column.PosList, error) {
	col, err := resolve(c.Col)
	if err != nil {
		return none, err
	}
	switch col := col.(type) {
	case *column.Float64Column:
		v, err := asFloat64(c.Value)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", c, err)
		}
		return scan(c, col, floatInterval(c.Op, v), sel)
	case *column.StringColumn:
		s, ok := c.Value.(string)
		if !ok {
			return none, fmt.Errorf("predicate %s: want string constant, got %T", c, c.Value)
		}
		code, present := col.Code(s)
		op := c.Op
		if !present { // code is the insertion point
			switch op {
			case EQ, NE:
				return scan(c, col, nothing[int64](op == NE), sel)
			case LE:
				op = LT
			case GT:
				op = GE
			}
		}
		return scan(c, col, intInterval(op, int64(code)), sel)
	default:
		v, err := asInt64(c.Value)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", c, err)
		}
		return scan(c, col, intInterval(c.Op, v), sel)
	}
}

// Between is an inclusive range predicate lo <= col <= hi.
type Between struct {
	Col    string
	Lo, Hi interface{}
}

// NewBetween builds an inclusive range predicate.
func NewBetween(col string, lo, hi interface{}) *Between {
	return &Between{Col: col, Lo: lo, Hi: hi}
}

// Columns returns the single filtered column.
func (b *Between) Columns() []string { return []string{b.Col} }

// String renders "col between lo and hi".
func (b *Between) String() string {
	return fmt.Sprintf("%s between %v and %v", b.Col, b.Lo, b.Hi)
}

// Eval scans the rows sel of the column for the interval [Lo, Hi]; string
// bounds absent from the dictionary move inward to the nearest code.
func (b *Between) Eval(resolve Resolver, sel column.PosList) (column.PosList, error) {
	col, err := resolve(b.Col)
	if err != nil {
		return none, err
	}
	switch col := col.(type) {
	case *column.Float64Column:
		l, errLo := asFloat64(b.Lo)
		h, errHi := asFloat64(b.Hi)
		if err := cmp.Or(errLo, errHi); err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		return scan(b, col, column.Interval[float64]{Lo: l, Hi: h}, sel)
	case *column.StringColumn:
		l, okLo := b.Lo.(string)
		h, okHi := b.Hi.(string)
		if !okLo || !okHi {
			return none, fmt.Errorf("predicate %s: want string bounds", b)
		}
		hiCode, present := col.Code(h)
		if !present {
			hiCode-- // insertion point; everything strictly below qualifies
		}
		return scan(b, col, column.Interval[int64]{Lo: int64(col.LowerBound(l)), Hi: int64(hiCode)}, sel)
	default:
		l, errLo := asInt64(b.Lo)
		h, errHi := asInt64(b.Hi)
		if err := cmp.Or(errLo, errHi); err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		return scan(b, col, column.Interval[int64]{Lo: l, Hi: h}, sel)
	}
}

// And is the conjunction of predicates.
type And struct{ Preds []Predicate }

// NewAnd builds a conjunction.
func NewAnd(preds ...Predicate) *And { return &And{Preds: preds} }

// Columns returns the union (with duplicates preserved in order of first
// occurrence) of the operand columns.
func (a *And) Columns() []string { return unionColumns(a.Preds) }

// String renders the conjunction.
func (a *And) String() string { return joinPreds(a.Preds, " and ") }

// Eval narrows the selection through the operands in written order: each
// sees only the rows its predecessors kept. Handed the empty selection an
// operand scans nothing but still resolves its column and checks its
// constant: whether a malformed conjunct is reported does not follow the data.
func (a *And) Eval(resolve Resolver, sel column.PosList) (column.PosList, error) {
	if len(a.Preds) == 0 {
		return none, fmt.Errorf("and: no operands")
	}
	for _, p := range a.Preds {
		var err error
		if sel, err = p.Eval(resolve, sel); err != nil {
			return none, err
		}
	}
	return sel, nil
}

// Or is the disjunction of predicates.
type Or struct{ Preds []Predicate }

// NewOr builds a disjunction.
func NewOr(preds ...Predicate) *Or { return &Or{Preds: preds} }

// Columns returns the operand columns.
func (o *Or) Columns() []string { return unionColumns(o.Preds) }

// String renders the disjunction.
func (o *Or) String() string { return joinPreds(o.Preds, " or ") }

// Eval unions what each operand keeps of the selection.
func (o *Or) Eval(resolve Resolver, sel column.PosList) (column.PosList, error) {
	if len(o.Preds) == 0 {
		return none, fmt.Errorf("or: no operands")
	}
	acc := none
	for _, p := range o.Preds {
		next, err := p.Eval(resolve, sel)
		if err != nil {
			return none, err
		}
		acc = acc.Union(next)
	}
	return acc, nil
}

// In selects rows whose column value is one of the given constants.
type In struct {
	Col    string
	Values []interface{}
}

// NewIn builds an in-list predicate.
func NewIn(col string, values ...interface{}) *In { return &In{Col: col, Values: values} }

// Columns returns the single filtered column.
func (p *In) Columns() []string { return []string{p.Col} }

// String renders "col in (...)".
func (p *In) String() string { return fmt.Sprintf("%s in %v", p.Col, p.Values) }

// Eval evaluates the in-list as a disjunction of equalities.
func (p *In) Eval(resolve Resolver, sel column.PosList) (column.PosList, error) {
	if len(p.Values) == 0 {
		return none, nil
	}
	ors := make([]Predicate, len(p.Values))
	for i, v := range p.Values {
		ors[i] = NewCmp(p.Col, EQ, v)
	}
	return NewOr(ors...).Eval(resolve, sel)
}

func unionColumns(preds []Predicate) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range preds {
		for _, c := range p.Columns() {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func joinPreds(preds []Predicate, sep string) string {
	s := "("
	for i, p := range preds {
		if i > 0 {
			s += sep
		}
		s += p.String()
	}
	return s + ")"
}

func asInt64(v interface{}) (int64, error) {
	switch v := v.(type) {
	case int64:
		return v, nil
	case int:
		return int64(v), nil
	case int32:
		return int64(v), nil
	default:
		return 0, fmt.Errorf("want integer constant, got %T", v)
	}
}

func asFloat64(v interface{}) (float64, error) {
	switch v := v.(type) {
	case float64:
		return v, nil
	case int64:
		return float64(v), nil
	case int:
		return float64(v), nil
	case int32:
		return float64(v), nil
	default:
		return 0, fmt.Errorf("want numeric constant, got %T", v)
	}
}
