// Package expr defines the scalar predicate language operators filter with.
//
// Predicates are comparisons of a column against constants (point and range
// predicates) combined with conjunction and disjunction. Evaluation produces
// a sorted position list. String predicates are evaluated on dictionary
// codes, exploiting the order-preserving encoding of column.StringColumn.
package expr

import (
	"fmt"

	"robustdb/internal/column"
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

// Predicate filters the rows of a single table.
type Predicate interface {
	// Eval returns the sorted positions of qualifying rows. resolve maps a
	// column name to the column it filters.
	Eval(resolve func(name string) (column.Column, error)) (column.PosList, error)
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

// codeScanner is implemented by the compressed column encodings (bit-packed
// and run-length): comparisons evaluate directly on the encoded blocks/runs
// with block skipping, never materializing the column.
type codeScanner interface {
	column.Column
	ScanCmp(op column.ScanOp, v int64, out []int32) []int32
	ScanRange(lo, hi int64, out []int32) []int32
}

// none is the empty selection returned beside an error.
var none column.PosList

// scanOp translates a predicate operator to the column scan kernels'
// operator domain; the translation happens once per predicate evaluation,
// not per row.
func scanOp(op CmpOp) column.ScanOp {
	switch op {
	case EQ:
		return column.ScanEQ
	case NE:
		return column.ScanNE
	case LT:
		return column.ScanLT
	case LE:
		return column.ScanLE
	case GT:
		return column.ScanGT
	default:
		return column.ScanGE
	}
}

// Eval scans the column and collects qualifying positions.
func (c *Cmp) Eval(resolve func(string) (column.Column, error)) (column.PosList, error) {
	col, err := resolve(c.Col)
	if err != nil {
		return none, err
	}
	if sc, ok := col.(codeScanner); ok {
		v, err := asInt64(c.Value)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", c, err)
		}
		return column.Ascending(sc.ScanCmp(scanOp(c.Op), v, make([]int32, 0, sc.Len()/4))), nil
	}
	switch col := col.(type) {
	case *column.Int64Column:
		v, err := asInt64(c.Value)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", c, err)
		}
		return filterOrdered(len(col.Values), c.Op, func(i int) int {
			return cmpInt64(col.Values[i], v)
		}), nil
	case *column.Float64Column:
		v, err := asFloat64(c.Value)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", c, err)
		}
		return filterOrdered(len(col.Values), c.Op, func(i int) int {
			return cmpFloat64(col.Values[i], v)
		}), nil
	case *column.DateColumn:
		v, err := asInt64(c.Value)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", c, err)
		}
		return filterOrdered(len(col.Values), c.Op, func(i int) int {
			return cmpInt64(int64(col.Values[i]), v)
		}), nil
	case *column.StringColumn:
		s, ok := c.Value.(string)
		if !ok {
			return none, fmt.Errorf("predicate %s: want string constant, got %T", c, c.Value)
		}
		return evalStringCmp(col, c.Op, s), nil
	default:
		return none, fmt.Errorf("predicate %s: unsupported column type %T", c, col)
	}
}

// evalStringCmp translates the comparison to dictionary codes. For a constant
// absent from the dictionary, EQ selects nothing, NE everything, and the
// ordered operators compare against the insertion point.
func evalStringCmp(col *column.StringColumn, op CmpOp, s string) column.PosList {
	code, present := col.Code(s)
	switch op {
	case EQ:
		if !present {
			return none
		}
	case NE:
		if !present {
			return column.All(len(col.Codes))
		}
	case GT, LE:
		// code is the insertion point; "> s" over an absent s means ">= code".
		if !present {
			if op == GT {
				op = GE
			} else {
				op = LT
			}
		}
	}
	return filterOrdered(len(col.Codes), op, func(i int) int {
		return cmpInt64(int64(col.Codes[i]), int64(code))
	})
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

// Eval evaluates the range predicate as the conjunction of GE and LE but in
// one pass over the column.
func (b *Between) Eval(resolve func(string) (column.Column, error)) (column.PosList, error) {
	col, err := resolve(b.Col)
	if err != nil {
		return none, err
	}
	if sc, ok := col.(codeScanner); ok {
		lo, err := asInt64(b.Lo)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		hi, err := asInt64(b.Hi)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		return column.Ascending(sc.ScanRange(lo, hi, make([]int32, 0, sc.Len()/4))), nil
	}
	switch col := col.(type) {
	case *column.Int64Column:
		lo, err := asInt64(b.Lo)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		hi, err := asInt64(b.Hi)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		out := make([]int32, 0, len(col.Values)/4)
		for i, v := range col.Values {
			if v >= lo && v <= hi {
				out = append(out, int32(i))
			}
		}
		return column.Ascending(out), nil
	case *column.Float64Column:
		lo, err := asFloat64(b.Lo)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		hi, err := asFloat64(b.Hi)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		out := make([]int32, 0, len(col.Values)/4)
		for i, v := range col.Values {
			if v >= lo && v <= hi {
				out = append(out, int32(i))
			}
		}
		return column.Ascending(out), nil
	case *column.DateColumn:
		lo, err := asInt64(b.Lo)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		hi, err := asInt64(b.Hi)
		if err != nil {
			return none, fmt.Errorf("predicate %s: %w", b, err)
		}
		out := make([]int32, 0, len(col.Values)/4)
		for i, v := range col.Values {
			if int64(v) >= lo && int64(v) <= hi {
				out = append(out, int32(i))
			}
		}
		return column.Ascending(out), nil
	case *column.StringColumn:
		lo, okLo := b.Lo.(string)
		hi, okHi := b.Hi.(string)
		if !okLo || !okHi {
			return none, fmt.Errorf("predicate %s: want string bounds", b)
		}
		loCode := col.LowerBound(lo)
		hiCode, present := col.Code(hi)
		if !present {
			hiCode-- // insertion point; everything strictly below qualifies
		}
		out := make([]int32, 0, len(col.Codes)/4)
		for i, c := range col.Codes {
			if c >= loCode && c <= hiCode {
				out = append(out, int32(i))
			}
		}
		return column.Ascending(out), nil
	default:
		return none, fmt.Errorf("predicate %s: unsupported column type %T", b, col)
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

// Eval intersects the operand position lists.
func (a *And) Eval(resolve func(string) (column.Column, error)) (column.PosList, error) {
	if len(a.Preds) == 0 {
		return none, fmt.Errorf("and: no operands")
	}
	acc, err := a.Preds[0].Eval(resolve)
	if err != nil {
		return none, err
	}
	for _, p := range a.Preds[1:] {
		next, err := p.Eval(resolve)
		if err != nil {
			return none, err
		}
		acc = acc.Intersect(next)
	}
	return acc, nil
}

// Or is the disjunction of predicates.
type Or struct{ Preds []Predicate }

// NewOr builds a disjunction.
func NewOr(preds ...Predicate) *Or { return &Or{Preds: preds} }

// Columns returns the operand columns.
func (o *Or) Columns() []string { return unionColumns(o.Preds) }

// String renders the disjunction.
func (o *Or) String() string { return joinPreds(o.Preds, " or ") }

// Eval unions the operand position lists.
func (o *Or) Eval(resolve func(string) (column.Column, error)) (column.PosList, error) {
	if len(o.Preds) == 0 {
		return none, fmt.Errorf("or: no operands")
	}
	acc, err := o.Preds[0].Eval(resolve)
	if err != nil {
		return none, err
	}
	for _, p := range o.Preds[1:] {
		next, err := p.Eval(resolve)
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

// Eval evaluates the in-list as a disjunction of equalities but in one pass.
func (p *In) Eval(resolve func(string) (column.Column, error)) (column.PosList, error) {
	if len(p.Values) == 0 {
		return none, nil
	}
	ors := make([]Predicate, len(p.Values))
	for i, v := range p.Values {
		ors[i] = NewCmp(p.Col, EQ, v)
	}
	return NewOr(ors...).Eval(resolve)
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

func filterOrdered(n int, op CmpOp, cmp func(i int) int) column.PosList {
	out := make([]int32, 0, n/4)
	switch op {
	case EQ:
		for i := 0; i < n; i++ {
			if cmp(i) == 0 {
				out = append(out, int32(i))
			}
		}
	case NE:
		for i := 0; i < n; i++ {
			if cmp(i) != 0 {
				out = append(out, int32(i))
			}
		}
	case LT:
		for i := 0; i < n; i++ {
			if cmp(i) < 0 {
				out = append(out, int32(i))
			}
		}
	case LE:
		for i := 0; i < n; i++ {
			if cmp(i) <= 0 {
				out = append(out, int32(i))
			}
		}
	case GT:
		for i := 0; i < n; i++ {
			if cmp(i) > 0 {
				out = append(out, int32(i))
			}
		}
	case GE:
		for i := 0; i < n; i++ {
			if cmp(i) >= 0 {
				out = append(out, int32(i))
			}
		}
	}
	return column.Ascending(out)
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
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
	default:
		return 0, fmt.Errorf("want numeric constant, got %T", v)
	}
}
