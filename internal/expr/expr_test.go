package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"robustdb/internal/column"
)

// testCols is a relation by name; all is what Eval takes to filter every row
// of it (the row count is the first column's).
type testCols []column.Column

func resolver(cols ...column.Column) testCols { return cols }

func (cols testCols) all() (Resolver, column.PosList) {
	return func(name string) (column.Column, error) {
		for _, c := range cols {
			if c.Name() == name {
				return c, nil
			}
		}
		return nil, errNotFound(name)
	}, column.All(cols[0].Len())
}

type errNotFound string

func (e errNotFound) Error() string { return "no column " + string(e) }

func TestCmpOpString(t *testing.T) {
	want := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if CmpOp(42).String() != "op(42)" {
		t.Errorf("unknown op rendering wrong")
	}
}

func TestCmpInt64AllOps(t *testing.T) {
	col := column.NewInt64("x", []int64{1, 2, 3, 4, 5})
	r := resolver(col)
	cases := []struct {
		op   CmpOp
		want []int32
	}{
		{EQ, []int32{2}},
		{NE, []int32{0, 1, 3, 4}},
		{LT, []int32{0, 1}},
		{LE, []int32{0, 1, 2}},
		{GT, []int32{3, 4}},
		{GE, []int32{2, 3, 4}},
	}
	for _, c := range cases {
		got, err := NewCmp("x", c.op, int64(3)).Eval(r.all())
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		assertPos(t, c.op.String(), got, c.want)
	}
}

func TestCmpAcceptsIntConstants(t *testing.T) {
	col := column.NewInt64("x", []int64{5, 10})
	r := resolver(col)
	got, err := NewCmp("x", GE, 10).Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "int const", got, []int32{1})
	got, err = NewCmp("x", LT, int32(10)).Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "int32 const", got, []int32{0})
}

func TestCmpFloatAndDate(t *testing.T) {
	f := column.NewFloat64("f", []float64{0.5, 1.5, 2.5})
	d := column.NewDate("d", []int32{100, 200, 300})
	r := resolver(f, d)
	got, err := NewCmp("f", GT, 1.0).Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "float", got, []int32{1, 2})
	// Integer constant against a float column is promoted.
	got, err = NewCmp("f", GE, 1).Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "float-int", got, []int32{1, 2})
	got, err = NewCmp("d", LE, 200).Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "date", got, []int32{0, 1})
}

func TestCmpString(t *testing.T) {
	s := column.NewString("s", []string{"b", "a", "c", "b"})
	r := resolver(s)
	got, err := NewCmp("s", EQ, "b").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "eq", got, []int32{0, 3})
	got, err = NewCmp("s", GE, "b").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "ge", got, []int32{0, 2, 3})
	// Constants absent from the dictionary.
	got, err = NewCmp("s", EQ, "zzz").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "eq-absent", got, nil)
	got, err = NewCmp("s", NE, "zzz").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "ne-absent", got, []int32{0, 1, 2, 3})
	// "> ab" with "ab" absent: b, c qualify.
	got, err = NewCmp("s", GT, "ab").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "gt-absent", got, []int32{0, 2, 3})
	// "<= ab" with "ab" absent: only a qualifies.
	got, err = NewCmp("s", LE, "ab").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "le-absent", got, []int32{1})
}

func TestCmpErrors(t *testing.T) {
	i := column.NewInt64("i", []int64{1})
	s := column.NewString("s", []string{"a"})
	r := resolver(i, s)
	if _, err := NewCmp("missing", EQ, 1).Eval(r.all()); err == nil {
		t.Fatal("expected resolve error")
	}
	if _, err := NewCmp("i", EQ, "str").Eval(r.all()); err == nil {
		t.Fatal("expected type error for string vs int column")
	}
	if _, err := NewCmp("s", EQ, 1).Eval(r.all()); err == nil {
		t.Fatal("expected type error for int vs string column")
	}
	if got := NewCmp("i", LT, 5).String(); got != "i < 5" {
		t.Fatalf("String() = %q", got)
	}
	if cols := NewCmp("i", LT, 5).Columns(); len(cols) != 1 || cols[0] != "i" {
		t.Fatalf("Columns() = %v", cols)
	}
}

func TestBetween(t *testing.T) {
	i := column.NewInt64("i", []int64{1, 4, 6, 10})
	f := column.NewFloat64("f", []float64{1, 4, 6, 10})
	d := column.NewDate("d", []int32{1, 4, 6, 10})
	r := resolver(i, f, d)
	for _, col := range []string{"i", "f", "d"} {
		got, err := NewBetween(col, 4, 6).Eval(r.all())
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		assertPos(t, col, got, []int32{1, 2})
	}
	s := column.NewString("s", []string{"a", "c", "e", "g"})
	rs := resolver(s)
	got, err := NewBetween("s", "b", "e").Eval(rs.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "string between", got, []int32{1, 2})
	// Absent upper bound.
	got, err = NewBetween("s", "a", "f").Eval(rs.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "string between absent hi", got, []int32{0, 1, 2})
	if _, err := NewBetween("s", 1, 2).Eval(rs.all()); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := NewBetween("missing", 1, 2).Eval(r.all()); err == nil {
		t.Fatal("expected resolve error")
	}
	if got := NewBetween("i", 4, 6).String(); got != "i between 4 and 6" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAndOrIn(t *testing.T) {
	x := column.NewInt64("x", []int64{1, 2, 3, 4, 5, 6})
	y := column.NewInt64("y", []int64{6, 5, 4, 3, 2, 1})
	r := resolver(x, y)
	and := NewAnd(NewCmp("x", GE, 3), NewCmp("y", GE, 3))
	got, err := and.Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "and", got, []int32{2, 3})
	or := NewOr(NewCmp("x", LE, 1), NewCmp("y", LE, 1))
	got, err = or.Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "or", got, []int32{0, 5})
	in := NewIn("x", 2, 5, 99)
	got, err = in.Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "in", got, []int32{1, 4})
	empty := NewIn("x")
	got, err = empty.Eval(r.all())
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty in: %v %v", got, err)
	}
	cols := and.Columns()
	if len(cols) != 2 || cols[0] != "x" || cols[1] != "y" {
		t.Fatalf("Columns = %v", cols)
	}
	if and.String() != "(x >= 3 and y >= 3)" {
		t.Fatalf("And.String = %q", and.String())
	}
	if or.String() != "(x <= 1 or y <= 1)" {
		t.Fatalf("Or.String = %q", or.String())
	}
	if in.String() == "" || len(in.Columns()) != 1 {
		t.Fatal("In rendering wrong")
	}
	if _, err := NewAnd().Eval(r.all()); err == nil {
		t.Fatal("empty and should error")
	}
	if _, err := NewOr().Eval(r.all()); err == nil {
		t.Fatal("empty or should error")
	}
	// Error propagation through composites.
	if _, err := NewAnd(NewCmp("missing", EQ, 1)).Eval(r.all()); err == nil {
		t.Fatal("and should propagate errors")
	}
	if _, err := NewAnd(NewCmp("x", EQ, 1), NewCmp("missing", EQ, 1)).Eval(r.all()); err == nil {
		t.Fatal("and should propagate errors from later operands")
	}
	if _, err := NewOr(NewCmp("missing", EQ, 1)).Eval(r.all()); err == nil {
		t.Fatal("or should propagate errors")
	}
	if _, err := NewOr(NewCmp("x", EQ, 1), NewCmp("missing", EQ, 1)).Eval(r.all()); err == nil {
		t.Fatal("or should propagate errors from later operands")
	}
}

// Property: every predicate result equals a row-at-a-time reference filter.
func TestCmpMatchesReference(t *testing.T) {
	f := func(seed int64, threshold int64, opRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(20)
		}
		threshold = threshold % 20
		op := CmpOp(opRaw % 6)
		col := column.NewInt64("x", vals)
		got, err := NewCmp("x", op, threshold).Eval(resolver(col).all())
		if err != nil {
			return false
		}
		var want []int32
		for i, v := range vals {
			keep := false
			switch op {
			case EQ:
				keep = v == threshold
			case NE:
				keep = v != threshold
			case LT:
				keep = v < threshold
			case LE:
				keep = v <= threshold
			case GT:
				keep = v > threshold
			case GE:
				keep = v >= threshold
			}
			if keep {
				want = append(want, int32(i))
			}
		}
		return slices.Equal(got.Explicit(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: And(p, q) == positions where both hold; Or likewise.
func TestCompositeMatchesReference(t *testing.T) {
	f := func(seed int64, a, b int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 150
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(10)
		}
		a, b = a%10, b%10
		col := column.NewInt64("x", vals)
		r := resolver(col)
		and, err1 := NewAnd(NewCmp("x", GE, a), NewCmp("x", LE, b)).Eval(r.all())
		btw, err2 := NewBetween("x", a, b).Eval(r.all())
		if err1 != nil || err2 != nil {
			return false
		}
		return slices.Equal(and.Explicit(), btw.Explicit())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func assertPos(t *testing.T, label string, got column.PosList, want []int32) {
	t.Helper()
	if !slices.Equal(got.Explicit(), want) {
		t.Fatalf("%s: got %v, want %v", label, got.Explicit(), want)
	}
}

// refHolds is "l op r" the way Go — and IEEE 754 for floats — evaluates it.
func refHolds[T int64 | float64](op CmpOp, l, r T) bool {
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

// Float comparisons are IEEE comparisons: a NaN row is selected by <> and by
// nothing else (it used to count as equal to every constant), the two zeros
// are one value, nothing lies below −Inf or above +Inf, and an inverted
// BETWEEN is empty. The column-vs-column comparison follows the same rule.
func TestFloatComparisonsAreIEEE(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{nan, -inf, -1.5, math.Copysign(0, -1), 0, 5, math.MaxFloat64, inf, nan}
	fives, nans := make([]float64, len(vals)), make([]float64, len(vals))
	for i := range vals {
		fives[i], nans[i] = 5, nan
	}
	r := resolver(column.NewFloat64("x", vals), column.NewFloat64("y", fives), column.NewFloat64("z", nans))
	for _, v := range []float64{5, 0, math.Copysign(0, -1), -inf, inf, nan, -1.5, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		for op := EQ; op <= GE; op++ {
			var want []int32
			for i, x := range vals {
				if refHolds(op, x, v) {
					want = append(want, int32(i))
				}
			}
			got, err := NewCmp("x", op, v).Eval(r.all())
			if err != nil {
				t.Fatal(err)
			}
			assertPos(t, fmt.Sprintf("x %s %v", op, v), got, want)
		}
	}
	for op := EQ; op <= GE; op++ {
		var wantY, wantZ []int32
		for i, x := range vals {
			if refHolds(op, x, 5) {
				wantY = append(wantY, int32(i))
			}
			if refHolds(op, x, nan) {
				wantZ = append(wantZ, int32(i))
			}
		}
		gotY, errY := NewCmpCols("x", op, "y").Eval(r.all())
		gotZ, errZ := NewCmpCols("x", op, "z").Eval(r.all())
		if errY != nil || errZ != nil {
			t.Fatal(errY, errZ)
		}
		assertPos(t, fmt.Sprintf("x %s y", op), gotY, wantY)
		assertPos(t, fmt.Sprintf("x %s nan column", op), gotZ, wantZ)
	}
	// The cases by hand, so that the reference above is not all there is.
	for _, c := range []struct {
		p    Predicate
		want []int32
	}{
		{NewCmp("x", NE, 5.0), []int32{0, 1, 2, 3, 4, 6, 7, 8}},
		{NewCmp("x", EQ, 5.0), []int32{5}},
		{NewCmp("x", LE, 5.0), []int32{1, 2, 3, 4, 5}},
		{NewCmp("x", GE, 5.0), []int32{5, 6, 7}},
		{NewCmp("x", LT, -inf), nil},
		{NewCmp("x", GT, inf), nil},
		{NewCmp("x", LE, -inf), []int32{1}},
		{NewCmp("x", EQ, 0.0), []int32{3, 4}},
		{NewCmp("x", LT, 0.0), []int32{1, 2}},
		{NewCmp("x", GT, math.Copysign(0, -1)), []int32{5, 6, 7}},
		{NewBetween("x", 5.0, -1.5), nil},
		{NewBetween("x", -inf, inf), []int32{1, 2, 3, 4, 5, 6, 7}},
		{NewCmpCols("x", EQ, "y"), []int32{5}},
		{NewCmpCols("x", NE, "y"), []int32{0, 1, 2, 3, 4, 6, 7, 8}},
	} {
		got, err := c.p.Eval(r.all())
		if err != nil {
			t.Fatal(err)
		}
		assertPos(t, c.p.String(), got, c.want)
	}
}

// Integer comparisons hold at the ends of the domain: nothing is below
// MinInt64 or above MaxInt64, and a date — an int32 in storage — compares
// with constants no int32 can hold, in every encoding.
func TestIntegerComparisonsAtTheExtremes(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 7, math.MaxInt64}
	dates := []int32{math.MinInt32, -1, 0, 7, math.MaxInt32}
	ints := column.NewInt64("x", vals)
	days := column.NewDate("x", dates)
	for _, col := range []column.Column{ints, column.Compress(ints), days, column.Compress(days)} {
		r := resolver(col)
		for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32 - 1, math.MinInt32, 0, 7,
			math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64 - 1, math.MaxInt64} {
			for op := EQ; op <= GE; op++ {
				var want []int32
				for i := range vals {
					x := vals[i]
					if col.Type() == column.Date {
						x = int64(dates[i])
					}
					if refHolds(op, x, v) {
						want = append(want, int32(i))
					}
				}
				got, err := NewCmp("x", op, v).Eval(r.all())
				if err != nil {
					t.Fatal(err)
				}
				assertPos(t, fmt.Sprintf("%T: x %s %d", col, op, v), got, want)
			}
		}
		for _, c := range []struct {
			p    Predicate
			want []int32
		}{
			{NewCmp("x", LT, int64(math.MinInt64)), nil},
			{NewCmp("x", GT, int64(math.MaxInt64)), nil},
			{NewCmp("x", GE, int64(math.MinInt64)), []int32{0, 1, 2, 3, 4}},
			{NewCmp("x", LE, int64(math.MaxInt64)), []int32{0, 1, 2, 3, 4}},
			{NewBetween("x", 7, 0), nil},
			{NewBetween("x", int64(math.MinInt64), int64(math.MaxInt64)), []int32{0, 1, 2, 3, 4}},
		} {
			got, err := c.p.Eval(r.all())
			if err != nil {
				t.Fatal(err)
			}
			assertPos(t, fmt.Sprintf("%T: %s", col, c.p), got, c.want)
		}
	}
}

// A predicate asked about rows [lo, hi) answers with rows of the column, and
// the answers over a partition are the answer over the whole.
func TestEvalOverRowRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 1000
	vals := make([]int64, n)
	strs := make([]string, n)
	flts := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Int63n(50)
		strs[i] = string(rune('a' + rng.Intn(20)))
		flts[i] = rng.Float64()
	}
	ints := column.NewInt64("i", vals)
	resolve, _ := resolver(ints, column.NewString("s", strs), column.NewFloat64("f", flts),
		column.CompressInt64(column.NewInt64("p", vals)), column.CompressInt64(column.NewInt64("r", vals))).all()
	for _, p := range []Predicate{
		NewCmp("i", LT, 20), NewCmp("s", GE, "k"), NewCmp("s", NE, "kk"), NewCmp("f", GT, 0.5), NewCmp("p", NE, 7),
		NewBetween("r", 10, 30), NewBetween("s", "c", "m"), NewIn("p", 1, 2, 3), NewCmpCols("i", LE, "f"),
		NewAnd(NewCmp("i", GE, 5), NewOr(NewCmp("f", LT, 0.1), NewCmp("s", EQ, "b")), NewBetween("p", 0, 40)),
	} {
		whole, err := p.Eval(resolve, column.All(n))
		if err != nil {
			t.Fatal(err)
		}
		var parts []column.PosList
		for _, cut := range [][2]int{{0, 1}, {1, 130}, {130, 130}, {130, 777}, {777, n}} {
			part, err := p.Eval(resolve, column.Range(cut[0], cut[1]))
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range part.Explicit() {
				if int(pos) < cut[0] || int(pos) >= cut[1] {
					t.Fatalf("%s over [%d,%d) selected row %d", p, cut[0], cut[1], pos)
				}
			}
			parts = append(parts, part)
		}
		assertPos(t, p.String(), column.Concat(parts), whole.Explicit())
	}
}
