package expr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"robustdb/internal/column"
)

func resolver(cols ...column.Column) func(string) (column.Column, error) {
	m := make(map[string]column.Column)
	for _, c := range cols {
		m[c.Name()] = c
	}
	return func(name string) (column.Column, error) {
		if c, ok := m[name]; ok {
			return c, nil
		}
		return nil, errNotFound(name)
	}
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
		got, err := NewCmp("x", c.op, int64(3)).Eval(r)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		assertPos(t, c.op.String(), got, c.want)
	}
}

func TestCmpAcceptsIntConstants(t *testing.T) {
	col := column.NewInt64("x", []int64{5, 10})
	r := resolver(col)
	got, err := NewCmp("x", GE, 10).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "int const", got, []int32{1})
	got, err = NewCmp("x", LT, int32(10)).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "int32 const", got, []int32{0})
}

func TestCmpFloatAndDate(t *testing.T) {
	f := column.NewFloat64("f", []float64{0.5, 1.5, 2.5})
	d := column.NewDate("d", []int32{100, 200, 300})
	r := resolver(f, d)
	got, err := NewCmp("f", GT, 1.0).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "float", got, []int32{1, 2})
	// Integer constant against a float column is promoted.
	got, err = NewCmp("f", GE, 1).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "float-int", got, []int32{1, 2})
	got, err = NewCmp("d", LE, 200).Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "date", got, []int32{0, 1})
}

func TestCmpString(t *testing.T) {
	s := column.NewString("s", []string{"b", "a", "c", "b"})
	r := resolver(s)
	got, err := NewCmp("s", EQ, "b").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "eq", got, []int32{0, 3})
	got, err = NewCmp("s", GE, "b").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "ge", got, []int32{0, 2, 3})
	// Constants absent from the dictionary.
	got, err = NewCmp("s", EQ, "zzz").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "eq-absent", got, nil)
	got, err = NewCmp("s", NE, "zzz").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "ne-absent", got, []int32{0, 1, 2, 3})
	// "> ab" with "ab" absent: b, c qualify.
	got, err = NewCmp("s", GT, "ab").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "gt-absent", got, []int32{0, 2, 3})
	// "<= ab" with "ab" absent: only a qualifies.
	got, err = NewCmp("s", LE, "ab").Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "le-absent", got, []int32{1})
}

func TestCmpErrors(t *testing.T) {
	i := column.NewInt64("i", []int64{1})
	s := column.NewString("s", []string{"a"})
	r := resolver(i, s)
	if _, err := NewCmp("missing", EQ, 1).Eval(r); err == nil {
		t.Fatal("expected resolve error")
	}
	if _, err := NewCmp("i", EQ, "str").Eval(r); err == nil {
		t.Fatal("expected type error for string vs int column")
	}
	if _, err := NewCmp("s", EQ, 1).Eval(r); err == nil {
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
		got, err := NewBetween(col, 4, 6).Eval(r)
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		assertPos(t, col, got, []int32{1, 2})
	}
	s := column.NewString("s", []string{"a", "c", "e", "g"})
	rs := resolver(s)
	got, err := NewBetween("s", "b", "e").Eval(rs)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "string between", got, []int32{1, 2})
	// Absent upper bound.
	got, err = NewBetween("s", "a", "f").Eval(rs)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "string between absent hi", got, []int32{0, 1, 2})
	if _, err := NewBetween("s", 1, 2).Eval(rs); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := NewBetween("missing", 1, 2).Eval(r); err == nil {
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
	got, err := and.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "and", got, []int32{2, 3})
	or := NewOr(NewCmp("x", LE, 1), NewCmp("y", LE, 1))
	got, err = or.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "or", got, []int32{0, 5})
	in := NewIn("x", 2, 5, 99)
	got, err = in.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "in", got, []int32{1, 4})
	empty := NewIn("x")
	got, err = empty.Eval(r)
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
	if _, err := NewAnd().Eval(r); err == nil {
		t.Fatal("empty and should error")
	}
	if _, err := NewOr().Eval(r); err == nil {
		t.Fatal("empty or should error")
	}
	// Error propagation through composites.
	if _, err := NewAnd(NewCmp("missing", EQ, 1)).Eval(r); err == nil {
		t.Fatal("and should propagate errors")
	}
	if _, err := NewAnd(NewCmp("x", EQ, 1), NewCmp("missing", EQ, 1)).Eval(r); err == nil {
		t.Fatal("and should propagate errors from later operands")
	}
	if _, err := NewOr(NewCmp("missing", EQ, 1)).Eval(r); err == nil {
		t.Fatal("or should propagate errors")
	}
	if _, err := NewOr(NewCmp("x", EQ, 1), NewCmp("missing", EQ, 1)).Eval(r); err == nil {
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
		got, err := NewCmp("x", op, threshold).Eval(resolver(col))
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
		and, err1 := NewAnd(NewCmp("x", GE, a), NewCmp("x", LE, b)).Eval(r)
		btw, err2 := NewBetween("x", a, b).Eval(r)
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
