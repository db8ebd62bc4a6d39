package expr

import (
	"testing"

	"robustdb/internal/column"
)

func TestCmpColsBasic(t *testing.T) {
	a := column.NewInt64("a", []int64{1, 5, 3})
	b := column.NewInt64("b", []int64{2, 4, 3})
	r := resolver(a, b)
	got, err := NewCmpCols("a", LT, "b").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "lt", got, []int32{0})
	got, err = NewCmpCols("a", EQ, "b").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "eq", got, []int32{2})
	got, err = NewCmpCols("a", GE, "b").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "ge", got, []int32{1, 2})
}

func TestCmpColsMixedTypes(t *testing.T) {
	d := column.NewDate("commit", []int32{10, 30})
	e := column.NewDate("receipt", []int32{20, 25})
	f := column.NewFloat64("f", []float64{15, 27})
	r := resolver(d, e, f)
	got, err := NewCmpCols("commit", LT, "receipt").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "dates", got, []int32{0})
	got, err = NewCmpCols("commit", LT, "f").Eval(r.all())
	if err != nil {
		t.Fatal(err)
	}
	assertPos(t, "date-float", got, []int32{0})
}

func TestCmpColsErrors(t *testing.T) {
	a := column.NewInt64("a", []int64{1})
	s := column.NewString("s", []string{"x"})
	short := column.NewInt64("short", []int64{})
	r := resolver(a, s, short)
	if _, err := NewCmpCols("missing", LT, "a").Eval(r.all()); err == nil {
		t.Fatal("expected resolve error left")
	}
	if _, err := NewCmpCols("a", LT, "missing").Eval(r.all()); err == nil {
		t.Fatal("expected resolve error right")
	}
	if _, err := NewCmpCols("s", LT, "a").Eval(r.all()); err == nil {
		t.Fatal("expected non-numeric error left")
	}
	if _, err := NewCmpCols("a", LT, "s").Eval(r.all()); err == nil {
		t.Fatal("expected non-numeric error right")
	}
	if _, err := NewCmpCols("a", LT, "short").Eval(r.all()); err == nil {
		t.Fatal("expected length mismatch error")
	}
	for _, op := range []CmpOp{GE + 1, 255} {
		if _, err := NewCmpCols("a", op, "a").Eval(r.all()); err == nil {
			t.Fatalf("expected unknown operator error for %s", op)
		}
	}
}

func TestCmpColsMetadata(t *testing.T) {
	c := NewCmpCols("a", LT, "b")
	if c.String() != "a < b" {
		t.Fatalf("String = %q", c.String())
	}
	cols := c.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
	self := NewCmpCols("a", EQ, "a")
	if cols := self.Columns(); len(cols) != 1 {
		t.Fatalf("self-compare Columns = %v", cols)
	}
}
