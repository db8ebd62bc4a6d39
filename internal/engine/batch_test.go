package engine

import (
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/expr"
	"robustdb/internal/table"
)

func sampleBatch() *Batch {
	return MustNewBatch(
		column.NewInt64("id", []int64{1, 2, 3, 4}),
		column.NewFloat64("price", []float64{10, 20, 30, 40}),
		column.NewString("city", []string{"b", "a", "b", "c"}),
	)
}

func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(
		column.NewInt64("a", []int64{1}),
		column.NewInt64("b", []int64{1, 2}),
	); err == nil {
		t.Fatal("expected ragged-length error")
	}
	if _, err := NewBatch(
		column.NewInt64("a", []int64{1}),
		column.NewInt64("a", []int64{2}),
	); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	empty, err := NewBatch()
	if err != nil || empty.NumRows() != 0 || empty.NumColumns() != 0 {
		t.Fatalf("empty batch: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewBatch should panic")
		}
	}()
	MustNewBatch(column.NewInt64("a", []int64{1}), column.NewInt64("a", []int64{1}))
}

func TestBatchAccessors(t *testing.T) {
	b := sampleBatch()
	if b.NumRows() != 4 || b.NumColumns() != 3 {
		t.Fatalf("shape wrong")
	}
	if !b.Has("id") || b.Has("zz") {
		t.Fatal("Has wrong")
	}
	if _, err := b.Column("zz"); err == nil {
		t.Fatal("expected missing-column error")
	}
	names := b.ColumnNames()
	if len(names) != 3 || names[0] != "id" {
		t.Fatalf("ColumnNames = %v", names)
	}
	if len(b.Columns()) != 3 {
		t.Fatal("Columns wrong")
	}
	if b.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
	mustPanic(t, func() { b.MustColumn("zz") })
}

func TestFromTable(t *testing.T) {
	tb := table.MustNew("t", column.NewInt64("a", []int64{7}))
	b := FromTable(tb)
	if b.NumRows() != 1 || b.MustColumn("a").(*column.Int64Column).Values[0] != 7 {
		t.Fatal("FromTable wrong")
	}
}

func TestProjectExtendGather(t *testing.T) {
	b := sampleBatch()
	p, err := b.Project("price", "id")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumColumns() != 2 || p.ColumnNames()[0] != "price" {
		t.Fatalf("Project = %v", p.ColumnNames())
	}
	if _, err := b.Project("zz"); err == nil {
		t.Fatal("expected Project error")
	}
	e, err := b.Extend(column.NewInt64("extra", []int64{9, 9, 9, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if e.NumColumns() != 4 || !e.Has("extra") {
		t.Fatal("Extend wrong")
	}
	if _, err := b.Extend(column.NewInt64("id", []int64{9, 9, 9, 9})); err == nil {
		t.Fatal("Extend with duplicate name should fail")
	}
	g := b.Gather(column.Positions([]int32{3, 0}))
	if g.NumRows() != 2 || g.MustColumn("id").(*column.Int64Column).Values[0] != 4 {
		t.Fatal("Gather wrong")
	}
}

func TestFilterAndSelect(t *testing.T) {
	b := sampleBatch()
	pos, err := Filter(nil, b, expr.NewCmp("price", expr.GE, 20.0))
	if err != nil {
		t.Fatal(err)
	}
	if pos.Len() != 3 || pos.Explicit()[0] != 1 {
		t.Fatalf("Filter = %v", pos.Explicit())
	}
	sel, err := Select(nil, b, expr.NewCmp("city", expr.EQ, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumRows() != 2 {
		t.Fatalf("Select rows = %d", sel.NumRows())
	}
	ids := sel.MustColumn("id").(*column.Int64Column).Values
	if ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("Select ids = %v", ids)
	}
	if _, err := Select(nil, b, expr.NewCmp("zz", expr.EQ, 1)); err == nil {
		t.Fatal("expected Select error")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
