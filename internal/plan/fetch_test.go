package plan

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/expr"
)

// Late materialization: two positional selections, intersection, fetch —
// the pipeline shape of the paper's Appendix B.2 — must equal the direct
// conjunctive scan.
func TestPositionalPipelineMatchesDirectScan(t *testing.T) {
	cat := testCatalog()
	s1 := Scan("fact", nil, expr.NewCmp("qty", expr.GE, 20))
	s2 := Scan("fact", nil, expr.NewCmp("fk", expr.LE, 2))
	both := Intersect(s1, s2, "fact")
	fetch := Fetch(both, "fact", "fk", "qty", "price")
	p := New(fetch)

	var eval func(n *Node) *engine.Batch
	eval = func(n *Node) *engine.Batch {
		var inputs []*engine.Batch
		for _, c := range n.Children {
			inputs = append(inputs, eval(c))
		}
		out, err := n.Op.Execute(nil, cat, inputs)
		if err != nil {
			t.Fatalf("%s: %v", n.Op.Name(), err)
		}
		return out
	}
	got := eval(p.Root)

	direct, err := Scan("fact", []string{"fk", "qty", "price"}, expr.NewAnd(
		expr.NewCmp("qty", expr.GE, 20),
		expr.NewCmp("fk", expr.LE, 2),
	)).Op.Execute(nil, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != direct.NumRows() {
		t.Fatalf("pipeline %d rows, direct %d", got.NumRows(), direct.NumRows())
	}
	g := got.MustColumn("qty").(*column.Int64Column).Values
	d := direct.MustColumn("qty").(*column.Int64Column).Values
	for i := range g {
		if g[i] != d[i] {
			t.Fatalf("row %d: pipeline %d, direct %d", i, g[i], d[i])
		}
	}
}

func TestFetchMetadata(t *testing.T) {
	n := Fetch(Scan("fact", nil, nil), "fact", "qty", "price")
	if n.Op.Class() != cost.Materialize {
		t.Fatal("fetch class wrong")
	}
	if !strings.Contains(n.Op.Name(), "fetch(fact") {
		t.Fatalf("Name = %q", n.Op.Name())
	}
	cols := n.Op.BaseColumns()
	if len(cols) != 2 || cols[0] != "fact.qty" || cols[1] != "fact.price" {
		t.Fatalf("BaseColumns = %v", cols)
	}
	i := Intersect(nil, nil, "fact")
	if i.Op.Class() != cost.Selection || i.Op.BaseColumns() != nil {
		t.Fatal("intersect metadata wrong")
	}
	if !strings.Contains(i.Op.Name(), "intersect(fact)") {
		t.Fatalf("Name = %q", i.Op.Name())
	}
}

func TestFetchErrors(t *testing.T) {
	cat := testCatalog()
	rowids := engine.MustNewBatch(column.NewInt64("fact.rowid", []int64{0, 1}))
	op := &FetchOp{Table: "fact", Cols: []string{"qty"}}
	if _, err := op.Execute(nil, cat, nil); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := (&FetchOp{Table: "missing", Cols: []string{"x"}}).Execute(nil, cat,
		[]*engine.Batch{rowids}); err == nil {
		t.Fatal("expected unknown-table error")
	}
	noRowid := engine.MustNewBatch(column.NewInt64("other", []int64{0}))
	if _, err := op.Execute(nil, cat, []*engine.Batch{noRowid}); err == nil {
		t.Fatal("expected missing-rowid error")
	}
	wrongType := engine.MustNewBatch(column.NewFloat64("fact.rowid", []float64{0}))
	if _, err := op.Execute(nil, cat, []*engine.Batch{wrongType}); err == nil {
		t.Fatal("expected rowid-type error")
	}
	outOfRange := engine.MustNewBatch(column.NewInt64("fact.rowid", []int64{99999}))
	if _, err := op.Execute(nil, cat, []*engine.Batch{outOfRange}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	badCol := &FetchOp{Table: "fact", Cols: []string{"zz"}}
	if _, err := badCol.Execute(nil, cat, []*engine.Batch{rowids}); err == nil {
		t.Fatal("expected unknown-column error")
	}
}

func TestIntersectErrors(t *testing.T) {
	cat := testCatalog()
	a := engine.MustNewBatch(column.NewInt64("fact.rowid", []int64{0, 1}))
	op := &IntersectOp{Table: "fact"}
	if _, err := op.Execute(nil, cat, []*engine.Batch{a}); err == nil {
		t.Fatal("expected arity error")
	}
	noRowid := engine.MustNewBatch(column.NewInt64("other", []int64{0}))
	if _, err := op.Execute(nil, cat, []*engine.Batch{a, noRowid}); err == nil {
		t.Fatal("expected missing-rowid error")
	}
	wrongType := engine.MustNewBatch(column.NewFloat64("fact.rowid", []float64{0}))
	if _, err := op.Execute(nil, cat, []*engine.Batch{a, wrongType}); err == nil {
		t.Fatal("expected rowid-type error")
	}
}

// Row ids reach Fetch and Intersect through the public plan API from any
// child — a Sort below an Intersect is expressible — so both check what they
// narrow to positions: Fetch that every id is a row of the table, in any
// order; Intersect that its inputs fit a position and ascend strictly, which
// its merge silently relies on.
func TestRowIDInputsAreChecked(t *testing.T) {
	cat := testCatalog() // fact has 5 rows
	ids := func(v ...int64) *engine.Batch { return engine.MustNewBatch(column.NewInt64("fact.rowid", v)) }
	fetch, intersect := Fetch(nil, "fact", "qty").Op, Intersect(nil, nil, "fact").Op
	for _, c := range []struct {
		name   string
		op     Operator
		inputs []*engine.Batch
		want   []int64 // qty fetched, or row ids intersected; nil: a RowIDError
		bad    int64   // the row id the error names
	}{
		{"fetch every row", fetch, []*engine.Batch{ids(0, 1, 2, 3, 4)}, []int64{10, 20, 30, 40, 50}, 0},
		{"fetch a run", fetch, []*engine.Batch{ids(1, 2, 3)}, []int64{20, 30, 40}, 0},
		{"fetch unordered with repeats", fetch, []*engine.Batch{ids(4, 0, 4, 2)}, []int64{50, 10, 50, 30}, 0},
		{"fetch a permutation whose ends look like a run", fetch, []*engine.Batch{ids(0, 2, 1, 3)}, []int64{10, 30, 20, 40}, 0},
		{"fetch nothing", fetch, []*engine.Batch{ids()}, []int64{}, 0},
		{"fetch negative", fetch, []*engine.Batch{ids(1, -1)}, nil, -1},
		{"fetch past the table", fetch, []*engine.Batch{ids(0, 5)}, nil, 5},
		{"intersect", intersect, []*engine.Batch{ids(0, 1, 3, 4), ids(1, 2, 3)}, []int64{1, 3}, 0},
		{"intersect runs", intersect, []*engine.Batch{ids(0, 1, 2, 3), ids(2, 3, 4)}, []int64{2, 3}, 0},
		{"intersect with nothing", intersect, []*engine.Batch{ids(0, 1), ids()}, []int64{}, 0},
		{"intersect negative", intersect, []*engine.Batch{ids(-3, 1), ids(1)}, nil, -3},
		{"intersect beyond int32", intersect, []*engine.Batch{ids(1), ids(1, 1<<31)}, nil, 1 << 31},
		{"intersect wraps to a valid position", intersect, []*engine.Batch{ids(1), ids(1, 1<<32+2)}, nil, 1<<32 + 2},
		{"intersect unsorted", intersect, []*engine.Batch{ids(3, 1, 2), ids(1, 2, 3)}, nil, 1},
		{"intersect repeated", intersect, []*engine.Batch{ids(1, 2), ids(1, 2, 2)}, nil, 2},
	} {
		out, err := c.op.Execute(nil, cat, c.inputs)
		if c.want == nil {
			var bad *RowIDError
			if !errors.As(err, &bad) || bad.RowID != c.bad || bad.Op != c.op.Name() {
				t.Errorf("%s: error %v, want a RowIDError of %s naming row id %d", c.name, err, c.op.Name(), c.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := out.Columns()[0].(*column.Int64Column).Values; !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	// A fetch of every row copies nothing: the column is the table's own.
	out, err := fetch.Execute(nil, cat, []*engine.Batch{ids(0, 1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	base := cat.MustTable("fact").MustColumn("qty").(*column.Int64Column).Values
	if got := out.MustColumn("qty").(*column.Int64Column).Values; &got[0] != &base[0] {
		t.Error("a fetch of every row copied the column")
	}
}

func TestScanOverCompressedColumns(t *testing.T) {
	cat := testCatalog().Compressed()
	// Predicate + gather over compressed base columns must match the raw run.
	raw, err := Scan("fact", []string{"fk", "qty"}, expr.NewCmp("qty", expr.GE, 30)).
		Op.Execute(nil, testCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Scan("fact", []string{"fk", "qty"}, expr.NewCmp("qty", expr.GE, 30)).
		Op.Execute(nil, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumRows() != comp.NumRows() {
		t.Fatalf("rows: raw %d comp %d", raw.NumRows(), comp.NumRows())
	}
	// Late materialization: the gathered column keeps its stored encoding.
	if enc := column.Encoding(comp.MustColumn("fk")); enc != "bitpack" {
		t.Fatalf("compressed scan materialized fk to %q", enc)
	}
	r := raw.MustColumn("fk").(*column.Int64Column).Values
	c := column.Materialized(comp.MustColumn("fk")).(*column.Int64Column).Values
	for i := range r {
		if r[i] != c[i] {
			t.Fatalf("row %d: raw %d comp %d", i, r[i], c[i])
		}
	}
}
