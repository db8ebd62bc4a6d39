package plan

import (
	"slices"
	"strings"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/expr"
	"robustdb/internal/table"
)

func testCatalog() *table.Catalog {
	cat := table.NewCatalog()
	cat.MustRegister(table.MustNew("fact",
		column.NewInt64("fk", []int64{1, 2, 1, 3, 2}),
		column.NewInt64("qty", []int64{10, 20, 30, 40, 50}),
		column.NewFloat64("price", []float64{1, 2, 3, 4, 5}),
	))
	cat.MustRegister(table.MustNew("dim",
		column.NewInt64("dk", []int64{1, 2, 3}),
		column.NewString("name", []string{"a", "b", "c"}),
	))
	return cat
}

func starPlan() *Plan {
	dim := Scan("dim", []string{"dk", "name"}, expr.NewCmp("name", expr.NE, "c"))
	fact := Scan("fact", []string{"fk", "qty", "price"}, expr.NewCmp("qty", expr.GE, 20))
	j := Join(dim, fact, "dk", "fk", []string{"name"}, []string{"qty", "price"})
	c := Compute(j, "rev", "qty", engine.Mul, "price")
	a := Aggregate(c, []string{"name"}, []engine.AggSpec{{Func: engine.Sum, Col: "rev", As: "sum_rev"}})
	s := Sort(a, engine.SortKey{Col: "sum_rev", Desc: true})
	return New(s)
}

func TestPlanNumbering(t *testing.T) {
	p := starPlan()
	nodes := p.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("nodes = %d, want 6", len(nodes))
	}
	// Post-order: root last.
	if nodes[len(nodes)-1] != p.Root {
		t.Fatal("root must be numbered last")
	}
	for i, n := range nodes {
		if n.ID() != i {
			t.Fatalf("node %d has id %d", i, n.ID())
		}
		for _, c := range n.Children {
			if c.ID() >= n.ID() {
				t.Fatal("children must be numbered before parents")
			}
		}
	}
}

func TestPlanLeavesAndParent(t *testing.T) {
	p := starPlan()
	leaves := p.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	for _, l := range leaves {
		if _, ok := l.Op.(*ScanOp); !ok {
			t.Fatal("leaves should be scans")
		}
	}
	join := p.Root.Children[0].Children[0].Children[0]
	if !slices.Contains(join.Children, leaves[0]) {
		t.Fatal("the first leaf should hang under the join")
	}
}

func TestPlanBaseColumns(t *testing.T) {
	p := starPlan()
	cols := p.BaseColumns()
	want := map[table.ColumnID]bool{
		"dim.name": true, "dim.dk": true,
		"fact.qty": true, "fact.fk": true, "fact.price": true,
	}
	if len(cols) != len(want) {
		t.Fatalf("base columns = %v", cols)
	}
	for _, c := range cols {
		if !want[c] {
			t.Fatalf("unexpected base column %s", c)
		}
	}
}

func TestPlanString(t *testing.T) {
	s := starPlan().String()
	for _, frag := range []string{"scan(dim", "join(dk=fk)", "aggregate", "sort"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestEstimateSizes(t *testing.T) {
	cat := testCatalog()
	p := starPlan()
	if err := p.EstimateSizes(cat); err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Nodes() {
		if n.EstInBytes < 0 || n.EstOutBytes <= 0 {
			t.Fatalf("node %d has estimates in=%d out=%d", n.ID(), n.EstInBytes, n.EstOutBytes)
		}
	}
	// A selection's output estimate must be below its input.
	leaf := p.Leaves()[1] // fact scan
	if leaf.EstOutBytes >= leaf.EstInBytes {
		t.Fatal("selection estimate should reduce volume")
	}
	// Error path: unknown table.
	bad := New(Scan("missing", []string{"x"}, nil))
	if err := bad.EstimateSizes(cat); err == nil {
		t.Fatal("expected estimate error for unknown table")
	}
}

func TestEndToEndExecution(t *testing.T) {
	cat := testCatalog()
	p := starPlan()
	// Execute the plan bottom-up directly (no simulator): results must be
	// exact regardless of placement machinery.
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
	out := eval(p.Root)
	// qty>=20: rows (fk,qty,price) = (2,20,2),(1,30,3),(3,40,4),(2,50,5);
	// dim name != c keeps dk 1,2. Join keeps fk in {1,2}:
	// (b,20*2=40),(a,30*3=90),(b,50*5=250) → sums: a=90, b=290.
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", out.NumRows())
	}
	names := out.MustColumn("name").(*column.StringColumn)
	sums := out.MustColumn("sum_rev").(*column.Float64Column).Values
	if names.Value(0) != "b" || sums[0] != 290 {
		t.Fatalf("first row = %s %v", names.Value(0), sums[0])
	}
	if names.Value(1) != "a" || sums[1] != 90 {
		t.Fatalf("second row = %s %v", names.Value(1), sums[1])
	}
}

func TestScanVariants(t *testing.T) {
	cat := testCatalog()
	// Rowid-only scan (selection micro-benchmark shape).
	n := Scan("fact", nil, expr.NewCmp("qty", expr.GE, 30))
	out, err := n.Op.Execute(nil, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := out.MustColumn("fact.rowid").(*column.Int64Column).Values
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 3 || ids[2] != 4 {
		t.Fatalf("rowids = %v", ids)
	}
	// Unfiltered scan.
	n = Scan("dim", []string{"name"}, nil)
	out, err = n.Op.Execute(nil, cat, nil)
	if err != nil || out.NumRows() != 3 {
		t.Fatalf("unfiltered scan: %v, rows=%d", err, out.NumRows())
	}
	// Error paths.
	if _, err := Scan("missing", nil, nil).Op.Execute(nil, cat, nil); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if _, err := Scan("fact", []string{"zz"}, nil).Op.Execute(nil, cat, nil); err == nil {
		t.Fatal("expected unknown-column error")
	}
	if _, err := Scan("fact", nil, expr.NewCmp("zz", expr.EQ, 1)).Op.Execute(nil, cat, nil); err == nil {
		t.Fatal("expected predicate error")
	}
}

// An identity scan — no predicate — selects its chunk as a range: constant
// work and no list written, whatever the chunk's size, and the stitched chunks
// of a whole table materialize as views of the base columns.
func TestIdentityScanWritesNoList(t *testing.T) {
	const n = 1 << 20
	cat := table.NewCatalog()
	vals := make([]int64, n)
	cat.MustRegister(table.MustNew("big", column.NewInt64("v", vals)))
	scan := Scan("big", []string{"v"}, nil).Op.(*ScanOp)
	chunks := make([]column.PosList, 2)
	allocs := testing.AllocsPerRun(50, func() {
		for i := range chunks {
			pos, err := scan.FilterChunk(nil, cat, i*n/2, (i+1)*n/2)
			if _, _, isRange := pos.AsRange(); err != nil || !isRange || pos.Len() != n/2 {
				t.Fatalf("chunk %d: %d positions, range %v (%v)", i, pos.Len(), isRange, err)
			}
			chunks[i] = pos
		}
		if lo, hi, isRange := column.Concat(chunks).AsRange(); !isRange || lo != 0 || hi != n {
			t.Fatalf("stitched chunks: [%d, %d), range %v", lo, hi, isRange)
		}
	})
	if allocs != 0 {
		t.Fatalf("identity scan of %d rows: %v allocations, want 0", n, allocs)
	}
	out, err := scan.MaterializeResult(nil, cat, column.Concat(chunks))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.MustColumn("v").(*column.Int64Column).Values; len(got) != n || &got[0] != &vals[0] {
		t.Fatal("the identity scan copied the column")
	}
}

func TestOperatorMetadata(t *testing.T) {
	scan := Scan("fact", []string{"qty"}, expr.NewCmp("qty", expr.GE, 1))
	if scan.Op.Class() != cost.Selection || !strings.Contains(scan.Op.Name(), "scan") {
		t.Fatal("scan metadata wrong")
	}
	if len(scan.Op.BaseColumns()) != 1 { // qty used as filter and output
		t.Fatalf("scan base columns = %v", scan.Op.BaseColumns())
	}
	// Placement asks every scan for its base columns several times an
	// attempt: the list is made once, with the node.
	if n := testing.AllocsPerRun(10, func() { scan.Op.BaseColumns() }); n != 0 {
		t.Fatalf("a scan's base columns cost %v allocations a call, want 0", n)
	}
	f := Filter(scan, expr.NewCmp("qty", expr.LT, 100))
	if f.Op.Class() != cost.Selection || f.Op.BaseColumns() != nil {
		t.Fatal("filter metadata wrong")
	}
	pr := Project(f, "qty")
	if pr.Op.Class() != cost.Materialize || !strings.Contains(pr.Op.Name(), "project") {
		t.Fatal("project metadata wrong")
	}
	cpc := ComputeConst(pr, "x", "qty", engine.Mul, 2)
	if cpc.Op.Class() != cost.Compute || !strings.Contains(cpc.Op.Name(), "x=qty*2") {
		t.Fatalf("compute-const metadata wrong: %s", cpc.Op.Name())
	}
	cpl := ComputeConstLeft(pr, "y", 1, engine.Sub, "qty")
	if !strings.Contains(cpl.Op.Name(), "y=1-qty") {
		t.Fatalf("compute-const-left name: %s", cpl.Op.Name())
	}
	j := Join(scan, pr, "a", "b", nil, nil)
	if j.Op.Class() != cost.Join || j.Op.BaseColumns() != nil {
		t.Fatal("join metadata wrong")
	}
	a := Aggregate(pr, []string{"qty"}, nil)
	if a.Op.Class() != cost.Aggregation || !strings.Contains(a.Op.Name(), "aggregate") {
		t.Fatal("aggregate metadata wrong")
	}
	so := Sort(a, engine.SortKey{Col: "qty"})
	if so.Op.Class() != cost.Sort || !strings.Contains(so.Op.Name(), "sort") {
		t.Fatal("sort metadata wrong")
	}
	tn := TopN(a, 5, engine.SortKey{Col: "qty"})
	if !strings.Contains(tn.Op.Name(), "top5") {
		t.Fatal("topn metadata wrong")
	}
}

func TestOperatorArityErrors(t *testing.T) {
	cat := testCatalog()
	b := engine.MustNewBatch(column.NewInt64("x", []int64{1}))
	two := []*engine.Batch{b, b}
	none := []*engine.Batch{}
	if _, err := (&FilterOp{Pred: expr.NewCmp("x", expr.EQ, 1)}).Execute(nil, cat, two); err == nil {
		t.Fatal("filter arity")
	}
	if _, err := (&ProjectOp{Cols: []string{"x"}}).Execute(nil, cat, two); err == nil {
		t.Fatal("project arity")
	}
	if _, err := (&ComputeOp{As: "y", Left: "x", Op: engine.Add, Const: 1}).Execute(nil, cat, two); err == nil {
		t.Fatal("compute arity")
	}
	if _, err := (&JoinOp{LeftKey: "x", RightKey: "x"}).Execute(nil, cat, none); err == nil {
		t.Fatal("join arity")
	}
	if _, err := (&AggregateOp{}).Execute(nil, cat, two); err == nil {
		t.Fatal("aggregate arity")
	}
	if _, err := (&SortOp{Keys: []engine.SortKey{{Col: "x"}}}).Execute(nil, cat, two); err == nil {
		t.Fatal("sort arity")
	}
}

func TestComputeVariantsExecute(t *testing.T) {
	cat := testCatalog()
	in := engine.MustNewBatch(column.NewFloat64("d", []float64{0.1, 0.2}))
	one := []*engine.Batch{in}
	colcol, err := (&ComputeOp{As: "r", Left: "d", Op: engine.Add, Right: "d"}).Execute(nil, cat, one)
	if err != nil || colcol.MustColumn("r").(*column.Float64Column).Values[0] != 0.2 {
		t.Fatalf("col×col compute: %v", err)
	}
	cl, err := (&ComputeOp{As: "r", Left: "d", Op: engine.Sub, Const: 1, ConstLeft: true}).Execute(nil, cat, one)
	if err != nil || cl.MustColumn("r").(*column.Float64Column).Values[0] != 0.9 {
		t.Fatalf("const-left compute: %v", err)
	}
	cc, err := (&ComputeOp{As: "r", Left: "d", Op: engine.Mul, Const: 10}).Execute(nil, cat, one)
	if err != nil || cc.MustColumn("r").(*column.Float64Column).Values[0] != 1 {
		t.Fatalf("const compute: %v", err)
	}
	if _, err := (&ComputeOp{As: "r", Left: "zz", Op: engine.Mul, Const: 1}).Execute(nil, cat, one); err == nil {
		t.Fatal("expected compute error")
	}
}
