package tpch

import (
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/table"
)

func smallCatalog() *table.Catalog {
	return Generate(Config{SF: 1, RowsPerSF: 6000, Seed: 3})
}

func evalPlan(t *testing.T, cat *table.Catalog, p *plan.Plan) *engine.Batch {
	t.Helper()
	var eval func(n *plan.Node) *engine.Batch
	eval = func(n *plan.Node) *engine.Batch {
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
	return eval(p.Root)
}

func TestGenerateDeterministicAndScaled(t *testing.T) {
	a := Generate(Config{SF: 1, RowsPerSF: 2000, Seed: 5})
	b := Generate(Config{SF: 1, RowsPerSF: 2000, Seed: 5})
	la := a.MustTable("lineitem").MustColumn("l_partkey").(*column.Int64Column).Values
	lb := b.MustTable("lineitem").MustColumn("l_partkey").(*column.Int64Column).Values
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("generation not deterministic")
		}
	}
	big := Generate(Config{SF: 4, RowsPerSF: 2000, Seed: 5})
	if big.MustTable("lineitem").NumRows() != 8000 {
		t.Fatalf("SF scaling wrong: %d", big.MustTable("lineitem").NumRows())
	}
	if big.MustTable("nation").NumRows() != 25 || big.MustTable("region").NumRows() != 5 {
		t.Fatal("nation/region must be fixed size")
	}
}

func TestGeneratePanicsOnBadSF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Config{SF: 0})
}

func TestReferentialIntegrity(t *testing.T) {
	cat := smallCatalog()
	checkFK := func(childTable, fkCol, parentTable, pkCol string) {
		t.Helper()
		pk := cat.MustTable(parentTable).MustColumn(pkCol).(*column.Int64Column)
		valid := make(map[int64]bool)
		for _, v := range pk.Values {
			valid[v] = true
		}
		fk := cat.MustTable(childTable).MustColumn(fkCol).(*column.Int64Column)
		for i, v := range fk.Values {
			if !valid[v] {
				t.Fatalf("%s.%s row %d = %d has no parent in %s.%s",
					childTable, fkCol, i, v, parentTable, pkCol)
			}
		}
	}
	checkFK("nation", "n_regionkey", "region", "r_regionkey")
	checkFK("supplier", "s_nationkey", "nation", "n_nationkey")
	checkFK("customer", "c_nationkey", "nation", "n_nationkey")
	checkFK("partsupp", "ps_partkey", "part", "p_partkey")
	checkFK("partsupp", "ps_suppkey", "supplier", "s_suppkey")
	checkFK("orders", "o_custkey", "customer", "c_custkey")
	checkFK("lineitem", "l_orderkey", "orders", "o_orderkey")
	checkFK("lineitem", "l_partkey", "part", "p_partkey")
	checkFK("lineitem", "l_suppkey", "supplier", "s_suppkey")
}

func TestDenormalizedColumnsConsistent(t *testing.T) {
	cat := smallCatalog()
	nations := cat.MustTable("nation")
	nName := nations.MustColumn("n_name").(*column.StringColumn)
	check := func(tbl, keyCol, nameCol string) {
		t.Helper()
		tt := cat.MustTable(tbl)
		keys := tt.MustColumn(keyCol).(*column.Int64Column).Values
		names := tt.MustColumn(nameCol).(*column.StringColumn)
		for i, k := range keys {
			if names.Value(i) != nName.Value(int(k)) {
				t.Fatalf("%s row %d: %s=%q but nation %d is %q",
					tbl, i, nameCol, names.Value(i), k, nName.Value(int(k)))
			}
		}
	}
	check("supplier", "s_nationkey", "s_nation")
	check("customer", "c_nationkey", "c_nation")
	// Ship year must match the ship date.
	li := cat.MustTable("lineitem")
	sd := li.MustColumn("l_shipdate").(*column.DateColumn).Values
	sy := li.MustColumn("l_shipyear").(*column.Int64Column).Values
	for i := range sd {
		if int64(sd[i])/10000 != sy[i] {
			t.Fatalf("l_shipyear inconsistent at %d: %d vs %d", i, sd[i], sy[i])
		}
	}
}

func TestAddDays(t *testing.T) {
	if got := addDays(19940115, 10); got != 19940125 {
		t.Fatalf("addDays = %d", got)
	}
	if got := addDays(19940125, 10); got != 19940204 {
		t.Fatalf("month carry = %d", got)
	}
	if got := addDays(19941231, 1); got != 19950101 {
		t.Fatalf("year carry = %d", got)
	}
}

func TestAllQueriesExecute(t *testing.T) {
	cat := smallCatalog()
	for _, q := range Queries() {
		out := evalPlan(t, cat, q.Plan)
		if out.NumColumns() == 0 {
			t.Errorf("%s returned no columns", q.Name)
		}
	}
	if len(Queries()) != 6 {
		t.Fatalf("want 6 queries, got %d", len(Queries()))
	}
	if _, ok := QueryByName("Q6"); !ok {
		t.Fatal("Q6 missing")
	}
	if _, ok := QueryByName("Q1"); ok {
		t.Fatal("Q1 is not in the paper's subset")
	}
}

// Q6 against a direct row-at-a-time reference.
func TestQ6MatchesReference(t *testing.T) {
	cat := smallCatalog()
	li := cat.MustTable("lineitem")
	year := li.MustColumn("l_shipyear").(*column.Int64Column).Values
	disc := li.MustColumn("l_discount").(*column.Float64Column).Values
	qty := li.MustColumn("l_quantity").(*column.Int64Column).Values
	ext := li.MustColumn("l_extendedprice").(*column.Float64Column).Values
	var want float64
	for i := range year {
		if year[i] == 1994 && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			want += ext[i] * disc[i]
		}
	}
	out := evalPlan(t, cat, Q6())
	got := out.MustColumn("revenue").(*column.Float64Column).Values[0]
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Q6 = %v, want %v", got, want)
	}
}

// Q4 against a reference: count orders (not lineitems) per priority.
func TestQ4MatchesReference(t *testing.T) {
	cat := smallCatalog()
	li := cat.MustTable("lineitem")
	lok := li.MustColumn("l_orderkey").(*column.Int64Column).Values
	lcd := li.MustColumn("l_commitdate").(*column.DateColumn).Values
	lrd := li.MustColumn("l_receiptdate").(*column.DateColumn).Values
	late := make(map[int64]bool)
	for i := range lok {
		if lcd[i] < lrd[i] {
			late[lok[i]] = true
		}
	}
	or := cat.MustTable("orders")
	ook := or.MustColumn("o_orderkey").(*column.Int64Column).Values
	od := or.MustColumn("o_orderdate").(*column.DateColumn).Values
	op := or.MustColumn("o_orderpriority").(*column.StringColumn)
	want := make(map[string]float64)
	for i := range ook {
		if od[i] >= 19930701 && od[i] < 19931001 && late[ook[i]] {
			want[op.Value(i)]++
		}
	}
	out := evalPlan(t, cat, Q4())
	prio := out.MustColumn("o_orderpriority").(*column.StringColumn)
	counts := out.MustColumn("order_count").(*column.Float64Column).Values
	if out.NumRows() != len(want) {
		t.Fatalf("Q4 groups = %d, want %d", out.NumRows(), len(want))
	}
	for i := 0; i < out.NumRows(); i++ {
		if counts[i] != want[prio.Value(i)] {
			t.Fatalf("Q4 %s = %v, want %v", prio.Value(i), counts[i], want[prio.Value(i)])
		}
	}
}

// The float columns of the benchmark group by value exactly as they did when
// group keys were int64(v·1e6): every distinct value has its own fixed-point
// key, so keying on the bits moved no row between groups.
func TestFloatColumnsGroupAsInFixedPoint(t *testing.T) {
	cat := smallCatalog()
	for _, id := range []table.ColumnID{"lineitem.l_extendedprice", "lineitem.l_discount", "partsupp.ps_supplycost", "supplier.s_acctbal"} {
		c := cat.MustColumn(id).(*column.Float64Column)
		out, err := engine.GroupBy(nil, engine.MustNewBatch(c), []string{c.Name()}, []engine.AggSpec{{Func: engine.Count, As: "n"}})
		if err != nil {
			t.Fatal(err)
		}
		fixed := make(map[int64]float64)
		for _, v := range c.Values {
			fixed[int64(v*1e6)]++
		}
		groups := out.MustColumn(c.Name()).(*column.Float64Column).Values
		sizes := out.MustColumn("n").(*column.Float64Column).Values
		if len(groups) != len(fixed) {
			t.Fatalf("%s: %d groups, %d fixed-point keys", id, len(groups), len(fixed))
		}
		for i, v := range groups {
			if fixed[int64(v*1e6)] != sizes[i] {
				t.Fatalf("%s: group %v has %v rows, its fixed-point key %v", id, v, sizes[i], fixed[int64(v*1e6)])
			}
		}
	}
}
