package sql

import (
	"strings"
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/tpch"
)

func ssbCat() *table.Catalog {
	return ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 5000, Seed: 21})
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

func assertSameBatches(t *testing.T, label string, a, b *engine.Batch) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: rows %d vs %d", label, a.NumRows(), b.NumRows())
	}
	for ci := range a.Columns() {
		ac, bc := a.Columns()[ci], b.Columns()[ci]
		for i := 0; i < ac.Len(); i++ {
			var av, bv interface{}
			switch ac := ac.(type) {
			case *column.Int64Column:
				av, bv = ac.Values[i], bc.(*column.Int64Column).Values[i]
			case *column.Float64Column:
				av, bv = ac.Values[i], bc.(*column.Float64Column).Values[i]
			case *column.StringColumn:
				av, bv = ac.Value(i), bc.(*column.StringColumn).Value(i)
			case *column.DateColumn:
				av, bv = ac.Values[i], bc.(*column.DateColumn).Values[i]
			}
			if av != bv {
				t.Fatalf("%s: col %s row %d: %v vs %v", label, ac.Name(), i, av, bv)
			}
		}
	}
}

// SSB Q1.1 via SQL must equal the hand-built plan.
func TestSQLMatchesHandBuiltQ11(t *testing.T) {
	cat := ssbCat()
	p, err := PlanQuery(cat, `
		select sum(lo_extendedprice * lo_discount) as revenue
		from lineorder, date
		where lo_orderdate = d_datekey
		  and d_year = 1993
		  and lo_discount between 1 and 3
		  and lo_quantity < 25`)
	if err != nil {
		t.Fatal(err)
	}
	got := evalPlan(t, cat, p)
	want := evalPlan(t, cat, ssb.Q1_1())
	g := got.MustColumn("revenue").(*column.Float64Column).Values[0]
	w := want.MustColumn("revenue").(*column.Float64Column).Values[0]
	if g != w {
		t.Fatalf("revenue = %v, want %v", g, w)
	}
}

// SSB Q2.1 via SQL: grouped star join over three dimensions.
func TestSQLMatchesHandBuiltQ21(t *testing.T) {
	cat := ssbCat()
	p, err := PlanQuery(cat, `
		select d_year, p_brand1, sum(lo_revenue) as sum_revenue
		from lineorder, date, part, supplier
		where lo_orderdate = d_datekey
		  and lo_partkey = p_partkey
		  and lo_suppkey = s_suppkey
		  and p_category = 'MFGR#12'
		  and s_region = 'AMERICA'
		group by d_year, p_brand1
		order by d_year, p_brand1`)
	if err != nil {
		t.Fatal(err)
	}
	got := evalPlan(t, cat, p)
	want := evalPlan(t, cat, ssb.Q2_1())
	if got.NumRows() != want.NumRows() {
		t.Fatalf("groups: %d vs %d", got.NumRows(), want.NumRows())
	}
	g := got.MustColumn("sum_revenue").(*column.Float64Column).Values
	w := want.MustColumn("sum_revenue").(*column.Float64Column).Values
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("group %d: %v vs %v", i, g[i], w[i])
		}
	}
}

// SSB Q3.3 via SQL: IN lists, two filtered dimensions, sort by aggregate.
func TestSQLMatchesHandBuiltQ33(t *testing.T) {
	cat := ssbCat()
	p, err := PlanQuery(cat, `
		select c_city, s_city, d_year, sum(lo_revenue) as revenue
		from customer, lineorder, supplier, date
		where lo_custkey = c_custkey
		  and lo_suppkey = s_suppkey
		  and lo_orderdate = d_datekey
		  and c_city in ('UNITED KI1', 'UNITED KI5')
		  and s_city in ('UNITED KI1', 'UNITED KI5')
		  and d_year between 1992 and 1997
		group by c_city, s_city, d_year
		order by d_year asc, revenue desc`)
	if err != nil {
		t.Fatal(err)
	}
	got := evalPlan(t, cat, p)
	want := evalPlan(t, cat, ssb.Q3_3())
	if got.NumRows() != want.NumRows() {
		t.Fatalf("groups: %d vs %d", got.NumRows(), want.NumRows())
	}
	g := got.MustColumn("revenue").(*column.Float64Column).Values
	w := want.MustColumn("revenue").(*column.Float64Column).Values
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: %v vs %v", i, g[i], w[i])
		}
	}
}

// TPC-H Q6 via SQL against the hand-built plan, including the float
// BETWEEN bounds.
func TestSQLMatchesHandBuiltTPCHQ6(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 1, RowsPerSF: 5000, Seed: 21})
	p, err := PlanQuery(cat, `
		select sum(l_extendedprice * l_discount) as revenue
		from lineitem
		where l_shipyear = 1994
		  and l_discount between 0.05 and 0.07
		  and l_quantity < 24`)
	if err != nil {
		t.Fatal(err)
	}
	got := evalPlan(t, cat, p)
	want := evalPlan(t, cat, tpch.Q6())
	g := got.MustColumn("revenue").(*column.Float64Column).Values[0]
	w := want.MustColumn("revenue").(*column.Float64Column).Values[0]
	if diff := g - w; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("revenue = %v, want %v", g, w)
	}
}

// The pricing idiom sum(a * (1 - b)) compiles through the nested-expression
// path.
func TestSQLNestedExpression(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 1, RowsPerSF: 3000, Seed: 4})
	p, err := PlanQuery(cat, `
		select sum(l_extendedprice * (1 - l_discount)) as net
		from lineitem
		where l_quantity < 10`)
	if err != nil {
		t.Fatal(err)
	}
	got := evalPlan(t, cat, p)
	// Reference computation.
	li := cat.MustTable("lineitem")
	ext := li.MustColumn("l_extendedprice").(*column.Float64Column).Values
	disc := li.MustColumn("l_discount").(*column.Float64Column).Values
	qty := li.MustColumn("l_quantity").(*column.Int64Column).Values
	var want float64
	for i := range ext {
		if qty[i] < 10 {
			want += ext[i] * (1 - disc[i])
		}
	}
	g := got.MustColumn("net").(*column.Float64Column).Values[0]
	if diff := g - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("net = %v, want %v", g, want)
	}
}

func TestSQLScalarQueries(t *testing.T) {
	cat := ssbCat()
	p, err := PlanQuery(cat, `
		select c_nation, count(*) as customers, avg(c_custkey) as avg_key
		from customer
		where c_region = 'ASIA'
		group by c_nation
		order by customers desc, c_nation
		limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	out := evalPlan(t, cat, p)
	if out.NumRows() > 3 {
		t.Fatalf("LIMIT ignored: %d rows", out.NumRows())
	}
	if !out.Has("customers") || !out.Has("avg_key") {
		t.Fatal("aliases missing from output")
	}
	counts := out.MustColumn("customers").(*column.Float64Column).Values
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatal("ORDER BY desc violated")
		}
	}
}

func TestSQLSameTableColumnComparison(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 1, RowsPerSF: 3000, Seed: 4})
	p, err := PlanQuery(cat, `
		select count(*) as late
		from lineitem
		where l_commitdate < l_receiptdate`)
	if err != nil {
		t.Fatal(err)
	}
	out := evalPlan(t, cat, p)
	li := cat.MustTable("lineitem")
	cd := li.MustColumn("l_commitdate").(*column.DateColumn).Values
	rd := li.MustColumn("l_receiptdate").(*column.DateColumn).Values
	var want float64
	for i := range cd {
		if cd[i] < rd[i] {
			want++
		}
	}
	if got := out.MustColumn("late").(*column.Float64Column).Values[0]; got != want {
		t.Fatalf("late = %v, want %v", got, want)
	}
}

func TestSQLProjectionOnly(t *testing.T) {
	cat := ssbCat()
	p, err := PlanQuery(cat, `
		select s_city, s_nation from supplier where s_region = 'EUROPE' order by s_city`)
	if err != nil {
		t.Fatal(err)
	}
	out := evalPlan(t, cat, p)
	if out.NumRows() == 0 || !out.Has("s_city") {
		t.Fatal("projection query wrong")
	}
}

func TestSQLErrors(t *testing.T) {
	cat := ssbCat()
	cases := []struct {
		q    string
		frag string
	}{
		{"selec x from t", `expected "select"`},
		{"select from lineorder", "keyword"},
		{"select lo_revenue from nope", "no table"},
		{"select count(*) from lineorder, nope where lo_custkey = c_custkey", `sql: catalog: no table "nope"`},
		{"select nope from lineorder", "unknown column"},
		{"select lo_revenue from lineorder where nope = 1", "unknown column"},
		{"select lo_revenue from lineorder where lo_revenue", "comparison"},
		{"select lo_revenue from lineorder limit 5", "ORDER BY"},
		{"select lo_revenue from lineorder order by lo_revenue limit 0", "invalid LIMIT"},
		{"select lo_revenue, c_custkey from lineorder, customer", "no join condition"},
		{"select lo_revenue from lineorder where lo_custkey < c_custkey", "unknown column"},
		{"select sum(1) from lineorder", "literal"},
		{"select sum(lo_revenue from lineorder", `expected ")"`},
		{"select lo_revenue from lineorder where lo_revenue = 'a' or 1", "unexpected"},
		{"select lo_revenue from lineorder where lo_quantity in ()", "literal"},
		{"select lo_revenue from lineorder where lo_quantity between 1", `expected "and"`},
	}
	for _, c := range cases {
		_, err := PlanQuery(cat, c.q)
		if err == nil {
			t.Errorf("%q: expected error", c.q)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not mention %q", c.q, err.Error(), c.frag)
		}
	}
	// Cross-benchmark joins with non-equi conditions are rejected.
	tc := tpch.Generate(tpch.Config{SF: 1, RowsPerSF: 2000, Seed: 4})
	if _, err := PlanQuery(tc, `select count(*) from orders, lineitem where o_orderkey < l_orderkey`); err == nil ||
		!strings.Contains(err.Error(), "equi-join") {
		t.Errorf("non-equi join should be rejected, got %v", err)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("select 'unterminated"); err == nil {
		t.Fatal("expected unterminated-string error")
	}
	if _, err := lex("select a ! b"); err == nil {
		t.Fatal("expected bad '!' error")
	}
	if _, err := lex("select a ; b"); err == nil {
		t.Fatal("expected bad character error")
	}
	toks, err := lex("a >= 1 != 2 <> 3 <= 4 t.x")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	for _, frag := range []string{">=", "<>", "<=", "."} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("lexer missed %q in %q", frag, joined)
		}
	}
}
