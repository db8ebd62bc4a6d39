package robustdb

import (
	"fmt"
	"strings"
	"testing"

	"robustdb/internal/column"
)

// The SQL facade must return plans that execute identically to the
// hand-built benchmark queries, under any strategy.
func TestSQLFacade(t *testing.T) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 4000, Seed: 12})
	dev := db.DeviceForWorkingSet(1)
	p, err := db.SQL(`
		select d_year, sum(lo_revenue) as revenue
		from lineorder, date
		where lo_orderdate = d_datekey and lo_discount between 1 and 3
		group by d_year
		order by d_year`)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := db.Query(dev, DataDrivenChopping(), p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 7 { // seven years in the date dimension
		t.Fatalf("rows = %d, want 7", out.NumRows())
	}
	if stats.Latency <= 0 {
		t.Fatal("latency missing")
	}
	years := out.MustColumn("d_year").(*column.Int64Column).Values
	if years[0] != 1992 || years[6] != 1998 {
		t.Fatalf("year order wrong: %v", years)
	}
	// The same SQL on the compressed database gives identical answers.
	comp := db.Compressed()
	cp, err := comp.SQL(`
		select d_year, sum(lo_revenue) as revenue
		from lineorder, date
		where lo_orderdate = d_datekey and lo_discount between 1 and 3
		group by d_year
		order by d_year`)
	if err != nil {
		t.Fatal(err)
	}
	cout, _, err := comp.Query(dev, GPUOnly(), cp)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, "sql-compressed", out, cout)

	if _, err := db.SQL("select nothing from nowhere"); err == nil {
		t.Fatal("expected SQL error")
	}
}

// TestSQLRefusesExplain: a plan from DB.SQL is run for its rows, so an
// EXPLAIN statement is refused, naming the surface that describes it.
func TestSQLRefusesExplain(t *testing.T) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 1000, Seed: 12})
	for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
		if _, err := db.SQL(prefix + "SELECT SUM(lo_revenue) AS r FROM lineorder"); err == nil || !strings.Contains(err.Error(), "DB.ExplainSQL") {
			t.Errorf("SQL(%q…): %v, want a refusal naming DB.ExplainSQL", prefix, err)
		}
	}
}

// TestExplainSQLRefusesAnalyze: DB.ExplainSQL never executes, so an EXPLAIN
// ANALYZE statement is refused, naming the surface that runs it, rather than
// answered without the actuals it asked for.
func TestExplainSQLRefusesAnalyze(t *testing.T) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 1000, Seed: 12})
	const q = "SELECT SUM(lo_revenue) AS r FROM lineorder"
	if _, err := db.ExplainSQL("EXPLAIN ANALYZE " + q); err == nil || !strings.Contains(err.Error(), "DB.ExplainAnalyzeSQL") {
		t.Errorf("ExplainSQL(EXPLAIN ANALYZE …): %v, want a refusal naming DB.ExplainAnalyzeSQL", err)
	}
	doc, err := db.ExplainAnalyzeSQL(db.DeviceForWorkingSet(1), DataDrivenChopping(), "EXPLAIN ANALYZE "+q)
	if err != nil || doc.Root.Analyze == nil {
		t.Fatalf("ExplainAnalyzeSQL(EXPLAIN ANALYZE …): %v, want the plan with actuals", err)
	}
}

// A workload defined entirely in SQL runs through every strategy.
func TestSQLWorkload(t *testing.T) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 4000, Seed: 12})
	queries := []string{
		`select sum(lo_extendedprice * lo_discount) as revenue
		 from lineorder, date
		 where lo_orderdate = d_datekey and d_year = 1993
		   and lo_discount between 1 and 3 and lo_quantity < 25`,
		`select c_nation, sum(lo_revenue) as revenue
		 from customer, lineorder
		 where lo_custkey = c_custkey and c_region = 'ASIA'
		 group by c_nation order by revenue desc`,
		`select count(*) as n from lineorder where lo_quantity < 10`,
	}
	var wq []WorkloadQuery
	for i, q := range queries {
		p, err := db.SQL(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		wq = append(wq, WorkloadQuery{Name: string(rune('a' + i)), Plan: p})
	}
	_, res, err := db.RunWorkload(db.DeviceForWorkingSet(0.5), Chopping(), Workload{
		Queries: wq,
		Users:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesRun != int64(3*len(wq)) {
		t.Fatalf("ran %d queries", res.QueriesRun)
	}
}

// A join whose build side is a few keys far apart — the first and the last
// order date, seven years apart, under 4 000 fact rows — is outside the
// density rule and runs on the hash layout of the join table
// (engine.TestJoinLayoutRule pins the shape); its answer must be the one the
// predicate on the fact table's own column gives, on every strategy and on
// the compressed database.
func TestSQLSparseJoinKeys(t *testing.T) {
	db := OpenSSB(SSBConfig{SF: 1, RowsPerSF: 4000, Seed: 12})
	dev := db.DeviceForWorkingSet(1)
	run := func(d *DB, strat Strategy, sql string) *Batch {
		t.Helper()
		p, err := d.SQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := d.Query(dev, strat, p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ends := run(db, CPUOnly(), `select min(lo_orderdate) as first, max(lo_orderdate) as last from lineorder`)
	first := int64(ends.MustColumn("first").(*column.Float64Column).Values[0])
	last := int64(ends.MustColumn("last").(*column.Float64Column).Values[0])
	if last-first < 60000 {
		t.Fatalf("order dates %d … %d are too close to be sparse keys", first, last)
	}
	joined := fmt.Sprintf(`
		select count(*) as n, sum(lo_revenue) as revenue
		from lineorder, date
		where lo_orderdate = d_datekey and d_datekey in (%d, %d)`, first, last)
	want := run(db, CPUOnly(), fmt.Sprintf(`
		select count(*) as n, sum(lo_revenue) as revenue
		from lineorder
		where lo_orderdate in (%d, %d)`, first, last))
	if n := want.MustColumn("n").(*column.Float64Column).Values[0]; n < 2 {
		t.Fatalf("%v orders on the two dates", n)
	}
	for _, strat := range []Strategy{CPUOnly(), GPUOnly(), DataDrivenChopping()} {
		assertBatchesEqual(t, "sparse-key join", run(db, strat, joined), want)
	}
	assertBatchesEqual(t, "sparse-key join, compressed", run(db.Compressed(), DataDrivenChopping(), joined), want)
}
