package sql

import (
	"sync"
	"testing"

	"robustdb/internal/ssb"
	"robustdb/internal/table"
)

// fuzzSeeds are statements the front door is known to meet: the API test's,
// the benchmark's templates (bench/workloads.go, copied; %d filled in), CI's
// explain smoke, and the thirteen the empty-input check and the compiler
// refuse (server.TestHTTPWireStatuses).
var fuzzSeeds = []string{
	"select d_year, sum(lo_revenue) as revenue from lineorder, date where lo_orderdate = d_datekey and lo_discount between 1 and 3 group by d_year order by d_year",
	"select nothing from nowhere",
	"SELECT SUM(lo_revenue) AS revenue FROM lineorder",
	"SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
	"SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity",
	"SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
	"select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_year = 1993 and lo_discount between 1 and 3 and lo_quantity < 25",
	"select d_year, p_brand1, sum(lo_revenue) as sum_revenue from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_category = 'MFGR#12' and s_region = 'AMERICA' group by d_year, p_brand1 order by d_year, p_brand1",
	"select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and c_city in ('UNITED KI1', 'UNITED KI5') and s_city in ('UNITED KI1', 'UNITED KI5') and d_year between 1992 and 1997 group by c_city, s_city, d_year order by d_year asc, revenue desc",
	"SELECT lo_orderdate, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < 1500000000 GROUP BY lo_orderdate",
	"SELECT lo_partkey, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < 1500000000 GROUP BY lo_partkey",
	"SELECT lo_custkey, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < 1500000000 GROUP BY lo_custkey",
	"EXPLAIN SELECT SUM(lo_revenue) AS rev FROM lineorder",
	"EXPLAIN ANALYZE SELECT c_nation, SUM(lo_revenue) AS rev FROM lineorder, customer WHERE lo_custkey = c_custkey AND lo_discount BETWEEN 1 AND 3 GROUP BY c_nation ORDER BY rev DESC LIMIT 5",
	"SELECT SUM(lo_revenue * (1 - lo_discount)) FROM lineorder",

	"SELECT SUM(lo_revenue/0) FROM lineorder",
	"SELECT MIN(c_city) FROM customer",
	"SELECT SUM(c_city) FROM customer",
	"SELECT SUM(lo_revenue * c_city) FROM lineorder, customer WHERE lo_custkey = c_custkey",
	"SELECT COUNT(*) FROM customer WHERE c_city BETWEEN 5 AND 7",
	"SELECT COUNT(*) FROM customer WHERE c_city = 5",
	"SELECT COUNT(*) FROM lineorder WHERE lo_quantity = 'x'",
	"SELECT COUNT(*) FROM lineorder WHERE lo_quantity IN (1, 'a')",
	"SELECT COUNT(*) FROM lineorder WHERE lo_orderdate < 2.5",
	"SELECT COUNT(*) FROM lineorder, customer WHERE lo_custkey = c_city",
	"SELECT COUNT(*) FROM lineorder ORDER BY nope",
	"SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity ORDER BY zzz LIMIT 2",
	"SELECT c_city, SUM(lo_revenue) FROM lineorder, customer WHERE lo_custkey = c_custkey GROUP BY c_nation",
}

var fuzzCat = sync.OnceValue(func() *table.Catalog {
	return ssb.Generate(ssb.Config{SF: 1, RowsPerSF: 100, Seed: 21})
})

// FuzzStatement holds the path from text to plan to its contract: Parse
// never panics; what parses compiles — the empty-input check included —
// without panicking; and what compiles runs to completion over the catalog's
// rows, so nothing the front door would admit and answer 500 for gets by.
// The server maps every error of either step to ErrBadQuery and 400
// (server.prepare).
func FuzzStatement(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		st, err := Parse(text)
		if err != nil {
			return
		}
		p, err := Compile(fuzzCat(), st)
		if err != nil {
			return
		}
		evalPlan(t, fuzzCat(), p)
	})
}
