package main

import (
	"fmt"
	"math/rand"
)

// The load model is pinned, not derived from nproc, so numbers compare across
// machines: two closed-loop sessions (a session sends its next request when
// the previous one returned — the paper's §6.1 model, and how /v1/query
// callers behave) against two kernel workers.
const (
	sessions      = 2
	kernelWorkers = 2
	// setupRepeats is how often a run repeats its set-up; setup_s is the median.
	setupRepeats = 3
)

// loadgenSQL is cmd/robustdb's -loadgen statement mix, verbatim: a scan
// aggregate, a filtered aggregate, a grouped aggregate and a join.
var loadgenSQL = []string{
	"SELECT SUM(lo_revenue) AS revenue FROM lineorder",
	"SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder WHERE lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
	"SELECT lo_quantity, COUNT(*) AS orders FROM lineorder GROUP BY lo_quantity",
	"SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year",
}

// ssbSQL is SSB Q1.1, Q2.1 and Q3.3 in SQL (texts as in internal/sql/sql_test.go).
var ssbSQL = []string{
	"select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_year = 1993 and lo_discount between 1 and 3 and lo_quantity < 25",
	"select d_year, p_brand1, sum(lo_revenue) as sum_revenue from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_category = 'MFGR#12' and s_region = 'AMERICA' group by d_year, p_brand1 order by d_year, p_brand1",
	"select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and c_city in ('UNITED KI1', 'UNITED KI5') and s_city in ('UNITED KI1', 'UNITED KI5') and d_year between 1992 and 1997 group by c_city, s_city, d_year order by d_year asc, revenue desc",
}

// adhocSQL are the ad-hoc templates: %d is a literal drawn per request from
// [1e9, 2e9), far above every lo_orderkey, so the predicate keeps every row
// and each template's result is constant while every statement text is new
// to the server's plan cache.
var adhocSQL = []string{
	"SELECT lo_orderdate, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < %d GROUP BY lo_orderdate",
	"SELECT lo_partkey, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < %d GROUP BY lo_partkey",
	"SELECT lo_custkey, SUM(lo_revenue) AS revenue FROM lineorder WHERE lo_orderkey < %d GROUP BY lo_custkey",
}

// serveWorkload is one closed-loop HTTP workload against the real
// cmd/robustdb -serve binary in its default serving configuration.
type serveWorkload struct {
	name      string
	sf        int
	rows      int // rows per scale factor; 0 = generator default (60 000)
	cacheFrac float64
	// warmup is the number of requests sent before the window. Serve-mode
	// speed depends on the server's age in queries (the span ring the
	// slow-query journal scans fills up), so warm-up is a count, not a time.
	warmup    int
	templates []string
	adhoc     bool
}

var serveWorkloads = []serveWorkload{
	{name: "serve-hot-small", sf: 1, rows: 6000, cacheFrac: 1.0, warmup: 2000, templates: loadgenSQL},
	{name: "serve-adhoc-wide", sf: 1, rows: 6000, cacheFrac: 1.0, warmup: 2000, templates: adhocSQL, adhoc: true},
	{name: "serve-scan-large", sf: 10, cacheFrac: 0.5, warmup: 100, templates: append(append([]string(nil), loadgenSQL...), ssbSQL...)},
}

const batchName = "batch-contention"

// workloadNames lists the four workloads in run order.
func workloadNames() []string {
	var names []string
	for _, w := range serveWorkloads {
		names = append(names, w.name)
	}
	return append(names, batchName)
}

// statement renders template t; ad-hoc templates draw their literal from rng.
func (w *serveWorkload) statement(t int, rng *rand.Rand) string {
	if !w.adhoc {
		return w.templates[t]
	}
	return fmt.Sprintf(w.templates[t], 1_000_000_000+rng.Int63n(1_000_000_000))
}
