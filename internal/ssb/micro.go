package ssb

import (
	"robustdb/internal/engine"
	"robustdb/internal/expr"
	"robustdb/internal/plan"
)

// SerialSelectionQueries returns the cache-thrashing micro-benchmark of
// Appendix B.1 (Listing 1): eight selections, each filtering a different
// lineorder column, executed interleaved so an LRU cache that cannot hold
// all eight columns evicts exactly the column the next query needs.
// Each query materializes only qualifying row ids, like the paper's
// selection-only workload.
func SerialSelectionQueries() []Query {
	preds := []struct {
		name string
		pred expr.Predicate
	}{
		{"sel-quantity", expr.NewCmp("lo_quantity", expr.LT, 1)},
		{"sel-discount", expr.NewCmp("lo_discount", expr.GT, 10)},
		{"sel-shippriority", expr.NewCmp("lo_shippriority", expr.GT, 0)},
		{"sel-extendedprice", expr.NewCmp("lo_extendedprice", expr.LT, 100)},
		{"sel-ordtotalprice", expr.NewCmp("lo_ordtotalprice", expr.LT, 100)},
		{"sel-revenue", expr.NewCmp("lo_revenue", expr.LT, 1000)},
		{"sel-supplycost", expr.NewCmp("lo_supplycost", expr.LT, 1000)},
		{"sel-tax", expr.NewCmp("lo_tax", expr.GT, 10)},
	}
	out := make([]Query, len(preds))
	for i, p := range preds {
		out[i] = Query{Name: p.name, Plan: plan.New(plan.Scan("lineorder", nil, p.pred))}
	}
	return out
}

// ParallelSelectionQuery returns the heap-contention micro-benchmark of
// Appendix B.2 (Listing 2): "select * from lineorder where lo_discount
// between 4 and 6 and lo_quantity between 26 and 35" as CoGaDB executes it —
// four consecutive operators: two positional selections over the full filter
// columns, their intersection, and the select-* late materialization. Each
// selection has the paper's 3.25× column footprint and the materialization
// carries the full row, so several large-footprint operators per query
// compete for the heap while the two filter columns fit in the device cache
// (the only contended resource is the heap, §3.4).
func ParallelSelectionQuery() Query {
	s1 := plan.Scan("lineorder", nil, expr.NewBetween("lo_discount", 4, 6))
	s2 := plan.Scan("lineorder", nil, expr.NewBetween("lo_quantity", 26, 35))
	both := plan.Intersect(s1, s2, "lineorder")
	fetch := plan.Fetch(both, "lineorder",
		"lo_orderkey", "lo_quantity", "lo_extendedprice", "lo_ordtotalprice",
		"lo_discount", "lo_revenue", "lo_supplycost", "lo_tax")
	// The clients of the paper's benchmark driver consume result sets out of
	// band; a checksum aggregate keeps the response tiny so the measurement
	// captures selection + materialization, not result shipping.
	sum := plan.Aggregate(fetch, nil,
		[]engine.AggSpec{{Func: engine.Sum, Col: "lo_revenue", As: "checksum"}})
	return Query{Name: "parallel-selection", Plan: plan.New(sum)}
}
