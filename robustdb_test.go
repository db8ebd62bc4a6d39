package robustdb

import (
	"testing"

	"robustdb/internal/column"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
	"robustdb/internal/table"
)

func testDB() *DB {
	return OpenSSB(SSBConfig{SF: 1, RowsPerSF: 4000, Seed: 2})
}

func TestOpenAndDeviceSizing(t *testing.T) {
	db := testDB()
	if db.TotalBytes() <= 0 {
		t.Fatal("database should have bytes")
	}
	dev := db.DeviceForWorkingSet(0.5)
	if dev.CacheBytes != db.TotalBytes()/2 || dev.HeapBytes != dev.CacheBytes*2 {
		t.Fatalf("device sizing wrong: %+v", dev)
	}
	if db.Catalog() == nil {
		t.Fatal("catalog accessor nil")
	}
	tp := OpenTPCH(TPCHConfig{SF: 1, RowsPerSF: 4000, Seed: 2})
	if tp.TotalBytes() <= 0 {
		t.Fatal("tpch database empty")
	}
}

func TestRegisterCustomTable(t *testing.T) {
	db := New()
	tbl := table.MustNew("metrics",
		column.NewInt64("host", []int64{1, 2, 1}),
		column.NewFloat64("load", []float64{0.3, 0.9, 0.5}),
	)
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(tbl); err == nil {
		t.Fatal("duplicate register should error")
	}
	p := plan.New(plan.Aggregate(
		plan.Scan("metrics", []string{"host", "load"}, nil),
		[]string{"host"},
		[]engine.AggSpec{{Func: engine.Avg, Col: "load", As: "avg_load"}}))
	out, st, err := db.Query(db.DeviceForWorkingSet(1), CPUOnly(), p)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if st.Latency <= 0 {
		t.Fatal("latency should be positive")
	}
}

func TestQueryAcrossStrategies(t *testing.T) {
	db := testDB()
	p, err := SSBQuery("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	dev := db.DeviceForWorkingSet(1)
	var want float64
	for i, strat := range AllStrategies() {
		out, _, err := db.Query(dev, strat, p)
		if err != nil {
			t.Fatalf("%s: %v", strat.Label, err)
		}
		got := out.MustColumn("revenue").(*column.Float64Column).Values[0]
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%s: revenue %v, want %v", strat.Label, got, want)
		}
	}
}

// countingOp counts the kernel executions of the operator it wraps.
type countingOp struct {
	plan.Operator
	runs int
}

func (c *countingOp) Execute(ectx *engine.Ctx, cat *table.Catalog, inputs []*engine.Batch) (*engine.Batch, error) {
	c.runs++
	return c.Operator.Execute(ectx, cat, inputs)
}

// DB.Query returns the batch the engine produced: on a device with room for
// everything (no aborted attempt re-runs a kernel) every operator of the plan
// executes exactly once, under every strategy.
func TestQueryExecutesEachOperatorOnce(t *testing.T) {
	db := testDB()
	dev := db.DeviceForWorkingSet(1)
	for _, strat := range AllStrategies() {
		for _, q := range SSBQueries() {
			var ops []*countingOp
			for _, n := range q.Plan.Nodes() {
				op := &countingOp{Operator: n.Op}
				n.Op = op
				ops = append(ops, op)
			}
			_, st, err := db.Query(dev, strat, q.Plan)
			if err != nil || st.Aborts != 0 {
				t.Fatalf("%s/%s: err %v, %d aborts", strat.Label, q.Name, err, st.Aborts)
			}
			for i, op := range ops {
				if op.runs != 1 {
					t.Errorf("%s/%s: node %d (%s) executed %d times, want 1", strat.Label, q.Name, i, op.Name(), op.runs)
				}
			}
		}
	}
}

// A join that keeps no column of either side still has one row a match: a
// batch carries its row count, it does not ask its first column.
func TestJoinKeepingNoColumnCountsItsRows(t *testing.T) {
	db := OpenSSB(SSBConfig{SF: 1, Seed: 1})
	p := plan.New(plan.Aggregate(
		plan.Join(
			plan.Scan("date", []string{"d_datekey"}, nil),
			plan.Scan("lineorder", []string{"lo_orderdate"}, nil),
			"d_datekey", "lo_orderdate", nil, nil),
		nil, []engine.AggSpec{{Func: engine.Count, As: "n"}}))
	for _, strat := range []Strategy{CPUOnly(), DataDrivenChopping()} {
		out, _, err := db.Query(db.DeviceForWorkingSet(1), strat, p)
		if err != nil {
			t.Fatalf("%s: %v", strat.Label, err)
		}
		if got := out.MustColumn("n").(*column.Float64Column).Values[0]; got != 60000 {
			t.Errorf("%s: count over a join keeping no column = %v, want 60000", strat.Label, got)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db := testDB()
	if _, err := SSBQuery("Q9.9"); err == nil {
		t.Fatal("expected unknown SSB query error")
	}
	if _, err := TPCHQuery("Q1"); err == nil {
		t.Fatal("expected unknown TPC-H query error")
	}
	bad := plan.New(plan.Scan("missing", []string{"x"}, nil))
	if _, _, err := db.Query(db.DeviceForWorkingSet(1), CPUOnly(), bad); err == nil {
		t.Fatal("expected query error")
	}
}

func TestQueryCatalogs(t *testing.T) {
	if len(SSBQueries()) != 13 || len(TPCHQueries()) != 6 {
		t.Fatal("query catalogues wrong")
	}
	if p, err := TPCHQuery("Q6"); err != nil || p == nil {
		t.Fatal("Q6 lookup failed")
	}
}

func TestRunWorkloadFacade(t *testing.T) {
	db := testDB()
	e, res, err := db.RunWorkload(db.DeviceForWorkingSet(0.5), DataDrivenChopping(), Workload{
		Queries:      SSBQueries(),
		Users:        4,
		TotalQueries: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || res.QueriesRun != 13 || res.WorkloadTime <= 0 {
		t.Fatalf("workload result wrong: %+v", res)
	}
}

func TestRegenerateFigureFacade(t *testing.T) {
	figs, err := RegenerateFigure("fig16", FigureOptions{RowsPerSF: 2000, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != "fig16" {
		t.Fatalf("fig16 regeneration wrong")
	}
	if _, err := RegenerateFigure("fig99", FigureOptions{}); err == nil {
		t.Fatal("expected unknown figure error")
	}
	if len(FigureIDs()) != 27 {
		t.Fatalf("figure ids = %d", len(FigureIDs()))
	}
}
