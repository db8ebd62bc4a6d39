package exec

import (
	"testing"

	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/plan"
)

// The one estimate of a ready operator on the shapes placement meets: a scan
// the cache holds, an uncached chunkable scan with the pipeline on and off,
// and a join over child values. Input bytes are exact, the output is guessed
// at input volume, and the pipelined makespan is there exactly when the
// pipelined executor would run the operator.
func TestEstimateReady(t *testing.T) {
	cat := testCatalog(10000)
	fact, err := cat.Table("fact")
	if err != nil {
		t.Fatal(err)
	}
	scan := testPlan().Leaves()[0]
	join := plan.Join(plan.Scan("fact", []string{"v"}, nil), plan.Scan("fact", []string{"qty"}, nil),
		"v", "qty", nil, nil)
	child := &Value{Batch: engine.FromTable(fact)}
	cases := []struct {
		name      string
		n         *plan.Node
		inputs    []*Value
		depth     int
		cached    bool
		pipelined bool
	}{
		{"cached scan", scan, nil, 2, true, false},
		{"uncached scan, depth 2", scan, nil, 2, false, true},
		{"uncached scan, depth 0", scan, nil, 0, false, false},
		{"join over child values", join, []*Value{child, child}, 2, false, false},
	}
	for _, c := range cases {
		e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30, PipelineDepth: c.depth})
		var in int64
		for _, id := range c.n.Op.BaseColumns() {
			b, err := cat.ColumnBytes(id)
			if err != nil {
				t.Fatal(err)
			}
			in += b
			if c.cached {
				e.Cache.Insert(id, b)
			}
		}
		for _, v := range c.inputs {
			in += v.Bytes()
		}
		est, err := e.EstimateReady(c.n, c.inputs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		class := c.n.Op.Class()
		if in == 0 || est.In != in || est.Out != est.In || est.Heap != e.Params.HeapFootprint(class, in, in) {
			t.Errorf("%s: in/out/heap = %d/%d/%d, want %d/%d/%d", c.name,
				est.In, est.Out, est.Heap, in, in, e.Params.HeapFootprint(class, in, in))
		}
		for _, kind := range []cost.ProcKind{cost.CPU, cost.GPU} {
			if want := e.Learner.Estimate(class, kind, cost.Work(in, in)); est.Time[kind] != want {
				t.Errorf("%s: time on %s = %v, want the learner's %v", c.name, kind, est.Time[kind], want)
			}
		}
		_, runs := e.pipelinePlanFor(c.n)
		if runs != c.pipelined || (est.Pipelined > 0) != runs {
			t.Errorf("%s: pipelined makespan %v, pipelined executor runs it: %v (want %v)",
				c.name, est.Pipelined, runs, c.pipelined)
		}
	}
}
