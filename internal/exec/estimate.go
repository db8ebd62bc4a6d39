package exec

import (
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/cost"
	"robustdb/internal/plan"
)

// Estimate is the one guess about an operator that placement, the heap gate
// and the queue load read (DESIGN.md §27): bytes read and written, heap
// footprint, learned time on each processor (indexed by cost.ProcKind), and
// the pipelined executor's GPU makespan, 0 when it would not run the operator.
type Estimate struct {
	In, Out, Heap int64
	Time          [2]time.Duration
	Pipelined     time.Duration
}

// EstimateReady estimates a ready operator from its inputs: exact input
// bytes, output guessed at input volume. An error is a failed catalog lookup.
func (e *Engine) EstimateReady(n *plan.Node, inputs []*Value) (Estimate, error) {
	in, err := e.inputBytes(n, inputs)
	if err != nil {
		return Estimate{}, err
	}
	est := e.price(n.Op.Class(), in, in)
	if cp, ok := e.pipelinePlanFor(n); ok {
		// Every chunk keeps all its rows (selectivity 1) at the output's width.
		chunkIn := int64(float64(cp.chunkRows) * cp.info.InRowBytes())
		chunkOut := int64(float64(cp.chunkRows) * cp.info.OutRowBytes)
		est.Pipelined = cost.PipelinedDuration(e.Bus.Duration(bus.HostToDevice, chunkIn),
			e.price(n.Op.Class(), chunkIn, chunkOut).Time[cost.GPU],
			e.Bus.Duration(bus.DeviceToHost, chunkOut), cp.k)
	}
	return est, nil
}

// EstimatePlanned estimates n from the plan's compile-time sizes.
func (e *Engine) EstimatePlanned(n *plan.Node) Estimate {
	return e.price(n.Op.Class(), n.EstInBytes, n.EstOutBytes)
}

// price estimates an operator of class that reads in and writes out bytes.
func (e *Engine) price(class cost.OpClass, in, out int64) Estimate {
	work := cost.Work(in, out)
	return Estimate{In: in, Out: out, Heap: e.Params.HeapFootprint(class, in, out), Time: [2]time.Duration{
		cost.CPU: e.Learner.Estimate(class, cost.CPU, work),
		cost.GPU: e.Learner.Estimate(class, cost.GPU, work),
	}}
}
