package exec

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"robustdb/internal/cost"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// ErrDeadlineExceeded marks a query failed by its per-query deadline. The
// failure is clean: every device reservation the query held is released.
var ErrDeadlineExceeded = errors.New("exec: query deadline exceeded")

// query is the run-time state of one executing plan.
type query struct {
	engine    *Engine
	name      string
	tenant    string
	plan      *plan.Plan
	placer    Placer
	placement map[int]cost.ProcKind // non-nil for compile-time strategies
	parents   map[int]*plan.Node
	pending   map[int]int
	values    map[int]*Value
	done      *sim.Signal
	result    *Value
	err       error
	started   time.Duration
	finished  time.Duration
	// qerror tracks the worst per-operator cardinality misestimate seen so
	// far (max over operators of max(est/actual, actual/est)); written only
	// from operator completions, which the single-threaded simulator
	// serializes.
	qerror float64
	// pipeStage / pipeHidden accumulate, over the query's pipelined
	// operators, the ideal serial stage time and the part of it hidden by
	// overlap; their ratio is the query's overlap ratio, observed on
	// completion and stamped on the query span.
	pipeStage  time.Duration
	pipeHidden time.Duration
	// spans is the query's own record of every span it emitted, in emission
	// order (see emit); nil while the tracer is off.
	spans []trace.Span
}

// QueryStats reports the outcome of one query.
type QueryStats struct {
	// Latency is the response time of the query in virtual time.
	Latency time.Duration
	// QueryID is the engine-assigned query id ("q0001") — the key that
	// correlates the query's trace spans back to its plan (EXPLAIN ANALYZE,
	// slow-query journal). Set on success and failure alike.
	QueryID string
	// QError is the query's worst per-operator cardinality misestimate; 0
	// when no operator had both an estimate and an actual (hand-built plans
	// without EstimateSizes, or nothing completed).
	QError float64
	// Spans are the spans the query emitted up to the moment it finished, in
	// emission order and ending with its query-level span — what EXPLAIN
	// ANALYZE and the slow-query journal read, so neither has to search the
	// tracer's ring. Nil while the tracer is off.
	Spans []trace.Span
	// Placement is the compile-time placement the query ran under; nil for
	// strategies that place every operator at run time.
	Placement map[int]cost.ProcKind
}

// Analyze renders the finished query's EXPLAIN ANALYZE document: the plan
// under the placement the query ran under, with per-node actuals folded from
// the query's own spans. It is the one function behind /v1/explain?analyze=1,
// the slow-query journal's plan and DB.ExplainAnalyzeSQL. pl must be the plan
// object the query executed (span node ids are its node ids) and is only
// read, provided it was estimated against cat before it ran; outcome
// overrides the span-derived outcome when non-empty.
func (s QueryStats) Analyze(pl *plan.Plan, cat *table.Catalog, sqlText, outcome string) (*plan.ExplainPayload, error) {
	payload, err := plan.Explain(pl, cat, s.Placement)
	if err != nil {
		return nil, err
	}
	payload.SQL = sqlText
	plan.AttachActuals(payload, s.QueryID, s.Spans, outcome)
	return payload, nil
}

// QueryOpts carries per-query execution options. The zero value inherits
// every engine-level default.
type QueryOpts struct {
	// Deadline fails the query cleanly if it is still running after this
	// much virtual time, overriding the engine-level Config.QueryDeadline.
	// Zero inherits the engine default; the front door propagates wire
	// deadlines through this field.
	Deadline time.Duration
	// Tenant labels the query's trace span with the submitting tenant
	// (front-door queries); empty for benchmark-driven runs.
	Tenant string
}

// RunQuery executes the plan under the given placement strategy on behalf of
// the calling session process, blocking in virtual time until the root
// finishes, and returns the exact query result. A configured QueryDeadline
// fails the query cleanly if it is still running when the deadline expires.
func (e *Engine) RunQuery(p *sim.Proc, pl *plan.Plan, placer Placer) (*Value, QueryStats, error) {
	return e.RunQueryWith(p, pl, placer, QueryOpts{})
}

// RunQueryWith is RunQuery with per-query options; see QueryOpts.
func (e *Engine) RunQueryWith(p *sim.Proc, pl *plan.Plan, placer Placer, opts QueryOpts) (*Value, QueryStats, error) {
	q := &query{
		engine:  e,
		name:    fmt.Sprintf("q%04d", e.nextQueryID()),
		tenant:  opts.Tenant,
		plan:    pl,
		placer:  placer,
		parents: make(map[int]*plan.Node),
		pending: make(map[int]int),
		values:  make(map[int]*Value),
		done:    sim.NewSignal(e.Sim),
		started: e.Sim.Now(),
	}
	q.placement = placer.CompileTime(e, pl)
	if e.Tracer != nil {
		// One span per node plus the query span, absent retries and chunks.
		q.spans = make([]trace.Span, 0, len(pl.Nodes())+1)
	}
	for _, n := range pl.Nodes() {
		q.pending[n.ID()] = len(n.Children)
		for _, c := range n.Children {
			q.parents[c.ID()] = n
		}
	}
	var watchdog *sim.Timer
	deadline := e.deadline
	if opts.Deadline > 0 {
		deadline = opts.Deadline
	}
	if deadline > 0 {
		watchdog = e.Sim.After(deadline, func() {
			e.Metrics.DeadlineFailures.Inc()
			q.fail(fmt.Errorf("%s: %w (%v)", q.name, ErrDeadlineExceeded, deadline))
		})
	}
	// Chop off the leaves: they have no dependencies and start immediately
	// (Figure 10).
	for _, leaf := range pl.Leaves() {
		q.scheduleNode(leaf)
	}
	q.done.Wait(p)
	if watchdog != nil {
		watchdog.Cancel()
	}
	if q.err != nil {
		e.Metrics.QueriesFailed.Inc()
		q.traceQuery(e.Sim.Now(), "failed")
		if e.logEnabled(slog.LevelWarn) {
			e.logEvent(slog.LevelWarn, "query failed",
				slog.String("component", "exec"),
				slog.Duration("vt", e.Sim.Now()),
				slog.String("query", q.name),
				slog.String("error", q.err.Error()))
		}
		// Latency is time-to-failure: the slow-query journal records deadline
		// failures with the latency they actually burned, not zero.
		return nil, q.stats(e.Sim.Now() - q.started), q.err
	}
	e.Metrics.QueriesCompleted.Inc()
	if q.pipeStage > 0 {
		e.Metrics.QueryOverlapRatio.Observe(q.overlapRatio())
	}
	q.traceQuery(q.finished, "")
	if e.logEnabled(slog.LevelDebug) {
		e.logEvent(slog.LevelDebug, "query completed",
			slog.String("component", "exec"),
			slog.Duration("vt", q.finished),
			slog.String("query", q.name),
			slog.Duration("latency", q.finished-q.started))
	}
	return q.result, q.stats(q.finished - q.started), nil
}

// stats is the finished query's record. Operators of a failed query that are
// still in flight keep emitting after it: the record ends where the query
// did. Those late appends land in q.spans beyond the returned length (or in
// a reallocated array), never at an index a reader on another goroutine
// holds; the clipped capacity keeps a caller's own append off them.
func (q *query) stats(latency time.Duration) QueryStats {
	return QueryStats{
		Latency:   latency,
		QueryID:   q.name,
		QError:    q.qerror,
		Spans:     q.spans[:len(q.spans):len(q.spans)],
		Placement: q.placement,
	}
}

// emit records one span of the query: kept on the query's own record and
// forwarded to the tracer's ring. Callers have checked that the tracer is on.
func (q *query) emit(s trace.Span) {
	q.spans = append(q.spans, s)
	q.engine.Tracer.Span(s)
}

// overlapRatio returns the fraction of the query's pipelined stage time
// hidden by transfer/compute overlap (0 with no pipelined operators).
func (q *query) overlapRatio() float64 {
	if q.pipeStage <= 0 {
		return 0
	}
	return float64(q.pipeHidden) / float64(q.pipeStage)
}

// traceQuery emits the query-level span every operator span of the query
// nests inside. No-op with tracing off.
func (q *query) traceQuery(end time.Duration, abort string) {
	if q.engine.Tracer == nil {
		return
	}
	q.emit(trace.Span{
		Query:   q.name,
		Name:    q.name,
		Class:   "query",
		Node:    -1,
		Start:   q.started,
		End:     end,
		Abort:   abort,
		Tenant:  q.tenant,
		Overlap: q.overlapRatio(),
	})
}

// inputs collects the child results of n in child order.
func (q *query) inputs(n *plan.Node) []*Value {
	vals := make([]*Value, len(n.Children))
	for i, c := range n.Children {
		vals[i] = q.values[c.ID()]
	}
	return vals
}

// scheduleNode places a ready operator and spawns its execution process.
// Whatever the strategy decided, a tripped device circuit breaker overrides
// the decision to CPU — graceful degradation applies to compile-time and
// run-time placements alike.
func (q *query) scheduleNode(n *plan.Node) {
	e := q.engine
	inputs := q.inputs(n)
	var kind cost.ProcKind
	if q.placement != nil {
		kind = q.placement[n.ID()]
	} else {
		kind = q.placer.RunTime(e, n, inputs)
	}
	if kind == cost.GPU && !e.Health.AllowGPU(e.Sim.Now()) {
		kind = cost.CPU
		e.Metrics.DegradedPlacements.Inc()
	}
	// Register the estimated demand with the processor's queue estimate so
	// later placement decisions see the load.
	inBytes, err := e.InputBytes(n, inputs)
	if err != nil {
		q.fail(err)
		return
	}
	est := e.Learner.Estimate(n.Op.Class(), kind, cost.Work(inBytes, inBytes)).Seconds()
	e.addLoad(kind, est)
	e.Sim.Spawn(procName(q.name, n), func(p *sim.Proc) {
		q.runNode(p, n, kind, est, inputs)
	})
}

// runNode executes one operator (with CPU fallback on device aborts), stores
// its result, and activates the parent when it becomes ready (Figure 11).
func (q *query) runNode(p *sim.Proc, n *plan.Node, kind cost.ProcKind, est float64, inputs []*Value) {
	if q.err != nil {
		q.engine.removeLoad(kind, est)
		return // the query already failed; drop remaining work
	}
	v, err := q.engine.execOp(p, q, n, kind, inputs)
	// Retire this operator's queue estimate before any successor placement
	// decision sees the load of work that is already done.
	q.engine.removeLoad(kind, est)
	if err != nil {
		q.fail(err)
		return
	}
	q.observeEstimates(n, v)
	if q.err != nil {
		// The query failed (deadline, sibling error) while this operator was
		// already executing: fail() released the reservations it knew about,
		// so storing this result now would leak its device memory. Release
		// it immediately instead.
		q.engine.dropDevice(v)
		return
	}
	q.values[n.ID()] = v
	if n == q.plan.Root {
		// Results are returned to the user: copy back if device-resident.
		if _, err := q.engine.pullToHost(p, v); err != nil {
			q.fail(err)
			return
		}
		q.result = v
		q.finished = p.Now()
		q.done.Fire()
		return
	}
	parent := q.parents[n.ID()]
	q.pending[parent.ID()]--
	if q.pending[parent.ID()] == 0 {
		q.scheduleNode(parent)
	}
}

// observeEstimates feeds the misestimation series from one completed
// operator: estimate/actual ratios into the histograms, and the operator's
// q-error into the query's running maximum and the engine-wide gauge. Plans
// without compile-time estimates (EstRows 0) observe nothing, so hand-built
// benchmark plans cost only these comparisons.
func (q *query) observeEstimates(n *plan.Node, v *Value) {
	m := q.engine.Metrics
	if rows := int64(v.Batch.NumRows()); n.EstRows > 0 && rows > 0 {
		r := float64(n.EstRows) / float64(rows)
		m.EstimateRowsRatio.Observe(r)
		qe := r
		if qe < 1 {
			qe = 1 / qe
		}
		if qe > q.qerror {
			q.qerror = qe
		}
		m.QErrorMax.Max(qe)
	}
	if b := v.Bytes(); n.EstOutBytes > 0 && b > 0 {
		m.EstimateBytesRatio.Observe(float64(n.EstOutBytes) / float64(b))
	}
}

// fail terminates the query with an error. Device-resident intermediates are
// released so a failed query cannot leak device memory; operators still in
// flight release their own results on completion (runNode).
func (q *query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
	for _, v := range q.values {
		if v != nil {
			q.engine.dropDevice(v)
		}
	}
	q.done.Fire()
}
