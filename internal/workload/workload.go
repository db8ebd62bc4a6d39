// Package workload runs benchmark workloads through the execution engine
// exactly the way the paper's evaluation does (§6.1): a fixed total number
// of queries is distributed over a configurable number of parallel user
// sessions (closed loop — every session issues its next query when the
// previous one finishes), the cache is pre-loaded before the measured run,
// and the run reports the workload execution time together with the
// transfer, abort, and wasted-time metrics the figures plot.
package workload

import (
	"fmt"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/exec"
	"robustdb/internal/placement"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
)

// Query is one named query of a workload.
type Query struct {
	Name string
	Plan *plan.Plan
}

// Spec describes one workload run.
type Spec struct {
	// Queries is the query mix, issued round-robin.
	Queries []Query
	// Users is the number of parallel sessions (≥ 1).
	Users int
	// TotalQueries is the fixed amount of work, distributed over the users
	// ("the total number of queries in the workload is fixed, only the
	// number of parallel running queries changes", §6.2.2). Zero means one
	// pass over Queries per user.
	TotalQueries int
	// AdmissionControl admits only one query at a time into the engine
	// (the Figure 21 baseline).
	AdmissionControl bool
	// ContinueOnError keeps the workload running when individual queries
	// fail (chaos runs under fault injection): failures are counted in
	// Result.Failures instead of aborting the run. Without it the first
	// failed query ends the run with its error.
	ContinueOnError bool
}

// Result aggregates the metrics of one run.
type Result struct {
	// Strategy is the label of the executed strategy.
	Strategy string
	// WorkloadTime is the makespan of the run.
	WorkloadTime time.Duration
	// H2DTime / D2HTime are the accumulated bus service times per direction.
	H2DTime, D2HTime time.Duration
	// H2DBytes / D2HBytes are the moved volumes per direction.
	H2DBytes, D2HBytes int64
	// Aborts is the number of aborted GPU operators.
	Aborts int64
	// WastedTime is the total begin-to-abort time of aborted GPU operators.
	WastedTime time.Duration
	// GPUOperators / CPUOperators count completed operator executions.
	GPUOperators, CPUOperators int64
	// QueriesRun is the number of completed queries.
	QueriesRun int64
	// Failures is the number of queries that failed cleanly (only non-zero
	// with Spec.ContinueOnError).
	Failures int64
	// Latencies holds per-query-name response times in completion order.
	Latencies map[string][]time.Duration

	// Fault-tolerance counters (zero in fault-free runs).

	// DeviceResets / AllocFaults / TransferFaults count injected
	// infrastructure faults the engine observed.
	DeviceResets, AllocFaults, TransferFaults int64
	// Retries counts device retry attempts after transient faults.
	Retries int64
	// BreakerTrips counts how often the device circuit breaker opened.
	BreakerTrips int64
	// DegradedPlacements counts operators forced from GPU to CPU by the
	// breaker.
	DegradedPlacements int64
	// DeadlineFailures counts queries failed by the per-query deadline.
	DeadlineFailures int64
	// CatalogErrors counts swallowed-then-surfaced catalog lookup failures
	// inside placement heuristics.
	CatalogErrors int64
	// PreloadErrors counts failed data-placement re-establishments after a
	// device reset.
	PreloadErrors int64
}

// MeanLatency returns the average response time of the named query (0 when
// it never ran).
func (r *Result) MeanLatency(name string) time.Duration {
	ls := r.Latencies[name]
	if len(ls) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range ls {
		sum += l
	}
	return sum / time.Duration(len(ls))
}

// Strategy bundles everything that distinguishes the paper's execution
// strategies: the placement heuristic, the per-processor thread-pool bounds
// (chopping), whether the data placement manager drives the cache, and the
// cache-preload behaviour.
type Strategy struct {
	// Label is the name used in experiment output ("Data-Driven Chopping").
	Label string
	// Placer decides operator placement.
	Placer exec.Placer
	// GPUWorkers / CPUWorkers bound operator concurrency; 0 = unbounded.
	GPUWorkers, CPUWorkers int
	// DataDriven runs Algorithm 1 before the measured run and pins the
	// chosen columns (the data-driven data placement of §3).
	DataDriven bool
	// PlacementPolicy selects LFU or LRU ranking for Algorithm 1.
	PlacementPolicy placement.Policy
	// Preload fills the cache before the run even for operator-driven
	// strategies (the paper pre-loads access structures "until the GPU
	// buffer size is reached", §6.1). Ignored when DataDriven is set.
	Preload bool
}

// NewEngine builds a fresh engine over cat with the strategy's concurrency
// bounds and pre-loads the cache per the strategy, warming the access
// statistics from the given query mix (the paper warms the system with two
// unmeasured passes). Run and the network front door share this construction
// so a served engine behaves exactly like a benchmarked one.
func NewEngine(cat *table.Catalog, cfg exec.Config, strat Strategy, warm []Query) (*exec.Engine, error) {
	if strat.GPUWorkers > 0 {
		cfg.GPUWorkers = strat.GPUWorkers
	}
	if strat.CPUWorkers > 0 {
		cfg.CPUWorkers = strat.CPUWorkers
	}
	e := exec.New(cat, cfg)

	// Pre-load the cache. The access statistics come from the workload's
	// own query mix.
	mgr := placement.NewManager(strat.PlacementPolicy)
	for _, q := range warm {
		mgr.Tracker.Record(q.Plan.BaseColumns()...)
	}
	if strat.DataDriven || strat.Preload {
		desired := mgr.Desired(cat, e.Cache.Capacity())
		if err := mgr.ApplyInstant(e, desired, strat.DataDriven); err != nil {
			return nil, fmt.Errorf("workload: preload: %w", err)
		}
		// A device reset wipes the cache; re-establish the data placement so
		// data-driven strategies recover their cached working set instead of
		// degrading to CPU-only for the rest of the run. A failed re-preload
		// is survivable (operator-driven caching takes over) but is counted,
		// never swallowed.
		e.OnReset = func() {
			if err := mgr.ApplyInstant(e, desired, strat.DataDriven); err != nil {
				e.NotePreloadError(err)
			}
		}
	}
	return e, nil
}

// Run executes the workload under the strategy in virtual time on a fresh
// engine over cat — cache pre-loaded per the strategy, the queries
// distributed over the user sessions — and returns the engine (for
// inspection) plus the aggregated result.
func Run(cat *table.Catalog, cfg exec.Config, strat Strategy, spec Spec) (*exec.Engine, Result, error) {
	if spec.Users < 1 {
		return nil, Result{}, fmt.Errorf("workload: need at least one user, got %d", spec.Users)
	}
	if len(spec.Queries) == 0 {
		return nil, Result{}, fmt.Errorf("workload: no queries")
	}
	e, err := NewEngine(cat, cfg, strat, spec.Queries)
	if err != nil {
		return nil, Result{}, err
	}

	total := spec.TotalQueries
	if total == 0 {
		total = spec.Users * len(spec.Queries)
	}
	// Distribute the fixed total of queries over the sessions; the mix is
	// assigned round-robin over the global sequence so every strategy and
	// user count executes the identical multiset of queries.
	perUser := make([][]Query, spec.Users)
	for i := 0; i < total; i++ {
		perUser[i%spec.Users] = append(perUser[i%spec.Users], spec.Queries[i%len(spec.Queries)])
	}

	var admission *sim.Pool
	if spec.AdmissionControl {
		admission = sim.NewPool(e.Sim, "admission", 1)
	}
	result := Result{Strategy: strat.Label, Latencies: make(map[string][]time.Duration)}
	var runErr error
	for u, queries := range perUser {
		e.Sim.Spawn(fmt.Sprintf("user%02d", u), func(p *sim.Proc) {
			for _, q := range queries {
				if runErr != nil {
					return
				}
				// Latency is measured from submission: under admission
				// control it includes the queueing delay — the latency
				// increase the paper attributes to query-level admission
				// (Figure 21).
				submitted := p.Now()
				if admission != nil {
					admission.Acquire(p)
				}
				_, _, err := e.RunQuery(p, q.Plan, strat.Placer)
				if admission != nil {
					admission.Release()
				}
				if err != nil {
					if !spec.ContinueOnError {
						runErr = fmt.Errorf("workload: %s: %w", q.Name, err)
						return
					}
					// Chaos run: the query failed cleanly (its device memory
					// is released); count it and keep the session going.
					result.Failures++
					continue
				}
				result.Latencies[q.Name] = append(result.Latencies[q.Name], p.Now()-submitted)
			}
		})
	}
	result.WorkloadTime = e.Sim.Run()
	if runErr != nil {
		return e, Result{}, runErr
	}
	result.H2DTime = e.Bus.Link(bus.HostToDevice).BusyTime()
	result.D2HTime = e.Bus.Link(bus.DeviceToHost).BusyTime()
	result.H2DBytes = e.Bus.Link(bus.HostToDevice).Bytes()
	result.D2HBytes = e.Bus.Link(bus.DeviceToHost).Bytes()
	result.Aborts = e.Metrics.Aborts.Load()
	result.WastedTime = e.Metrics.WastedTime.Load()
	result.GPUOperators = e.Metrics.GPUOperators.Load()
	result.CPUOperators = e.Metrics.CPUOperators.Load()
	result.QueriesRun = e.Metrics.QueriesCompleted.Load()
	result.DeviceResets = e.Metrics.DeviceResets.Load()
	result.AllocFaults = e.Metrics.AllocFaults.Load()
	result.TransferFaults = e.Metrics.TransferFaults.Load()
	result.Retries = e.Metrics.Retries.Load()
	result.BreakerTrips = e.Health.Trips()
	result.DegradedPlacements = e.Metrics.DegradedPlacements.Load()
	result.DeadlineFailures = e.Metrics.DeadlineFailures.Load()
	result.CatalogErrors = e.Metrics.CatalogErrors.Load()
	result.PreloadErrors = e.Metrics.PreloadErrors.Load()
	return e, result, nil
}
