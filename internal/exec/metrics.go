package exec

import (
	"robustdb/internal/trace"
)

// Metrics exposes the run-wide counters the paper's figures report, backed
// by a trace.Registry so the same series are available by name (snapshots,
// deltas, exports). The field names double as the registered metric names.
//
// Counters are atomic: the simulator itself is single-threaded, but the
// chaos suite runs engines from multiple test goroutines under -race, and
// metrics may be read (aggregation, monitoring) while another engine still
// runs — plain fields would be a data race.
type Metrics struct {
	reg *trace.Registry

	// Aborts counts GPU operators that failed a device allocation and were
	// restarted on the CPU (Figure 13).
	Aborts *trace.Counter
	// WastedTime sums, over all aborted GPU operators, the virtual time from
	// operator begin to abort (Figure 20).
	WastedTime *trace.DurationCounter
	// OperatorRuns counts successfully completed operator executions.
	OperatorRuns *trace.Counter
	// GPUOperators counts operators that completed on the GPU.
	GPUOperators *trace.Counter
	// CPUOperators counts operators that completed on the CPU.
	CPUOperators *trace.Counter
	// QueriesCompleted counts finished queries.
	QueriesCompleted *trace.Counter
	// QueriesFailed counts queries that ended with an error (including
	// deadline failures). Failed queries release all device memory.
	QueriesFailed *trace.Counter
	// PlacementTransfers counts the H2D transfers issued by the data
	// placement manager's background job (not charged to queries).
	PlacementTransfers *trace.Counter

	// Fault-tolerance counters (the chaos/robustness work).

	// AllocFaults counts injected transient device-allocation failures the
	// engine observed.
	AllocFaults *trace.Counter
	// TransferFaults counts bus transfers that failed with an injected
	// fault.
	TransferFaults *trace.Counter
	// DeviceResets counts full device resets (heap wiped, cache flushed,
	// device-resident intermediates invalidated).
	DeviceResets *trace.Counter
	// StuckOps counts GPU operators that hung before making progress.
	StuckOps *trace.Counter
	// Retries counts device retry attempts after transient faults.
	Retries *trace.Counter
	// DegradedPlacements counts operators the device circuit breaker forced
	// from GPU to CPU placement.
	DegradedPlacements *trace.Counter
	// DeadlineFailures counts queries failed by the per-query deadline.
	DeadlineFailures *trace.Counter
	// CatalogErrors counts catalog lookups that failed inside placement
	// heuristics and cost estimates — previously swallowed, now surfaced.
	CatalogErrors *trace.Counter
	// PreloadErrors counts failed data-placement re-establishments after a
	// device reset. The run continues (operator-driven caching still works,
	// merely slower), but the failure must not vanish.
	PreloadErrors *trace.Counter

	// Cache statistics, counted here by the column cache at mutation time so
	// the live observability surface reads them atomically while the
	// simulator runs (the cache itself is single-threaded).

	// CacheHits / CacheMisses count column-cache lookups by outcome.
	CacheHits, CacheMisses *trace.Counter
	// CacheEvictions counts columns leaving the cache.
	CacheEvictions *trace.Counter
	// CacheReadmits counts insertions of previously evicted columns — the
	// evict-then-readmit churn that defines cache thrashing (§2.3, Fig. 2);
	// the online thrashing detector keys on its per-window rate.
	CacheReadmits *trace.Counter
	// CacheFailedInserts counts rejected cache insertions.
	CacheFailedInserts *trace.Counter

	// H2DBytes / D2HBytes count payload bytes moved by operator-path bus
	// transfers per direction (successful transfers only). Unlike the bus
	// link's own accounting they are atomic, so per-window transfer volume
	// is available to the online detectors.
	H2DBytes, D2HBytes *trace.Counter

	// GPURunTime and CPURunTime are per-processor histograms of completed
	// operator run times (virtual time, excluding queue wait).
	GPURunTime *trace.Histogram
	CPURunTime *trace.Histogram
	// HeapHighWater mirrors the device heap's high-water mark as a gauge so
	// snapshots capture it alongside the counters.
	HeapHighWater *trace.Gauge
	// KernelMorsels counts the morsels the parallel kernels dispatched
	// (exposed as robustdb_kernel_morsels_total; 0 in serial mode).
	KernelMorsels *trace.Counter

	// Misestimation series: the estimate-vs-actual loop EXPLAIN ANALYZE
	// closes, aggregated so cost-model drift is visible on /metrics before
	// it misplaces work. Observed once per completed operator whose plan
	// carried estimates (SQL-path plans; hand-built benchmark plans without
	// EstimateSizes observe nothing).

	// EstimateRowsRatio observes est_rows/actual_rows per completed operator
	// (robustdb_estimate_rows_ratio; 1.0 = perfect, buckets 2^(i-16)).
	EstimateRowsRatio *trace.RatioHistogram
	// EstimateBytesRatio observes est_out_bytes/actual_bytes per completed
	// operator (robustdb_estimate_bytes_ratio).
	EstimateBytesRatio *trace.RatioHistogram
	// QErrorMax is the worst per-operator cardinality q-error —
	// max(est/actual, actual/est) — seen over the engine's lifetime
	// (robustdb_q_error_max).
	QErrorMax *trace.FloatGauge

	// Pipelined chunk executor series (the transfer/compute overlap work).

	// PipelinedOps counts operators that ran through the pipelined chunk
	// executor instead of the serial transfer-then-compute path.
	PipelinedOps *trace.Counter
	// PipelineChunks counts chunks executed by the pipelined executor
	// (both processors).
	PipelineChunks *trace.Counter
	// PipelineCPUChunks counts the chunks the co-execution policy handed to
	// the CPU pool while the GPU worked the rest.
	PipelineCPUChunks *trace.Counter
	// QueryOverlapRatio observes, per completed query that ran pipelined
	// operators, the fraction of transfer+compute time hidden by overlap:
	// (sum of stage times − busy wall time) / sum of stage times, clamped to
	// [0, 1]. 0 = fully serial, →1 = fully hidden.
	QueryOverlapRatio *trace.RatioHistogram
	// BusBusyH2D / BusBusyD2H mirror the bus links' interval-union busy time
	// per direction, as a labeled family: robustdb_bus_busy_seconds_total
	// {direction="h2d"|"d2h"}.
	BusBusyH2D *trace.DurationCounter
	BusBusyD2H *trace.DurationCounter
}

// NewMetrics builds a metrics set over a fresh registry.
func NewMetrics() *Metrics {
	reg := trace.NewRegistry()
	return &Metrics{
		reg:                reg,
		Aborts:             reg.Counter("Aborts"),
		WastedTime:         reg.Duration("WastedTime"),
		OperatorRuns:       reg.Counter("OperatorRuns"),
		GPUOperators:       reg.Counter("GPUOperators"),
		CPUOperators:       reg.Counter("CPUOperators"),
		QueriesCompleted:   reg.Counter("QueriesCompleted"),
		QueriesFailed:      reg.Counter("QueriesFailed"),
		PlacementTransfers: reg.Counter("PlacementTransfers"),
		AllocFaults:        reg.Counter("AllocFaults"),
		TransferFaults:     reg.Counter("TransferFaults"),
		DeviceResets:       reg.Counter("DeviceResets"),
		StuckOps:           reg.Counter("StuckOps"),
		Retries:            reg.Counter("Retries"),
		DegradedPlacements: reg.Counter("DegradedPlacements"),
		DeadlineFailures:   reg.Counter("DeadlineFailures"),
		CatalogErrors:      reg.Counter("CatalogErrors"),
		PreloadErrors:      reg.Counter("PreloadErrors"),
		CacheHits:          reg.Counter("CacheHits"),
		CacheMisses:        reg.Counter("CacheMisses"),
		CacheEvictions:     reg.Counter("CacheEvictions"),
		CacheReadmits:      reg.Counter("CacheReadmits"),
		CacheFailedInserts: reg.Counter("CacheFailedInserts"),
		H2DBytes:           reg.Counter("H2DBytes"),
		D2HBytes:           reg.Counter("D2HBytes"),
		GPURunTime:         reg.Histogram("GPURunTime"),
		CPURunTime:         reg.Histogram("CPURunTime"),
		HeapHighWater:      reg.Gauge("HeapHighWater"),
		KernelMorsels:      reg.Counter("KernelMorsels"),
		EstimateRowsRatio:  reg.Ratio("EstimateRowsRatio"),
		EstimateBytesRatio: reg.Ratio("EstimateBytesRatio"),
		QErrorMax:          reg.FloatGauge("QErrorMax"),
		PipelinedOps:       reg.Counter("PipelinedOps"),
		PipelineChunks:     reg.Counter("PipelineChunks"),
		PipelineCPUChunks:  reg.Counter("PipelineCPUChunks"),
		QueryOverlapRatio:  reg.Ratio("QueryOverlapRatio"),
		BusBusyH2D:         reg.Duration(trace.LabeledName("BusBusy", "direction", "h2d")),
		BusBusyD2H:         reg.Duration(trace.LabeledName("BusBusy", "direction", "d2h")),
	}
}

// Registry returns the backing registry (for snapshots and custom series).
func (m *Metrics) Registry() *trace.Registry { return m.reg }

// Snapshot freezes every registered series.
func (m *Metrics) Snapshot() trace.Snapshot { return m.reg.Snapshot() }
