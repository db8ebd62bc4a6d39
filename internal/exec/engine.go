// Package exec is the execution engine: it runs physical plans through the
// discrete-event simulator, moving data over the simulated PCIe bus,
// allocating device heap, aborting and restarting operators on the CPU when
// the co-processor runs out of memory (the paper's operator-level fault
// tolerance, §2.5.1), and recording every metric the paper's figures plot.
//
// The engine executes plans as a dataflow: leaf operators start immediately,
// every finished operator notifies its parent, and a parent becomes ready
// once all children completed — which is the execution model both of
// CoGaDB's bulk processor (inter-operator parallelism, §2.5) and of query
// chopping's global operator stream (§5.2). Compile-time strategies fix a
// placement before the query runs; run-time strategies decide per ready
// operator. Thread-pool bounds on the processors' worker pools turn the
// run-time mode into query chopping.
package exec

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/cache"
	"robustdb/internal/cost"
	"robustdb/internal/device"
	"robustdb/internal/engine"
	"robustdb/internal/faults"
	"robustdb/internal/par"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/trace"
)

// UnboundedWorkers is the worker-pool capacity used when a strategy does not
// limit operator concurrency (the OS/driver schedules freely, §5.2).
const UnboundedWorkers = 4096

// Config sizes the simulated machine for one run.
type Config struct {
	// Params are the machine's cost-model constants; nil uses DefaultParams.
	Params *cost.Params
	// CacheBytes is the device column cache capacity (the paper's "GPU
	// buffer size").
	CacheBytes int64
	// HeapBytes is the device heap capacity for operator intermediates.
	HeapBytes int64
	// CachePolicy selects LRU or LFU replacement (Appendix E).
	CachePolicy cache.Policy
	// CPUWorkers and GPUWorkers bound operator concurrency per processor;
	// 0 means UnboundedWorkers. Query chopping sets small bounds.
	CPUWorkers int
	GPUWorkers int
	// KernelWorkers bounds intra-operator parallelism: the morsel-driven
	// kernels fan each operator out over up to this many OS threads.
	// 0 or 1 runs every kernel serially (the determinism goldens rely on
	// this); kernel results are bit-identical at every setting. Unlike
	// CPUWorkers/GPUWorkers — simulated admission bounds — this controls
	// real host concurrency while computing exact results.
	KernelWorkers int
	// ForceCopyBack copies every GPU operator result back to the host
	// immediately, so successors re-upload it: the per-operator round trips
	// of UVA-style processing, which "pays the same data transfer cost as
	// manual data placement" (§2.5.3). Used for cold-cache baselines
	// (Figure 1).
	ForceCopyBack bool
	// Faults, when non-nil, injects the configured fault schedule into the
	// run: the injector's hooks wrap the device heap and the bus, and the
	// engine polls it for device resets and operator slowdowns.
	Faults *faults.Injector
	// Health tunes the device circuit breaker; the zero value uses defaults.
	// The breaker only reacts to infrastructure faults, so it never trips in
	// fault-free runs.
	Health HealthConfig
	// Retry bounds the per-operator retry of transient device faults; the
	// zero value uses defaults. Capacity (OOM) aborts are never retried —
	// they fall back to the CPU immediately, as in the paper.
	Retry RetryConfig
	// QueryDeadline fails any query still running after this much virtual
	// time, releasing its device reservations (0 = no deadline).
	QueryDeadline time.Duration
	// PipelineDepth enables the pipelined chunk executor for chunkable
	// GPU-placed leaf operators: up to this many chunks are buffered in
	// flight, overlapping the upload of chunk i+1 with the device compute of
	// chunk i and the download of chunk i−1 over the full-duplex bus.
	// 0 (the default) disables pipelining — operators run the serial
	// transfer-then-compute path, bit-identical to the pre-pipeline engine.
	PipelineDepth int
	// PipelineCoExec lets the pipelined executor hand trailing chunks to the
	// CPU worker pool when the GPU side is saturated or the circuit breaker
	// has degraded the device, stitching results in chunk order (§5.2
	// co-execution). Only meaningful with PipelineDepth > 0.
	PipelineCoExec bool
	// PipelineChunkRows, when > 0, fixes the chunk size instead of deriving
	// it from the cost model (cost.PipelineChunkRows); ablation studies
	// sweep it.
	PipelineChunkRows int
	// Tracer, when non-nil, records one span per operator execution attempt
	// and one event per cache/placement decision, all in virtual time. Nil
	// disables tracing at zero per-operator cost.
	Tracer *trace.Tracer
	// Log, when non-nil, receives structured slog records for engine events
	// (query completions/failures, operator aborts, device resets, breaker
	// trips, placement decisions at debug level). Nil disables logging
	// entirely — the equivalent of an io.Discard handler, but with a single
	// nil check on the hot path so the zero-alloc guarantees hold.
	Log *slog.Logger
}

// RetryConfig bounds the engine's retry of transient device faults.
type RetryConfig struct {
	// MaxAttempts is the total number of device attempts per operator
	// (default 3). 1 disables retry.
	MaxAttempts int
	// BackoffBase is the virtual-time backoff before the first retry; each
	// further retry doubles it (default 100µs).
	BackoffBase time.Duration
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 100 * time.Microsecond
	}
	return r
}

// backoff returns the hold before retry number attempt+1 (attempt counts
// from 0): base, 2×base, 4×base, …
func (r RetryConfig) backoff(attempt int) time.Duration {
	d := r.BackoffBase
	for ; attempt > 0 && d < time.Second; attempt-- {
		d *= 2
	}
	return d
}

// Processor is one simulated processor: a processor-sharing compute server
// plus a worker pool bounding concurrent operators.
type Processor struct {
	Kind    cost.ProcKind
	Server  *sim.SharedServer
	Workers *sim.Pool
}

// Engine ties the substrates together for one simulation run.
type Engine struct {
	Sim     *sim.Sim
	Cat     *table.Catalog
	Params  *cost.Params
	Learner *cost.Learner
	Bus     *bus.Bus
	Cache   *cache.Cache
	Heap    *device.Memory
	CPU     *Processor
	GPU     *Processor
	Metrics *Metrics
	// Tracer records operator spans and decision events; nil when tracing is
	// off. Placement strategies and the data-placement manager emit their
	// decisions through it.
	Tracer *trace.Tracer
	// Log receives structured engine events; nil disables logging at a
	// single nil-check per hook (see Config.Log). The chopping placers and
	// the data-placement manager share it.
	Log *slog.Logger
	// Health is the device circuit breaker; every placement decision
	// consults it (degradation ladder, DESIGN.md).
	Health *Health
	// OnReset, when set, runs after every device reset — the data placement
	// manager uses it to re-establish pinned cache contents once the device
	// comes back.
	OnReset func()

	// outstanding tracks the estimated seconds of queued + running work per
	// processor; run-time placement balances load with it (§5.2).
	outstanding   map[cost.ProcKind]float64
	queryCount    int
	forceCopyBack bool
	injector      *faults.Injector
	retry         RetryConfig
	deadline      time.Duration
	pipeDepth     int
	pipeCoExec    bool
	pipeChunkRows int
	// deviceValues registers every device-resident Value so a device reset
	// can invalidate all of them.
	deviceValues map[*Value]struct{}
	// kernels is the morsel worker pool shared by every operator's kernels;
	// nil when the engine is configured serial (KernelWorkers <= 1).
	kernels *par.Pool
}

// kernelCtx returns a fresh kernel context for one operator attempt, or nil
// when the engine runs its kernels serially.
func (e *Engine) kernelCtx() *engine.Ctx {
	if e.kernels == nil {
		return nil
	}
	return engine.NewCtx(e.kernels)
}

// New builds an engine over the catalog with the given configuration.
func New(cat *table.Catalog, cfg Config) *Engine {
	params := cfg.Params
	if params == nil {
		params = cost.DefaultParams()
	}
	cpuWorkers := cfg.CPUWorkers
	if cpuWorkers == 0 {
		cpuWorkers = UnboundedWorkers
	}
	gpuWorkers := cfg.GPUWorkers
	if gpuWorkers == 0 {
		gpuWorkers = UnboundedWorkers
	}
	s := sim.New()
	e := &Engine{
		Sim:     s,
		Cat:     cat,
		Params:  params,
		Learner: cost.NewLearner(params),
		Bus:     bus.New(s, bus.Config{Bandwidth: params.BusBandwidth, Latency: params.BusLatency}),
		Cache:   cache.New(cfg.CacheBytes, cfg.CachePolicy),
		Heap:    device.NewMemory("gpu-heap", cfg.HeapBytes),
		CPU: &Processor{
			Kind:    cost.CPU,
			Server:  sim.NewSharedServer(s, "cpu", 1.0),
			Workers: sim.NewPool(s, "cpu-workers", cpuWorkers),
		},
		GPU: &Processor{
			Kind:    cost.GPU,
			Server:  sim.NewSharedServer(s, "gpu", 1.0),
			Workers: sim.NewPool(s, "gpu-workers", gpuWorkers),
		},
		Metrics:       NewMetrics(),
		Tracer:        cfg.Tracer,
		Log:           cfg.Log,
		Health:        NewHealth(cfg.Health),
		outstanding:   make(map[cost.ProcKind]float64),
		forceCopyBack: cfg.ForceCopyBack,
		injector:      cfg.Faults,
		retry:         cfg.Retry.withDefaults(),
		deadline:      cfg.QueryDeadline,
		pipeDepth:     cfg.PipelineDepth,
		pipeCoExec:    cfg.PipelineCoExec,
		pipeChunkRows: cfg.PipelineChunkRows,
		deviceValues:  make(map[*Value]struct{}),
	}
	// Mirror per-direction link busy time into the atomic metrics registry so
	// /metrics exposes robustdb_bus_busy_seconds_total{direction=...} live.
	e.Bus.Link(bus.HostToDevice).SetBusyMeter(func(d time.Duration) { e.Metrics.BusBusyH2D.Add(d) })
	e.Bus.Link(bus.DeviceToHost).SetBusyMeter(func(d time.Duration) { e.Metrics.BusBusyD2H.Add(d) })
	if cfg.KernelWorkers > 1 {
		e.kernels = par.New(cfg.KernelWorkers)
	}
	if cfg.Faults != nil {
		cfg.Faults.WrapMemory(s, e.Heap)
		cfg.Faults.WrapBus(s, e.Bus)
	}
	// The cache counts straight into the atomic registry, at mutation time,
	// so live monitoring (and the thrashing detector's windows) can read the
	// statistics from other goroutines while the simulator runs.
	e.Cache.SetStats(cache.Stats{
		Hits:          e.Metrics.CacheHits,
		Misses:        e.Metrics.CacheMisses,
		Evictions:     e.Metrics.CacheEvictions,
		Readmits:      e.Metrics.CacheReadmits,
		FailedInserts: e.Metrics.CacheFailedInserts,
	})
	return e
}

// DeviceReset performs a full device reset: the heap is wiped (invalidating
// every outstanding reservation), the column cache is flushed, and every
// device-resident intermediate loses its device copy — its data survives on
// the host, where the batch is authoritative. The health tracker records the
// reset as an infrastructure fault.
func (e *Engine) DeviceReset() {
	for v := range e.deviceValues {
		v.OnDevice = false
		v.res = nil
		delete(e.deviceValues, v)
	}
	e.Cache.Flush()
	e.Heap.Reset()
	e.Metrics.DeviceResets.Inc()
	if e.Tracer != nil {
		e.Tracer.Event(trace.Event{At: e.Sim.Now(), Kind: "reset",
			Subject: e.Heap.Name(), Reason: "device-reset"})
	}
	e.Health.NoteFault(e.Sim.Now())
	e.logEvent(slog.LevelWarn, "device reset",
		slog.String("component", "exec"),
		slog.Duration("vt", e.Sim.Now()),
		slog.String("processor", "gpu"))
	if e.OnReset != nil {
		e.OnReset()
	}
}

// pollReset fires any device reset the fault schedule has made due.
func (e *Engine) pollReset(now time.Duration) bool {
	if e.injector != nil && e.injector.TakeReset(now) {
		e.DeviceReset()
		return true
	}
	return false
}

// newDeviceValue registers a freshly produced device-resident result.
func (e *Engine) newDeviceValue(batch *engine.Batch, res *device.Reservation) *Value {
	v := &Value{Batch: batch, OnDevice: true, res: res}
	e.deviceValues[v] = struct{}{}
	return v
}

// dropDevice releases a value's device copy (if any) and marks it
// host-resident. Safe to call on host-resident values and after resets.
func (e *Engine) dropDevice(v *Value) {
	if !v.OnDevice {
		return
	}
	if v.res != nil {
		v.res.Release()
	}
	v.OnDevice = false
	v.res = nil
	delete(e.deviceValues, v)
}

// NoteCatalogError surfaces a swallowed catalog lookup failure: placement
// heuristics must still fall back to a safe decision, but the error is
// counted instead of silently hidden (the engine error counter of the
// robustness work).
func (e *Engine) NoteCatalogError(err error) {
	if err != nil {
		e.Metrics.CatalogErrors.Inc()
	}
}

// NotePreloadError surfaces a failed cache preload or post-reset placement
// re-establishment: the engine degrades to operator-driven caching instead
// of failing the run, but the error is counted instead of silently hidden.
func (e *Engine) NotePreloadError(err error) {
	if err != nil {
		e.Metrics.PreloadErrors.Inc()
	}
}

// Processor returns the processor of the given kind.
func (e *Engine) Processor(kind cost.ProcKind) *Processor {
	if kind == cost.GPU {
		return e.GPU
	}
	return e.CPU
}

// Outstanding returns the estimated seconds of queued + running work on the
// processor.
func (e *Engine) Outstanding(kind cost.ProcKind) float64 { return e.outstanding[kind] }

// addLoad registers estimated work with a processor's queue estimate.
func (e *Engine) addLoad(kind cost.ProcKind, seconds float64) { e.outstanding[kind] += seconds }

// removeLoad retires estimated work from a processor's queue estimate.
func (e *Engine) removeLoad(kind cost.ProcKind, seconds float64) {
	e.outstanding[kind] -= seconds
	if e.outstanding[kind] < 0 {
		e.outstanding[kind] = 0
	}
}

// Placer decides where operators run. Implementations live in the placer
// (compile-time heuristics) and chopping (run-time heuristics) packages.
type Placer interface {
	// Name returns the strategy label used in experiment output.
	Name() string
	// CompileTime returns a full node-id → processor placement decided
	// before execution, or nil for run-time strategies.
	CompileTime(e *Engine, p *plan.Plan) map[int]cost.ProcKind
	// RunTime places one ready operator given where its inputs currently
	// are. Only called when CompileTime returned nil.
	RunTime(e *Engine, n *plan.Node, inputs []*Value) cost.ProcKind
}

// Value is a materialized intermediate result and its current location.
type Value struct {
	Batch    *engine.Batch
	OnDevice bool
	res      *device.Reservation // holds the device copy while OnDevice
}

// Bytes returns the footprint of the value.
func (v *Value) Bytes() int64 { return v.Batch.Bytes() }

// InputBytes sums base-column bytes and child-result bytes of a node.
func (e *Engine) InputBytes(n *plan.Node, inputs []*Value) (int64, error) {
	var in int64
	for _, id := range n.Op.BaseColumns() {
		b, err := e.Cat.ColumnBytes(id)
		if err != nil {
			return 0, err
		}
		in += b
	}
	for _, v := range inputs {
		in += v.Bytes()
	}
	return in, nil
}

// TransferInEstimate estimates the bus seconds needed to make the inputs of
// n resident on kind: uncached base columns and host-resident intermediates
// for the GPU, device-resident intermediates for the CPU.
func (e *Engine) TransferInEstimate(kind cost.ProcKind, n *plan.Node, inputs []*Value) float64 {
	var bytes int64
	if kind == cost.GPU {
		for _, id := range n.Op.BaseColumns() {
			if !e.Cache.Contains(id) {
				if b, err := e.Cat.ColumnBytes(id); err == nil {
					bytes += b
				} else {
					// Estimating zero bytes keeps the decision safe; the
					// lookup failure itself must not vanish.
					e.NoteCatalogError(err)
				}
			}
		}
		for _, v := range inputs {
			if !v.OnDevice {
				bytes += v.Bytes()
			}
		}
	} else {
		for _, v := range inputs {
			if v.OnDevice {
				bytes += v.Bytes()
			}
		}
	}
	if bytes == 0 {
		return 0
	}
	return e.Bus.Duration(bus.HostToDevice, bytes).Seconds()
}

// nextQueryID hands out unique query names for deterministic process naming.
func (e *Engine) nextQueryID() int {
	e.queryCount++
	return e.queryCount
}

// procName builds the unique simulator process name of an operator run.
func procName(query string, n *plan.Node) string {
	return fmt.Sprintf("%s/op%03d", query, n.ID())
}

// observe feeds a measured operator execution into the learner and metrics.
func (e *Engine) observe(class cost.OpClass, kind cost.ProcKind, bytes int64, d time.Duration) {
	e.Learner.Observe(class, kind, bytes, d)
	e.Metrics.OperatorRuns.Inc()
	if kind == cost.GPU {
		e.Metrics.GPURunTime.Observe(d)
	} else {
		e.Metrics.CPURunTime.Observe(d)
	}
}

// logEnabled reports whether a log record at the given level would be
// emitted. The nil check comes first so the no-logger configuration costs
// one comparison and zero allocations on every hook.
func (e *Engine) logEnabled(level slog.Level) bool {
	return e.Log != nil && e.Log.Enabled(context.Background(), level)
}

// logEvent emits one structured engine event. Callers on hot paths must
// guard with logEnabled before building attributes; logEvent re-checks so a
// bare call with pre-built attrs is still safe.
func (e *Engine) logEvent(level slog.Level, msg string, attrs ...slog.Attr) {
	if !e.logEnabled(level) {
		return
	}
	e.Log.LogAttrs(context.Background(), level, msg, attrs...)
}

// LogPlacement emits one placement decision at debug level on behalf of a
// run-time placer (the chopping package calls it alongside its trace event).
// With no logger, or debug disabled, it is a nil-check no-op; the operator
// name is only formatted past the gate, keeping the decision path
// allocation-free when logging is off.
func (e *Engine) LogPlacement(n *plan.Node, kind, reason string) {
	if !e.logEnabled(slog.LevelDebug) {
		return
	}
	e.Log.LogAttrs(context.Background(), slog.LevelDebug, "place operator",
		slog.String("component", "chopping"),
		slog.Duration("vt", e.Sim.Now()),
		slog.String("operator", n.Op.Name()),
		slog.String("processor", kind),
		slog.String("reason", reason))
}

// traceCacheAdmit emits the cache events of one operator-driven admission:
// the admitted column plus every victim the insertion displaced. No-op when
// tracing is off.
func (e *Engine) traceCacheAdmit(at time.Duration, id table.ColumnID, evicted []table.ColumnID, reason string) {
	if e.Tracer == nil {
		return
	}
	for _, v := range evicted {
		e.Tracer.Event(trace.Event{At: at, Kind: "evict", Subject: string(v), Reason: "replacement"})
	}
	e.Tracer.Event(trace.Event{At: at, Kind: "admit", Subject: string(id), Reason: reason})
}
