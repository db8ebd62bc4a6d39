// Command robustdb runs benchmark workloads on the simulated co-processor
// machine and reports the paper's robustness metrics.
//
// Usage:
//
//	robustdb [flags]
//
// Flags:
//
//	-bench ssb|tpch     benchmark database (default ssb)
//	-sf N               scale factor (default 10)
//	-rows N             rows per scale factor (default: generator default)
//	-strategy NAME      cpu-only | gpu-only | critical-path | data-driven |
//	                    runtime | chopping | data-driven-chopping | all
//	-users N            parallel user sessions (default 1)
//	-total N            total queries, split over the users (default: one
//	                    pass over the query mix per user)
//	-query NAME         run a single named query instead of the full mix
//	-explain SQL        print the plan document for a statement as indented
//	                    JSON (operator tree, predicates, size estimates,
//	                    per-scan compression modes) and exit without
//	                    executing it; serve mode exposes the same document
//	                    on POST /v1/explain with placement decisions
//	-analyze            with -explain: execute the statement once on a fresh
//	                    simulated machine under -strategy and attach per-node
//	                    actuals (rows, bytes, virtual wall/queue/transfer
//	                    time, attempts, processor) — EXPLAIN ANALYZE; serve
//	                    mode accepts the same via POST /v1/explain?analyze=1
//	                    or an EXPLAIN ANALYZE statement
//	-cache-frac F       device cache as a fraction of the database (default 0.5)
//	-heap-frac F        device heap as a fraction of the database (default 1.0)
//	-admission          admit only one query at a time (baseline)
//	-kernel-workers N   worker threads per operator kernel (morsel-driven
//	                    parallelism; default GOMAXPROCS). 1 runs every kernel
//	                    serially — results are bit-identical either way, so
//	                    use 1 when comparing traces against goldens.
//	-trace FILE         write an operator-level execution trace as Chrome
//	                    trace_event JSON (open in chrome://tracing or
//	                    ui.perfetto.dev; summarize with cmd/tracereport).
//	                    With -strategy all, one file per strategy is written
//	                    (FILE with "-<strategy>" before the extension).
//	-log-level LEVEL    structured log level: debug, info, warn, error
//	                    (default info; logs go to stderr as slog text)
//
// Serve mode (multi-tenant query front door):
//
//	-serve ADDR         serve POST /v1/query (tenant-tagged SQL through
//	                    admission control) plus /metrics (Prometheus),
//	                    /healthz, /debug/admission, /debug/slowlog,
//	                    /debug/snapshot, /debug/spans, and /debug/pprof
//	                    on ADDR until
//	                    SIGINT/SIGTERM, then drain within -drain-timeout
//	                    and exit 0. Needs a single -strategy. A background
//	                    tenant cycles the benchmark mix through the same
//	                    front door so the detectors always have signal; its
//	                    first pass ends before the first connection is accepted.
//	-serve-window D     detector sampling + backpressure interval (default 500ms)
//	-serve-cooldown D   idle gap between background passes (default 2s); the
//	                    idle windows let the detectors observe recovery
//	-admission-policy P admission policy: fifo, fair, or detector
//	                    (default fair; detector couples admitted concurrency
//	                    to the thrashing/contention detectors)
//	-admit N            queries admitted into the engine at once (default:
//	                    derived from the strategy's chopping pool bounds)
//	-queue-depth N      bounded admission queue length (default 64)
//	-queue-timeout D    max queue wait before a queued query is shed
//	                    (default 5s)
//	-tenant-inflight N  per-tenant in-flight cap (default: same as -admit)
//	-max-conns N        accepted TCP connection limit (default 256)
//	-drain-timeout D    bound on the SIGTERM drain (default 10s)
//	-slowlog-capacity N slow-query journal ring capacity (default 256;
//	                    0 disables the journal and /debug/slowlog)
//	-slowlog-threshold D
//	                    virtual latency at or above which a query is
//	                    journaled (default 100ms; 0 journals every query)
//	-slowlog-qerror F   q-error at or above which a query is journaled
//	                    regardless of latency (default 16; 0 disables)
//
// Loadgen mode (open-loop client fleet):
//
//	-loadgen URL        offer open-loop load against the front door at URL
//	                    (e.g. http://localhost:8080) and report admitted/
//	                    shed counts and latency quantiles. Runs without
//	                    building a dataset.
//	-rate F             offered arrival rate in queries/second (default 50)
//	-duration D         loadgen run length (default 10s)
//	-tenant-mix SPEC    comma list of name:share[:priority] tenants
//	                    (default one "default" tenant), e.g. gold:3:1,bronze:1
//
// Fault injection (chaos runs — all off by default):
//
//	-fault-seed N       injector seed (schedule is reproducible per seed)
//	-fault-alloc F      transient device-allocation failure probability
//	-fault-transfer F   transient bus-transfer failure probability
//	-fault-resets N     number of full device resets over the run
//	-fault-stuck F      probability a GPU operator hangs before progress
//	-deadline D         per-query deadline (e.g. 50ms; 0 = none)
//
// Example — the paper's headline comparison at 20 users:
//
//	robustdb -bench ssb -sf 10 -users 20 -total 100 -strategy all
//
// Example — the same run under 5% transient faults and two device resets:
//
//	robustdb -users 20 -total 100 -strategy all \
//	    -fault-seed 7 -fault-alloc 0.05 -fault-transfer 0.05 -fault-resets 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"robustdb"
	"robustdb/internal/obs"
)

func main() {
	bench := flag.String("bench", "ssb", "benchmark: ssb or tpch")
	sf := flag.Int("sf", 10, "scale factor")
	rows := flag.Int("rows", 0, "rows per scale factor (0 = default)")
	stratName := flag.String("strategy", "data-driven-chopping", "execution strategy or 'all'")
	users := flag.Int("users", 1, "parallel user sessions")
	total := flag.Int("total", 0, "total queries over all users")
	queryName := flag.String("query", "", "single query to run (e.g. Q3.3)")
	cacheFrac := flag.Float64("cache-frac", 0.5, "device cache / database bytes")
	heapFrac := flag.Float64("heap-frac", 1.0, "device heap / database bytes")
	admission := flag.Bool("admission", false, "admission control: one query at a time")
	pipelineDepth := flag.Int("pipeline-depth", 2,
		"in-flight chunk bound of the pipelined chunk executor (0 disables pipelining)")
	pipelineCoExec := flag.Bool("pipeline-coexec", true,
		"let the pipelined executor hand trailing chunks to the CPU when the device side is saturated")
	kernelWorkers := flag.Int("kernel-workers", runtime.GOMAXPROCS(0),
		"worker threads per operator kernel (1 = serial; results are bit-identical at any setting)")
	seed := flag.Int64("seed", 0, "generator seed")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed")
	faultAlloc := flag.Float64("fault-alloc", 0, "transient device-allocation failure probability")
	faultTransfer := flag.Float64("fault-transfer", 0, "transient bus-transfer failure probability")
	faultResets := flag.Int("fault-resets", 0, "full device resets over the run")
	faultStuck := flag.Float64("fault-stuck", 0, "probability a GPU operator hangs before progress")
	deadline := flag.Duration("deadline", 0, "per-query deadline (0 = none)")
	explainSQL := flag.String("explain", "", "print the EXPLAIN plan document for a SQL statement as JSON and exit")
	analyze := flag.Bool("analyze", false, "with -explain: execute the statement under -strategy and attach per-node actuals (EXPLAIN ANALYZE)")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON to this file")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	serve := flag.String("serve", "", "serve mode: listen address for the query front door + observability surface (e.g. :8080)")
	serveWindow := flag.Duration("serve-window", 500*time.Millisecond, "detector sampling + backpressure interval in serve mode")
	serveCooldown := flag.Duration("serve-cooldown", 2*time.Second, "idle gap between background workload passes in serve mode")
	admissionPolicy := flag.String("admission-policy", "fair", "admission policy in serve mode: fifo, fair, or detector")
	admit := flag.Int("admit", 0, "queries admitted into the engine at once in serve mode (0 = derive from the strategy's chopping pool bounds)")
	queueDepth := flag.Int("queue-depth", 64, "bounded admission queue length in serve mode")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max admission queue wait before a queued query is shed")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant in-flight cap in serve mode (0 = same as -admit)")
	maxConns := flag.Int("max-conns", 256, "accepted TCP connection limit in serve mode")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on the SIGTERM drain in serve mode")
	slowlogCap := flag.Int("slowlog-capacity", 256, "slow-query journal ring capacity in serve mode (0 disables /debug/slowlog)")
	slowlogThreshold := flag.Duration("slowlog-threshold", 100*time.Millisecond, "virtual latency at or above which a query is journaled (0 journals every query)")
	slowlogQError := flag.Float64("slowlog-qerror", 16, "q-error at or above which a query is journaled regardless of latency (0 disables the gate)")
	loadgen := flag.String("loadgen", "", "loadgen mode: front-door URL to offer open-loop load against (e.g. http://localhost:8080)")
	rate := flag.Float64("rate", 50, "offered arrival rate in queries/second in loadgen mode")
	duration := flag.Duration("duration", 10*time.Second, "loadgen run length")
	tenantMix := flag.String("tenant-mix", "", "loadgen tenant mix: comma list of name:share[:priority]")
	flag.Parse()

	opts := options{
		bench:            *bench,
		sf:               *sf,
		rows:             *rows,
		strategy:         *stratName,
		users:            *users,
		total:            *total,
		query:            *queryName,
		cacheFrac:        *cacheFrac,
		heapFrac:         *heapFrac,
		kernelWorkers:    *kernelWorkers,
		logLevel:         *logLevel,
		serve:            *serve,
		serveWindow:      *serveWindow,
		serveCooldown:    *serveCooldown,
		pipelineDepth:    *pipelineDepth,
		deadline:         *deadline,
		faultAlloc:       *faultAlloc,
		faultTransfer:    *faultTransfer,
		faultStuck:       *faultStuck,
		faultResets:      *faultResets,
		admissionPolicy:  *admissionPolicy,
		admit:            *admit,
		queueDepth:       *queueDepth,
		tenantInflight:   *tenantInflight,
		maxConns:         *maxConns,
		drainTimeout:     *drainTimeout,
		slowlogCap:       *slowlogCap,
		slowlogThreshold: *slowlogThreshold,
		slowlogQError:    *slowlogQError,
		loadgen:          *loadgen,
		rate:             *rate,
		duration:         *duration,
		tenantMix:        *tenantMix,
	}
	// Validate every flag before the dataset build: a typo'd flag must fail
	// in milliseconds with exit 2, not after data generation.
	if err := validateOptions(opts); err != nil {
		fmt.Fprintf(os.Stderr, "robustdb: %v\n", err)
		os.Exit(2)
	}
	level, _ := parseLogLevel(*logLevel) // validated above
	logger := obs.NewLogger(os.Stderr, level)

	// Loadgen mode drives a remote front door; it needs no dataset.
	if *loadgen != "" {
		err := runLoadgen(loadgenConfig{
			url:       *loadgen,
			rate:      *rate,
			duration:  *duration,
			deadline:  *deadline,
			tenantMix: *tenantMix,
			seed:      *seed,
			log:       logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustdb: loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var db *robustdb.DB
	var queries []robustdb.WorkloadQuery
	switch *bench {
	case "ssb":
		db = robustdb.OpenSSB(robustdb.SSBConfig{SF: *sf, RowsPerSF: *rows, Seed: *seed})
		queries = robustdb.SSBQueries()
	case "tpch":
		db = robustdb.OpenTPCH(robustdb.TPCHConfig{SF: *sf, RowsPerSF: *rows, Seed: *seed})
		queries = robustdb.TPCHQueries()
	}
	if *queryName != "" {
		for _, q := range queries {
			if q.Name == *queryName {
				queries = []robustdb.WorkloadQuery{q}
				break
			}
		}
	}

	// Explain mode: print the plan document and exit. Plain EXPLAIN never
	// executes the statement; -analyze runs it once on a fresh simulated
	// machine under -strategy and attaches per-node actuals.
	if *explainSQL != "" {
		var payload *robustdb.ExplainPayload
		var err error
		if *analyze {
			if *stratName == "all" {
				fmt.Fprintln(os.Stderr, "robustdb: -explain -analyze needs a single -strategy, not 'all'")
				os.Exit(2)
			}
			strat, _ := strategyByName(*stratName) // validated above
			dev := robustdb.Device{
				CacheBytes:     int64(*cacheFrac * float64(db.TotalBytes())),
				HeapBytes:      int64(*heapFrac * float64(db.TotalBytes())),
				KernelWorkers:  *kernelWorkers,
				PipelineDepth:  *pipelineDepth,
				PipelineCoExec: *pipelineCoExec,
				Log:            logger,
			}
			payload, err = db.ExplainAnalyzeSQL(dev, strat, *explainSQL)
		} else {
			payload, err = db.ExplainSQL(*explainSQL)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustdb: explain: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintf(os.Stderr, "robustdb: explain: %v\n", err)
			os.Exit(1)
		}
		return
	}

	dev := robustdb.Device{
		CacheBytes:     int64(*cacheFrac * float64(db.TotalBytes())),
		HeapBytes:      int64(*heapFrac * float64(db.TotalBytes())),
		KernelWorkers:  *kernelWorkers,
		PipelineDepth:  *pipelineDepth,
		PipelineCoExec: *pipelineCoExec,
		Log:            logger,
	}
	logger.Info("database ready",
		"component", "cli", "bench", *bench, "sf", *sf,
		"database_mib", fmt.Sprintf("%.1f", mib(db.TotalBytes())),
		"cache_mib", fmt.Sprintf("%.1f", mib(dev.CacheBytes)),
		"heap_mib", fmt.Sprintf("%.1f", mib(dev.HeapBytes)))

	var strategies []robustdb.Strategy
	if *stratName == "all" {
		strategies = robustdb.AllStrategies()
	} else {
		s, _ := strategyByName(*stratName) // validated above
		strategies = []robustdb.Strategy{s}
	}

	chaos := *faultAlloc > 0 || *faultTransfer > 0 || *faultResets > 0 || *faultStuck > 0
	if chaos {
		logger.Info("fault injection enabled",
			"component", "cli", "seed", *faultSeed, "alloc", *faultAlloc,
			"transfer", *faultTransfer, "resets", *faultResets, "stuck", *faultStuck)
	}
	faultCfg := func() *robustdb.FaultInjector {
		return robustdb.NewFaultInjector(robustdb.FaultConfig{
			Seed:             *faultSeed,
			AllocFailRate:    *faultAlloc,
			TransferFailRate: *faultTransfer,
			ResetCount:       *faultResets,
			StuckRate:        *faultStuck,
			Log:              logger,
		})
	}

	if *serve != "" {
		run := dev
		if chaos {
			run.Faults = faultCfg()
		}
		admCfg, _ := admissionConfig(opts) // validated above
		admCfg.QueueTimeout = *queueTimeout
		err := runServe(serveConfig{
			addr:         *serve,
			window:       *serveWindow,
			cooldown:     *serveCooldown,
			db:           db,
			dev:          run,
			strat:        strategies[0],
			queries:      queries,
			admission:    admCfg,
			maxDeadline:  *deadline,
			maxConns:     *maxConns,
			drainTimeout: *drainTimeout,
			log:          logger,

			slowlogCap:       *slowlogCap,
			slowlogThreshold: *slowlogThreshold,
			slowlogQError:    *slowlogQError,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustdb: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var tracer *robustdb.Tracer
	if *tracePath != "" {
		tracer = robustdb.NewTracer(0)
	}

	fmt.Printf("%-22s %12s %10s %10s %8s %12s\n",
		"strategy", "time", "H2D", "D2H", "aborts", "wasted")
	for _, strat := range strategies {
		run := dev
		run.QueryDeadline = *deadline
		if tracer != nil {
			tracer.Reset()
			run.Tracer = tracer
		}
		if chaos {
			// Fresh injector per strategy: every strategy faces the identical
			// reproducible fault schedule for its own draws.
			run.Faults = faultCfg()
		}
		spec := robustdb.Workload{
			Queries:          queries,
			Users:            *users,
			TotalQueries:     *total,
			AdmissionControl: *admission,
			ContinueOnError:  chaos || *deadline > 0,
		}
		_, res, err := db.RunWorkload(run, strat, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustdb: %s: %v\n", strat.Label, err)
			os.Exit(1)
		}
		fmt.Printf("%-22s %12s %10s %10s %8d %12s\n",
			strat.Label,
			res.WorkloadTime.Round(10*time.Microsecond),
			res.H2DTime.Round(10*time.Microsecond),
			res.D2HTime.Round(10*time.Microsecond),
			res.Aborts,
			res.WastedTime.Round(10*time.Microsecond))
		if chaos || *deadline > 0 {
			fmt.Printf("%-22s failures=%d resets=%d allocFaults=%d transferFaults=%d retries=%d trips=%d degraded=%d deadline=%d catalogErrs=%d\n",
				"", res.Failures, res.DeviceResets, res.AllocFaults,
				res.TransferFaults, res.Retries, res.BreakerTrips,
				res.DegradedPlacements, res.DeadlineFailures, res.CatalogErrors)
		}
		if tracer != nil {
			path := *tracePath
			if len(strategies) > 1 {
				path = traceFileName(path, strat.Label)
			}
			if err := writeTrace(path, tracer); err != nil {
				fmt.Fprintf(os.Stderr, "robustdb: %v\n", err)
				os.Exit(1)
			}
			if ds, de := tracer.Dropped(); ds > 0 || de > 0 {
				fmt.Fprintf(os.Stderr, "robustdb: trace ring overflowed, %d spans and %d events dropped\n", ds, de)
			}
			fmt.Printf("%-22s trace: %s (%d spans, %d events)\n",
				"", path, len(tracer.Spans()), len(tracer.Events()))
		}
	}
}

// traceFileName derives a per-strategy trace path: "out.json" + "Data-Driven
// Chopping" → "out-data-driven-chopping.json".
func traceFileName(path, label string) string {
	slug := strings.ReplaceAll(strings.ToLower(label), " ", "-")
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "-" + slug + ext
}

// writeTrace exports the tracer's contents as Chrome trace_event JSON.
func writeTrace(path string, tr *robustdb.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := robustdb.WriteChromeTrace(f, tr.Spans(), tr.Events()); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func strategyByName(name string) (robustdb.Strategy, error) {
	switch name {
	case "cpu-only":
		return robustdb.CPUOnly(), nil
	case "gpu-only":
		return robustdb.GPUOnly(), nil
	case "critical-path":
		return robustdb.CriticalPath(), nil
	case "data-driven":
		return robustdb.DataDriven(), nil
	case "runtime":
		return robustdb.RunTime(), nil
	case "chopping":
		return robustdb.Chopping(), nil
	case "data-driven-chopping":
		return robustdb.DataDrivenChopping(), nil
	default:
		return robustdb.Strategy{}, fmt.Errorf("unknown strategy %q", name)
	}
}
