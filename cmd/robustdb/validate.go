package main

import (
	"fmt"
	"log/slog"
	"math"
	"time"

	"robustdb"
	"robustdb/internal/admission"
)

// options collects every parsed flag that needs validation. Validation runs
// before the dataset build, so a typo'd flag fails in milliseconds with
// exit 2 instead of generating gigabytes first.
type options struct {
	bench         string
	sf            int
	rows          int
	strategy      string
	users         int
	total         int
	query         string
	cacheFrac     float64
	heapFrac      float64
	kernelWorkers int
	logLevel      string
	serve         string
	serveWindow   time.Duration
	serveCooldown time.Duration
	pipelineDepth int
	deadline      time.Duration

	// Fault injection.
	faultAlloc    float64
	faultTransfer float64
	faultStuck    float64
	faultResets   int

	// Serve-mode front door.
	admissionPolicy string
	admit           int
	queueDepth      int
	tenantInflight  int
	maxConns        int
	drainTimeout    time.Duration

	// Serve-mode slow-query journal.
	slowlogCap       int
	slowlogThreshold time.Duration
	slowlogQError    float64

	// Loadgen mode.
	loadgen   string
	rate      float64
	duration  time.Duration
	tenantMix string
}

// validateOptions checks every flag value and returns an error naming the
// offending flag. It must stay cheap: query-name validation builds plans,
// never table data.
func validateOptions(o options) error {
	switch o.bench {
	case "ssb", "tpch":
	default:
		return fmt.Errorf("-bench: unknown benchmark %q (want ssb or tpch)", o.bench)
	}
	if o.sf < 1 {
		return fmt.Errorf("-sf: scale factor must be at least 1, got %d", o.sf)
	}
	if o.rows < 0 {
		return fmt.Errorf("-rows: rows per scale factor must not be negative, got %d", o.rows)
	}
	if o.users < 1 {
		return fmt.Errorf("-users: need at least one user session, got %d", o.users)
	}
	if o.total < 0 {
		return fmt.Errorf("-total: total queries must not be negative, got %d", o.total)
	}
	if o.kernelWorkers < 1 {
		return fmt.Errorf("-kernel-workers: need at least one worker, got %d", o.kernelWorkers)
	}
	if o.pipelineDepth < 0 {
		return fmt.Errorf("-pipeline-depth: in-flight chunk bound must not be negative, got %d (0 disables pipelining)", o.pipelineDepth)
	}
	if o.deadline < 0 {
		return fmt.Errorf("-deadline: per-query deadline must not be negative, got %v (0 = none)", o.deadline)
	}
	for _, f := range []struct {
		flag   string
		x, max float64
		want   string
	}{
		{"-cache-frac", o.cacheFrac, math.MaxFloat64, "fraction must be finite and not negative"},
		{"-heap-frac", o.heapFrac, math.MaxFloat64, "fraction must be finite and not negative"},
		{"-fault-alloc", o.faultAlloc, 1, "probability must be in [0, 1]"},
		{"-fault-transfer", o.faultTransfer, 1, "probability must be in [0, 1]"},
		{"-fault-stuck", o.faultStuck, 1, "probability must be in [0, 1]"},
		{"-slowlog-qerror", o.slowlogQError, math.MaxFloat64, "q-error gate must be finite and not negative (0 disables the gate)"},
	} {
		if err := checkFloat(f.flag, f.x, 0, f.max, f.want); err != nil {
			return err
		}
	}
	if o.faultResets < 0 {
		return fmt.Errorf("-fault-resets: reset count must not be negative, got %d", o.faultResets)
	}
	if o.slowlogCap < 0 {
		return fmt.Errorf("-slowlog-capacity: ring capacity must not be negative, got %d (0 disables the journal)", o.slowlogCap)
	}
	if o.slowlogThreshold < 0 {
		return fmt.Errorf("-slowlog-threshold: latency gate must not be negative, got %v (0 journals every query)", o.slowlogThreshold)
	}
	if o.strategy != "all" {
		if _, err := strategyByName(o.strategy); err != nil {
			return fmt.Errorf("-strategy: %w", err)
		}
	}
	if o.query != "" {
		if !queryExists(o.bench, o.query) {
			return fmt.Errorf("-query: no query %q in %s", o.query, o.bench)
		}
	}
	if _, err := parseLogLevel(o.logLevel); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	if o.serve != "" {
		if o.strategy == "all" {
			return fmt.Errorf("-serve: needs a single -strategy, not %q", o.strategy)
		}
		if o.serveWindow <= 0 {
			return fmt.Errorf("-serve-window: window must be positive, got %v", o.serveWindow)
		}
		if o.serveCooldown < 0 {
			return fmt.Errorf("-serve-cooldown: cooldown must not be negative, got %v", o.serveCooldown)
		}
		if _, err := admissionConfig(o); err != nil {
			return err
		}
		if o.maxConns < 1 {
			return fmt.Errorf("-max-conns: need at least one connection, got %d", o.maxConns)
		}
		if o.drainTimeout <= 0 {
			return fmt.Errorf("-drain-timeout: drain bound must be positive, got %v", o.drainTimeout)
		}
	}
	if o.loadgen != "" {
		if o.serve != "" {
			return fmt.Errorf("-loadgen: mutually exclusive with -serve")
		}
		if err := checkFloat("-rate", o.rate, math.SmallestNonzeroFloat64, math.MaxFloat64, "arrival rate must be finite and positive"); err != nil {
			return err
		}
		if o.duration <= 0 {
			return fmt.Errorf("-duration: run length must be positive, got %v", o.duration)
		}
		if _, err := parseTenantMix(o.tenantMix); err != nil {
			return fmt.Errorf("-tenant-mix: %w", err)
		}
	}
	return nil
}

// checkFloat is the one check every float flag goes through: inside
// [lo, hi], which a NaN — false under every comparison — and, with a finite
// hi, an infinity are not.
func checkFloat(flag string, x, lo, hi float64, want string) error {
	if !(x >= lo && x <= hi) {
		return fmt.Errorf("%s: %s, got %g", flag, want, x)
	}
	return nil
}

// admissionConfig maps the serve-mode flags onto an admission controller
// config (QueueTimeout is applied by the caller; zero fields keep the
// controller defaults). The error names the offending flag.
func admissionConfig(o options) (admission.Config, error) {
	policy, err := admission.ParsePolicy(o.admissionPolicy)
	if err != nil {
		return admission.Config{}, fmt.Errorf("-admission-policy: %w", err)
	}
	if o.admit < 0 {
		return admission.Config{}, fmt.Errorf("-admit: admitted concurrency must not be negative, got %d (0 derives it from the chopping pool bounds)", o.admit)
	}
	if o.queueDepth < 1 {
		return admission.Config{}, fmt.Errorf("-queue-depth: need at least one queue slot, got %d", o.queueDepth)
	}
	if o.tenantInflight < 0 {
		return admission.Config{}, fmt.Errorf("-tenant-inflight: cap must not be negative, got %d", o.tenantInflight)
	}
	return admission.Config{
		Policy:        policy,
		MaxConcurrent: o.admit,
		MaxQueue:      o.queueDepth,
		DefaultTenant: admission.TenantConfig{MaxInFlight: o.tenantInflight},
	}, nil
}

// queryExists reports whether the benchmark defines the named query. Query
// definitions are plans over the schema — building them does not generate
// data.
func queryExists(bench, name string) bool {
	var qs []robustdb.WorkloadQuery
	if bench == "tpch" {
		qs = robustdb.TPCHQueries()
	} else {
		qs = robustdb.SSBQueries()
	}
	for _, q := range qs {
		if q.Name == name {
			return true
		}
	}
	return false
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown level %q (want debug, info, warn, or error)", s)
	}
}
