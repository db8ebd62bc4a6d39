// Command robustdb runs benchmark workloads on the simulated co-processor
// machine and reports the paper's robustness metrics, in one of four modes: a
// batch run, -explain, -serve or -loadgen. `robustdb -h` documents every flag
// under the modes that read it; it prints the table in flags.go, the one place
// a flag is declared.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"robustdb"
	"robustdb/internal/obs"
	"robustdb/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse, validate, then the selected mode's run
// function. It returns the exit status — 2 for a command line that is refused,
// before any data is generated, 1 for a run that failed.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	m, err := validateOptions(*o)
	if err != nil {
		fmt.Fprintf(stderr, "robustdb: %v\n", err)
		return 2
	}
	level, _ := parseLogLevel(o.logLevel) // validated above
	log := obs.NewLogger(stderr, level)
	switch m {
	case explain:
		err = runExplain(o, log, stdout)
	case serve:
		err = runServe(o, log)
	case loadgen:
		err = runLoadgen(o, log, stdout)
	default:
		err = runBatch(o, log, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "robustdb: %v\n", err)
		return 1
	}
	return 0
}

// benchmarks are the databases -bench names, each with its query mix. The two
// generators take the same three fields.
var benchmarks = map[string]struct {
	open    func(robustdb.SSBConfig) *robustdb.DB
	queries func() []robustdb.WorkloadQuery
}{
	"ssb":  {robustdb.OpenSSB, robustdb.SSBQueries},
	"tpch": {func(c robustdb.SSBConfig) *robustdb.DB { return robustdb.OpenTPCH(robustdb.TPCHConfig(c)) }, robustdb.TPCHQueries},
}

// chaos reports whether any fault is to be injected.
func (o *options) chaos() bool {
	return o.faultAlloc > 0 || o.faultTransfer > 0 || o.faultResets > 0 || o.faultStuck > 0
}

// faults returns a fresh injector of the -fault-* schedule, nil without chaos.
func (o *options) faults(log *slog.Logger) *robustdb.FaultInjector {
	if !o.chaos() {
		return nil
	}
	return robustdb.NewFaultInjector(robustdb.FaultConfig{
		Seed:             o.faultSeed,
		AllocFailRate:    o.faultAlloc,
		TransferFailRate: o.faultTransfer,
		ResetCount:       o.faultResets,
		StuckRate:        o.faultStuck,
		Log:              log,
	})
}

// start is what every mode over a database begins with: the database, its
// whole query mix and the device (heap: the database's size), announced.
func (o *options) start(log *slog.Logger) (*robustdb.DB, []robustdb.WorkloadQuery, robustdb.Device) {
	b := benchmarks[o.bench]
	db := b.open(robustdb.SSBConfig{SF: o.sf, RowsPerSF: o.rows, Seed: o.seed})
	dev := robustdb.Device{
		CacheBytes:     int64(o.cacheFrac * float64(db.TotalBytes())),
		HeapBytes:      db.TotalBytes(),
		KernelWorkers:  o.kernelWorkers,
		PipelineDepth:  o.pipelineDepth,
		PipelineCoExec: o.pipelineCoExec,
		Log:            log,
	}
	mib := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	log.Info("database ready",
		"component", "cli", "bench", o.bench, "sf", o.sf, "database_mib", mib(db.TotalBytes()),
		"cache_mib", mib(dev.CacheBytes), "heap_mib", mib(dev.HeapBytes))
	if o.chaos() {
		log.Info("fault injection enabled",
			"component", "cli", "seed", o.faultSeed, "alloc", o.faultAlloc,
			"transfer", o.faultTransfer, "resets", o.faultResets, "stuck", o.faultStuck)
	}
	return db, b.queries(), dev
}

// runExplain prints the statement's plan document. Plain EXPLAIN never
// executes the statement; -analyze runs it once on a fresh simulated machine
// under -strategy and attaches per-node actuals.
func runExplain(o *options, log *slog.Logger, stdout io.Writer) error {
	db, _, dev := o.start(log)
	var payload *robustdb.ExplainPayload
	var err error
	if o.analyze {
		payload, err = db.ExplainAnalyzeSQL(dev, workload.Select(o.strategy)[0], o.explain)
	} else {
		payload, err = db.ExplainSQL(o.explain)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// runBatch runs the workload once under each strategy and prints one line of
// the paper's metrics a strategy, a second when faults or a deadline are on.
func runBatch(o *options, log *slog.Logger, stdout io.Writer) error {
	db, queries, dev := o.start(log)
	dev.QueryDeadline = o.deadline
	if o.trace != "" {
		dev.Tracer = robustdb.NewTracer(0)
	}
	spec := robustdb.Workload{
		Queries:         queries,
		Users:           o.users,
		TotalQueries:    o.total,
		ContinueOnError: o.chaos() || o.deadline > 0,
	}
	strats := workload.Select(o.strategy)
	fmt.Fprintf(stdout, "%-22s %12s %10s %10s %8s %12s\n",
		"strategy", "time", "H2D", "D2H", "aborts", "wasted")
	for _, strat := range strats {
		// A fresh injector per strategy: every strategy faces the identical
		// reproducible fault schedule for its own draws.
		dev.Faults = o.faults(log)
		if dev.Tracer != nil {
			dev.Tracer.Reset()
		}
		_, res, err := db.RunWorkload(dev, strat, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", strat.Label, err)
		}
		fmt.Fprintf(stdout, "%-22s %12s %10s %10s %8d %12s\n",
			strat.Label,
			res.WorkloadTime.Round(10*time.Microsecond),
			res.H2DTime.Round(10*time.Microsecond),
			res.D2HTime.Round(10*time.Microsecond),
			res.Aborts,
			res.WastedTime.Round(10*time.Microsecond))
		if spec.ContinueOnError {
			fmt.Fprintf(stdout, "%-22s failures=%d resets=%d allocFaults=%d transferFaults=%d retries=%d trips=%d degraded=%d deadline=%d catalogErrs=%d\n",
				"", res.Failures, res.DeviceResets, res.AllocFaults,
				res.TransferFaults, res.Retries, res.BreakerTrips,
				res.DegradedPlacements, res.DeadlineFailures, res.CatalogErrors)
		}
		if dev.Tracer != nil {
			path := o.trace
			if len(strats) > 1 {
				ext := filepath.Ext(path) // out.json → out-data-driven-chopping.json
				path = strings.TrimSuffix(path, ext) + "-" + workload.NameOf(strat) + ext
			}
			if err := writeTrace(path, dev.Tracer); err != nil {
				return err
			}
			if ds, de := dev.Tracer.Dropped(); ds > 0 || de > 0 {
				log.Warn("trace ring overflowed", "component", "cli", "spans_dropped", ds, "events_dropped", de)
			}
			fmt.Fprintf(stdout, "%-22s trace: %s (%d spans, %d events)\n",
				"", path, len(dev.Tracer.Spans()), len(dev.Tracer.Events()))
		}
	}
	return nil
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

var logLevels = oneOf{"debug", "info", "warn", "error"}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (l slog.Level, err error) {
	if !slices.Contains(logLevels, s) {
		return l, fmt.Errorf("unknown level %q (want %s)", s, logLevels)
	}
	return l, l.UnmarshalText([]byte(s))
}
