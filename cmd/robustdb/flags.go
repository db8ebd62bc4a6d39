package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"robustdb"
	"robustdb/internal/admission"
	"robustdb/internal/sql"
	"robustdb/internal/workload"
)

// options is the command's whole configuration: one field a flag, bound,
// defaulted and checked by flagDefs, plus what the command line itself was.
type options struct {
	explain, serve, loadgen string // at most one: the mode flags

	bench, strategy, logLevel, trace string
	sf, rows, users, total           int
	seed                             int64
	cacheFrac                        float64
	kernelWorkers, pipelineDepth     int
	pipelineCoExec, analyze          bool
	deadline                         time.Duration

	faultSeed                             int64
	faultAlloc, faultTransfer, faultStuck float64
	faultResets                           int

	serveCooldown, drainTimeout, slowlogThreshold time.Duration
	admissionPolicy                               string
	maxConns                                      int

	rate      float64
	duration  time.Duration
	tenantMix string

	set  map[string]bool // names of the flags the command line set
	args []string        // what followed the flags: must be empty
}

// mode is a set of the command's four modes. Exactly one runs: the one whose
// flag is set, a batch run when none is.
type mode uint8

const (
	batch mode = 1 << iota
	explain
	serve
	loadgen
	selector // marks the flag that selects the (one) other mode of its entry

	dataset = batch | explain | serve // the modes that build a database
	engine  = batch | serve           // the modes that run it under load
	anyMode = dataset | loadgen
)

// flagDef declares one flag, the only place that does: registration, -h, the
// range check and the refusal of a flag the mode does not read loop over these.
type flagDef struct {
	name  string
	ptr   any    // the options field: *string, *int, *int64, *bool, *float64 or *time.Duration
	def   any    // its default, of the pointed-to type
	ok    check  // what values are admissible; nil = all
	modes mode   // the modes whose code reads the flag
	help  string // one line; a back-quoted word names the argument in -h
}

// check is a flag's admissible set: a span or a list of strings.
type check interface {
	admits(v reflect.Value) bool
	String() string
}

// span is an inclusive range over ints, floats and durations (in ns). A NaN
// is in no span and +Inf only in one that ends at inf, not at maxF; one that
// starts at tiny holds what is above zero.
type span struct{ lo, hi float64 }

const tiny, maxF = math.SmallestNonzeroFloat64, math.MaxFloat64

var inf = math.Inf(1)

func (s span) admits(v reflect.Value) bool {
	x := v.Convert(reflect.TypeOf(s.lo)).Float()
	return x >= s.lo && x <= s.hi
}

func (s span) String() string {
	lower := fmt.Sprintf("at least %g", s.lo)
	if s.lo == tiny {
		lower = "above 0"
	}
	switch s.hi {
	case inf:
		return lower
	case maxF:
		return "finite and " + lower
	}
	return fmt.Sprintf("in [%g, %g]", s.lo, s.hi)
}

type oneOf []string

func (e oneOf) admits(v reflect.Value) bool { return slices.Contains(e, v.String()) }
func (e oneOf) String() string              { return "one of " + strings.Join(e, ", ") }

// keys lists a table's names in order, as the admissible values of a flag.
func keys[V any](m map[string]V) oneOf {
	var names oneOf
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// flagDefs is the flag table, bound to o.
func flagDefs(o *options) []flagDef {
	return []flagDef{
		{"users", &o.users, 1, span{1, inf}, batch, "parallel user sessions"},
		{"total", &o.total, 0, span{0, inf}, batch, "total queries, split over the users (0 = one pass over the mix a user)"},
		{"trace", &o.trace, "", nil, batch, "write an operator-level Chrome trace_event JSON to `FILE` (chrome://tracing, ui.perfetto.dev, cmd/tracereport); with -strategy all, one file a strategy"},

		{"bench", &o.bench, "ssb", keys(benchmarks), dataset, "benchmark database"},
		{"sf", &o.sf, 10, span{1, inf}, dataset, "scale factor"},
		{"rows", &o.rows, 0, span{0, inf}, dataset, "rows per scale factor (0 = the generator's own)"},
		{"strategy", &o.strategy, workload.NameOf(robustdb.DataDrivenChopping()), oneOf(workload.Names()), dataset, "execution strategy; all runs six in turn and is for a batch run only"},
		{"cache-frac", &o.cacheFrac, 0.5, span{0, maxF}, dataset, "device cache as a fraction of the database"},
		{"kernel-workers", &o.kernelWorkers, runtime.GOMAXPROCS(0), span{1, inf}, dataset, "worker threads per operator kernel, GOMAXPROCS unless set (results are bit-identical at any setting; 1 is serial)"},
		{"pipeline-depth", &o.pipelineDepth, 2, span{0, inf}, dataset, "in-flight chunk bound of the pipelined chunk executor (0 disables pipelining)"},
		{"pipeline-coexec", &o.pipelineCoExec, true, nil, dataset, "let the pipelined executor hand trailing chunks to the CPU when the device side is saturated"},

		{"fault-seed", &o.faultSeed, int64(1), nil, engine, "fault injector seed (the schedule is reproducible per seed)"},
		{"fault-alloc", &o.faultAlloc, 0.0, span{0, 1}, engine, "transient device-allocation failure probability"},
		{"fault-transfer", &o.faultTransfer, 0.0, span{0, 1}, engine, "transient bus-transfer failure probability"},
		{"fault-stuck", &o.faultStuck, 0.0, span{0, 1}, engine, "probability a GPU operator hangs before progress"},
		{"fault-resets", &o.faultResets, 0, span{0, inf}, engine, "full device resets over the run"},

		{"deadline", &o.deadline, time.Duration(0), span{0, inf}, engine | loadgen, "per-query deadline (0 = none); in serve mode the ceiling on what a client may ask for"},

		{"seed", &o.seed, int64(0), nil, anyMode, "generator seed; with -loadgen, the arrival schedule's"},
		{"log-level", &o.logLevel, "info", logLevels, anyMode, "structured log level (slog text on stderr)"},

		{"explain", &o.explain, "", nil, explain | selector, "print the plan document of `SQL` as indented JSON (operator tree, predicates, size estimates, per-scan compression) without executing it"},
		{"analyze", &o.analyze, false, nil, explain, "execute the statement once on a fresh simulated machine under -strategy and attach per-node actuals (EXPLAIN ANALYZE)"},

		{"serve", &o.serve, "", nil, serve | selector, "serve POST /v1/query and /v1/explain (tenant-tagged SQL through admission control), /metrics, /healthz and /debug/{admission,slowlog,snapshot,spans,pprof} on `ADDR` until SIGINT/SIGTERM, then drain and exit 0; a background tenant cycles the query mix, its first pass before the first accept"},
		{"serve-cooldown", &o.serveCooldown, 2 * time.Second, span{0, inf}, serve, "idle gap between background passes, in which the detectors observe recovery"},
		{"admission-policy", &o.admissionPolicy, string(admission.Fair), oneOf{string(admission.FIFO), string(admission.Fair), string(admission.Detector)}, serve, "admission policy; detector couples admitted concurrency to the thrashing/contention detectors"},
		{"max-conns", &o.maxConns, 256, span{1, inf}, serve, "accepted TCP connection limit"},
		{"drain-timeout", &o.drainTimeout, 10 * time.Second, span{tiny, inf}, serve, "bound on the SIGTERM drain"},
		{"slowlog-threshold", &o.slowlogThreshold, 100 * time.Millisecond, span{0, inf}, serve, "virtual latency at or above which a query is journaled (0 journals every query)"},

		{"loadgen", &o.loadgen, "", nil, loadgen | selector, "offer open-loop load to the front door at `URL` and report admitted/shed counts and latency quantiles; builds no database"},
		{"rate", &o.rate, 50.0, span{tiny, maxF}, loadgen, "offered arrival rate in queries/second"},
		{"duration", &o.duration, 10 * time.Second, span{tiny, inf}, loadgen, "run length"},
		{"tenant-mix", &o.tenantMix, "", nil, loadgen, "comma list of name:share[:priority] `TENANTS`, e.g. gold:3:1,bronze:1 (one \"default\" tenant when empty)"},
	}
}

// parseFlags parses args into a new options. The flag package has reported
// any error it returns (flag.ErrHelp after -h) on stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := new(options)
	defs := flagDefs(o)
	fs := flag.NewFlagSet("robustdb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { printUsage(stderr, fs, defs) }
	for _, d := range defs {
		switch p := d.ptr.(type) {
		case *string:
			fs.StringVar(p, d.name, d.def.(string), d.help)
		case *int:
			fs.IntVar(p, d.name, d.def.(int), d.help)
		case *int64:
			fs.Int64Var(p, d.name, d.def.(int64), d.help)
		case *bool:
			fs.BoolVar(p, d.name, d.def.(bool), d.help)
		case *float64:
			fs.Float64Var(p, d.name, d.def.(float64), d.help)
		case *time.Duration:
			fs.DurationVar(p, d.name, d.def.(time.Duration), d.help)
		}
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set, o.args = map[string]bool{}, fs.Args()
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

// modeNames is how messages and -h call the modes of a set: each by the flag
// that selects it.
func modeNames(defs []flagDef, ms mode) string {
	var names []string
	if ms&batch != 0 {
		names = append(names, "a batch run")
	}
	for _, d := range defs {
		if d.modes&selector != 0 && d.modes&ms != 0 {
			names = append(names, "-"+d.name)
		}
	}
	return strings.Join(names, ", ")
}

// checkFlags is every rule the table states: one mode, which it returns; no
// flag set that the mode does not read; every value in its admissible set.
func checkFlags(defs []flagDef, set map[string]bool) (mode, error) {
	m := batch
	for _, d := range defs {
		if d.modes&selector == 0 || *d.ptr.(*string) == "" {
			continue
		}
		if m != batch {
			return 0, fmt.Errorf("-%s: mutually exclusive with %s", d.name, modeNames(defs, m))
		}
		m = d.modes &^ selector
	}
	for _, d := range defs {
		if set[d.name] && d.modes&m == 0 {
			return 0, fmt.Errorf("-%s: not read by %s (read by %s)", d.name, modeNames(defs, m), modeNames(defs, d.modes))
		}
		if v := reflect.ValueOf(d.ptr).Elem(); d.ok != nil && !d.ok.admits(v) {
			return 0, fmt.Errorf("-%s: must be %s, got %v", d.name, d.ok, v)
		}
	}
	return m, nil
}

// validateOptions checks the whole command line and returns the mode it
// selects, or an error that leads with the offending flag. It runs before the
// dataset is built and must stay cheap: it parses a statement, never builds
// table data. The rules here need two flags or a parser another package owns.
func validateOptions(o options) (mode, error) {
	if len(o.args) > 0 {
		return 0, fmt.Errorf("unexpected argument %q: robustdb takes flags only, and no flag after it was read", o.args[0])
	}
	defs := flagDefs(&o)
	m, err := checkFlags(defs, o.set)
	if err != nil {
		return 0, err
	}
	if o.strategy == "all" && (m == serve || m == explain && o.analyze) {
		return 0, fmt.Errorf("%s: needs a single -strategy, not %q", modeNames(defs, m), o.strategy)
	}
	if m == explain && !o.analyze {
		if st, err := sql.Parse(o.explain); err == nil && st.Analyze {
			return 0, errors.New("-explain: an EXPLAIN ANALYZE statement executes, and only -analyze (before -explain) runs it")
		}
	}
	if _, err := parseTenantMix(o.tenantMix); err != nil {
		return 0, fmt.Errorf("-tenant-mix: %w", err)
	}
	return m, nil
}

// printUsage is -h: the table in its own order, a heading wherever the set of
// reading modes changes.
func printUsage(w io.Writer, fs *flag.FlagSet, defs []flagDef) {
	fmt.Fprintf(w, `Usage: robustdb [flags]

Runs benchmark workloads on the simulated co-processor machine and reports the
paper's robustness metrics. One mode a run: %s. A flag the mode does not read,
two mode flags, a value out of range and a non-flag exit 2 before any data is made.
`, modeNames(defs, anyMode))
	var last mode
	for _, d := range defs {
		if ms := d.modes &^ selector; ms != last {
			fmt.Fprintf(w, "\nRead by %s:\n", modeNames(defs, ms))
			last = ms
		}
		f := fs.Lookup(d.name)
		arg, usage := flag.UnquoteUsage(f)
		if !slices.Contains([]string{"", "false", "0", "0s"}, f.DefValue) {
			usage += " (default " + f.DefValue + ")"
		}
		if d.ok != nil {
			usage += " [" + d.ok.String() + "]"
		}
		fmt.Fprintf(w, "  -%s %s\n    \t%s\n", d.name, arg, usage)
	}
}
