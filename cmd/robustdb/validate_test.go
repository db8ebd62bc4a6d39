package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// validOptions is a baseline that passes validation; cases mutate one flag.
func validOptions() options {
	return options{
		bench:         "ssb",
		sf:            1,
		users:         1,
		strategy:      "data-driven-chopping",
		cacheFrac:     0.5,
		heapFrac:      1.0,
		kernelWorkers: 1,
		logLevel:      "info",
		serveWindow:   500 * time.Millisecond,
		serveCooldown: time.Second,
		pipelineDepth: 2,

		admissionPolicy: "fair",
		admit:           8,
		queueDepth:      64,
		queueTimeout:    5 * time.Second,
		maxConns:        256,
		drainTimeout:    10 * time.Second,

		slowlogCap:       256,
		slowlogThreshold: 100 * time.Millisecond,
		slowlogQError:    16,

		rate:     50,
		duration: 10 * time.Second,
	}
}

func TestValidateOptions(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*options)
		wantFlag string // "" = must validate cleanly
	}{
		{"defaults", func(o *options) {}, ""},
		{"tpch", func(o *options) { o.bench = "tpch" }, ""},
		{"all-strategies", func(o *options) { o.strategy = "all" }, ""},
		{"named-query", func(o *options) { o.query = "Q3.3" }, ""},
		{"tpch-query", func(o *options) { o.bench = "tpch"; o.query = "Q5" }, ""},
		{"serve", func(o *options) { o.serve = ":0" }, ""},
		{"many-kernel-workers", func(o *options) { o.kernelWorkers = 64 }, ""},

		{"unknown-bench", func(o *options) { o.bench = "tpcds" }, "-bench"},
		{"zero-sf", func(o *options) { o.sf = 0 }, "-sf"},
		{"negative-sf", func(o *options) { o.sf = -1 }, "-sf"},
		{"negative-rows", func(o *options) { o.rows = -5 }, "-rows"},
		{"zero-users", func(o *options) { o.users = 0 }, "-users"},
		{"negative-users", func(o *options) { o.users = -3 }, "-users"},
		{"negative-total", func(o *options) { o.total = -1 }, "-total"},
		{"negative-cache-frac", func(o *options) { o.cacheFrac = -0.1 }, "-cache-frac"},
		{"negative-heap-frac", func(o *options) { o.heapFrac = -1 }, "-heap-frac"},
		{"nan-cache-frac", func(o *options) { o.cacheFrac = math.NaN() }, "-cache-frac"},
		{"inf-cache-frac", func(o *options) { o.cacheFrac = math.Inf(1) }, "-cache-frac"},
		{"nan-heap-frac", func(o *options) { o.heapFrac = math.NaN() }, "-heap-frac"},
		{"inf-heap-frac", func(o *options) { o.heapFrac = math.Inf(1) }, "-heap-frac"},
		{"zero-kernel-workers", func(o *options) { o.kernelWorkers = 0 }, "-kernel-workers"},
		{"negative-kernel-workers", func(o *options) { o.kernelWorkers = -2 }, "-kernel-workers"},
		{"unknown-strategy", func(o *options) { o.strategy = "quantum" }, "-strategy"},
		{"unknown-query", func(o *options) { o.query = "Q9.9" }, "-query"},
		{"query-wrong-bench", func(o *options) { o.bench = "tpch"; o.query = "Q3.3" }, "-query"},
		{"bad-log-level", func(o *options) { o.logLevel = "verbose" }, "-log-level"},
		{"serve-all", func(o *options) { o.serve = ":0"; o.strategy = "all" }, "-serve"},
		{"serve-zero-window", func(o *options) { o.serve = ":0"; o.serveWindow = 0 }, "-serve-window"},
		{"serve-negative-cooldown", func(o *options) { o.serve = ":0"; o.serveCooldown = -time.Second }, "-serve-cooldown"},

		{"zero-pipeline-depth", func(o *options) { o.pipelineDepth = 0 }, ""},
		{"negative-pipeline-depth", func(o *options) { o.pipelineDepth = -1 }, "-pipeline-depth"},
		{"negative-deadline", func(o *options) { o.deadline = -time.Millisecond }, "-deadline"},
		{"certain-faults", func(o *options) { o.faultAlloc, o.faultTransfer, o.faultStuck = 1, 1, 1 }, ""},
		{"fault-alloc-above-one", func(o *options) { o.faultAlloc = 1.5 }, "-fault-alloc"},
		{"negative-fault-alloc", func(o *options) { o.faultAlloc = -0.1 }, "-fault-alloc"},
		{"fault-transfer-above-one", func(o *options) { o.faultTransfer = 2 }, "-fault-transfer"},
		{"negative-fault-transfer", func(o *options) { o.faultTransfer = -1 }, "-fault-transfer"},
		{"fault-stuck-above-one", func(o *options) { o.faultStuck = 1.01 }, "-fault-stuck"},
		{"nan-fault-stuck", func(o *options) { o.faultStuck = math.NaN() }, "-fault-stuck"},
		{"negative-fault-resets", func(o *options) { o.faultResets = -1 }, "-fault-resets"},
		{"slowlog-off", func(o *options) { o.slowlogCap, o.slowlogThreshold, o.slowlogQError = 0, 0, 0 }, ""},
		{"negative-slowlog-capacity", func(o *options) { o.slowlogCap = -1 }, "-slowlog-capacity"},
		{"negative-slowlog-threshold", func(o *options) { o.slowlogThreshold = -time.Second }, "-slowlog-threshold"},
		{"negative-slowlog-qerror", func(o *options) { o.slowlogQError = -16 }, "-slowlog-qerror"},
		{"inf-slowlog-qerror", func(o *options) { o.slowlogQError = math.Inf(1) }, "-slowlog-qerror"},

		{"serve-detector-policy", func(o *options) { o.serve = ":0"; o.admissionPolicy = "detector" }, ""},
		{"serve-fifo-policy", func(o *options) { o.serve = ":0"; o.admissionPolicy = "fifo" }, ""},
		{"serve-tenant-inflight", func(o *options) { o.serve = ":0"; o.tenantInflight = 2 }, ""},
		{"serve-bad-policy", func(o *options) { o.serve = ":0"; o.admissionPolicy = "lifo" }, "-admission-policy"},
		{"serve-derived-admit", func(o *options) { o.serve = ":0"; o.admit = 0 }, ""},
		{"serve-negative-admit", func(o *options) { o.serve = ":0"; o.admit = -1 }, "-admit"},
		{"serve-zero-queue-depth", func(o *options) { o.serve = ":0"; o.queueDepth = 0 }, "-queue-depth"},
		{"serve-zero-queue-timeout", func(o *options) { o.serve = ":0"; o.queueTimeout = 0 }, "-queue-timeout"},
		{"serve-negative-tenant-inflight", func(o *options) { o.serve = ":0"; o.tenantInflight = -1 }, "-tenant-inflight"},
		{"serve-zero-max-conns", func(o *options) { o.serve = ":0"; o.maxConns = 0 }, "-max-conns"},
		{"serve-zero-drain-timeout", func(o *options) { o.serve = ":0"; o.drainTimeout = 0 }, "-drain-timeout"},

		{"loadgen", func(o *options) { o.loadgen = "http://localhost:8080" }, ""},
		{"loadgen-tenant-mix", func(o *options) { o.loadgen = "http://x:1"; o.tenantMix = "gold:3:1,bronze:1" }, ""},
		{"loadgen-with-serve", func(o *options) { o.loadgen = "http://x:1"; o.serve = ":0" }, "-loadgen"},
		{"loadgen-zero-rate", func(o *options) { o.loadgen = "http://x:1"; o.rate = 0 }, "-rate"},
		{"loadgen-nan-rate", func(o *options) { o.loadgen = "http://x:1"; o.rate = math.NaN() }, "-rate"},
		{"loadgen-inf-rate", func(o *options) { o.loadgen = "http://x:1"; o.rate = math.Inf(1) }, "-rate"},
		{"loadgen-zero-duration", func(o *options) { o.loadgen = "http://x:1"; o.duration = 0 }, "-duration"},
		{"loadgen-bad-mix", func(o *options) { o.loadgen = "http://x:1"; o.tenantMix = "gold" }, "-tenant-mix"},
		{"loadgen-bad-mix-share", func(o *options) { o.loadgen = "http://x:1"; o.tenantMix = "gold:0" }, "-tenant-mix"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := validOptions()
			c.mutate(&o)
			_, err := validateOptions(o)
			if c.wantFlag == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error naming %s", c.wantFlag)
			}
			if !strings.HasPrefix(err.Error(), c.wantFlag+":") {
				t.Fatalf("error %q does not lead with the offending flag %s", err, c.wantFlag)
			}
		})
	}
}

func TestParseLogLevel(t *testing.T) {
	for _, lvl := range []string{"debug", "info", "warn", "error"} {
		if _, err := parseLogLevel(lvl); err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
	}
	if _, err := parseLogLevel("trace"); err == nil {
		t.Fatal("unknown level must error")
	}
}
