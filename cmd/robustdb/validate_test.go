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
		kernelWorkers: 1,
		logLevel:      "info",
		serveCooldown: time.Second,
		pipelineDepth: 2,

		admissionPolicy: "fair",
		maxConns:        256,
		drainTimeout:    10 * time.Second,

		slowlogThreshold: 100 * time.Millisecond,

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
		{"nan-cache-frac", func(o *options) { o.cacheFrac = math.NaN() }, "-cache-frac"},
		{"inf-cache-frac", func(o *options) { o.cacheFrac = math.Inf(1) }, "-cache-frac"},
		{"zero-kernel-workers", func(o *options) { o.kernelWorkers = 0 }, "-kernel-workers"},
		{"negative-kernel-workers", func(o *options) { o.kernelWorkers = -2 }, "-kernel-workers"},
		{"unknown-strategy", func(o *options) { o.strategy = "quantum" }, "-strategy"},
		{"bad-log-level", func(o *options) { o.logLevel = "verbose" }, "-log-level"},
		{"serve-all", func(o *options) { o.serve = ":0"; o.strategy = "all" }, "-serve"},
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
		{"negative-slowlog-threshold", func(o *options) { o.slowlogThreshold = -time.Second }, "-slowlog-threshold"},

		{"serve-detector-policy", func(o *options) { o.serve = ":0"; o.admissionPolicy = "detector" }, ""},
		{"serve-fifo-policy", func(o *options) { o.serve = ":0"; o.admissionPolicy = "fifo" }, ""},
		{"serve-bad-policy", func(o *options) { o.serve = ":0"; o.admissionPolicy = "lifo" }, "-admission-policy"},
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
