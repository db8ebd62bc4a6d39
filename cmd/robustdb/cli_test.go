package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small keeps every accepted line's dataset to milliseconds; the refused ones
// carry it too, so a refusal that came after the build would show as slow.
var small = []string{"-sf", "1", "-rows", "1000", "-log-level", "error"}

// TestCLIExitCodes drives whole command lines through run — parse, validate,
// dispatch — and pins the exit status and what stderr names. The rows down to
// analyze-all-strategies are misuses the parent commit ran with exit 0, or
// refused only after building the dataset: a flag the mode never reads, two
// modes at once, arguments (and every flag after them) dropped in silence.
func TestCLIExitCodes(t *testing.T) {
	const q = "SELECT SUM(lo_revenue) AS revenue FROM lineorder"
	cases := []struct {
		name   string
		args   []string
		status int
		want   string // on stderr for a refusal, on stdout for a run
	}{
		{"batch", []string{"-users", "2", "-total", "4", "-strategy", "all", "-kernel-workers", "1"}, 0, "Data-Driven Chopping"},
		{"batch-chaos", []string{"-fault-seed", "7", "-fault-alloc", "0.1", "-deadline", "500ms", "-query", "Q1.1"}, 0, "failures="},
		{"explain", []string{"-explain", q}, 0, `"root"`},
		{"explain-analyze", []string{"-analyze", "-explain", q, "-strategy", "gpu-only", "-cache-frac", "0.1"}, 0, `"analyze"`},
		{"help", []string{"-h"}, 0, ""},

		{"loadgen-flag-in-batch", []string{"-rate", "5"}, 2, "-rate: not read by a batch run"},
		{"analyze-without-explain", []string{"-analyze"}, 2, "-analyze: not read by a batch run"},
		{"serve-and-explain", []string{"-serve", ":0", "-explain", q}, 2, "-serve: mutually exclusive with -explain"},
		{"loadgen-and-explain", []string{"-loadgen", "http://x:1", "-explain", q}, 2, "-loadgen: mutually exclusive with -explain"},
		{"batch-flag-in-serve", []string{"-serve", ":0", "-users", "2"}, 2, "-users: not read by -serve"},
		{"trace-in-serve", []string{"-serve", ":0", "-trace", "f.json"}, 2, "-trace: not read by -serve"},
		{"fault-in-explain", []string{"-explain", q, "-fault-alloc", "0.5"}, 2, "-fault-alloc: not read by -explain"},
		{"dataset-flag-in-loadgen", []string{"-loadgen", "http://x:1", "-bench", "tpch"}, 2, "-bench: not read by -loadgen"},
		{"positional-first", []string{"extra", "-serve", ":0"}, 2, `unexpected argument "extra"`},
		{"positional-drops-flags", []string{"-users", "20", "total", "100"}, 2, `unexpected argument "total"`},
		{"explain-swallows-analyze", []string{"-explain", "-analyze", q}, 2, "unexpected argument"},
		{"analyze-all-strategies", []string{"-strategy", "all", "-analyze", "-explain", q}, 2, "-explain: needs a single -strategy"},
		{"serve-all-strategies", []string{"-strategy", "all", "-serve", ":0"}, 2, "-serve: needs a single -strategy"},
		{"out-of-range", []string{"-cache-frac", "NaN"}, 2, "-cache-frac: must be finite and at least 0, got NaN"},
		{"not-enumerated", []string{"-strategy", "quantum"}, 2, "-strategy: must be one of "},
		{"undefined-flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"unparsable-value", []string{"-users", "two"}, 2, `invalid value "two" for flag -users`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			start := time.Now()
			status := run(append(small[:len(small):len(small)], c.args...), &stdout, &stderr)
			if status != c.status {
				t.Fatalf("exit status %d, want %d\nstderr: %s", status, c.status, &stderr)
			}
			out := &stdout
			if status == 2 {
				out = &stderr
				if took := time.Since(start); took > time.Second {
					t.Errorf("refused after %v: validation must come before the dataset", took)
				}
			}
			if !strings.Contains(out.String(), c.want) {
				t.Errorf("output does not contain %q:\n%s", c.want, out)
			}
		})
	}
}

// TestServeAndLoadgen is the accepted line of the two networked modes: a
// server started through run, load offered to it through run, both exit 0.
func TestServeAndLoadgen(t *testing.T) {
	addr, stop := startServe(t, append(small[:len(small):len(small)], "-admission-policy", "detector", "-deadline", "1s")...)
	var stdout, stderr bytes.Buffer
	status := run([]string{"-loadgen", "http://" + addr, "-rate", "200", "-duration", "200ms",
		"-tenant-mix", "gold:3:1,bronze:1", "-seed", "3", "-deadline", "1s", "-log-level", "error"}, &stdout, &stderr)
	if status != 0 || !regexp.MustCompile(`(?m)^loadgen: offered=[1-9]\d* .* failed=0 `).Match(stdout.Bytes()) {
		t.Errorf("loadgen: exit status %d\nstdout: %s\nstderr: %s", status, &stdout, &stderr)
	}
	if status := stop(); status != 0 {
		t.Errorf("serve: exit status %d after SIGTERM", status)
	}
}

// TestBenchHarnessInvocation holds the command to the argument list
// bench/proc.go starts its server with — a file no product change may edit,
// so a CLI change that broke this line would break the benchmark unnoticed.
func TestBenchHarnessInvocation(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "ssb", "-sf", "1", "-rows", "6000", "-seed", "1", "-strategy", "data-driven-chopping",
			"-cache-frac", "1", "-kernel-workers", "2", "-serve", "127.0.0.1:0", "-serve-cooldown", "1h", "-log-level", "error"},
		{"-bench", "ssb", "-sf", "10", "-seed", "1", "-strategy", "data-driven-chopping",
			"-cache-frac", "0.5", "-kernel-workers", "2", "-serve", "127.0.0.1:0", "-serve-cooldown", "1h", "-log-level", "error"},
	} {
		o, err := parseFlags(args, io.Discard)
		if err != nil {
			t.Fatalf("%q does not parse: %v", args, err)
		}
		if m, err := validateOptions(*o); err != nil || m != serve {
			t.Errorf("%q: mode %d, error %v; want serve mode (%d)", args, m, err, serve)
		}
	}
}

// TestFlagTable holds every entry of the flag table to what the loops over it
// assume.
func TestFlagTable(t *testing.T) {
	defs := flagDefs(new(options))
	if len(defs) != 41 {
		t.Errorf("%d flags, want the 41 the command has always had", len(defs))
	}
	seen := map[string]bool{}
	groups := map[mode]bool{}
	var last mode
	for _, d := range defs {
		if seen[d.name] {
			t.Errorf("-%s is declared twice", d.name)
		}
		seen[d.name] = true
		if d.help == "" {
			t.Errorf("-%s has no help line", d.name)
		}
		ms := d.modes &^ selector
		if ms == 0 || ms&^anyMode != 0 {
			t.Errorf("-%s: modes %b, want a non-empty set of the four", d.name, d.modes)
		}
		if d.modes&selector != 0 && (ms&(ms-1) != 0 || ms == batch || reflect.TypeOf(d.def).Kind() != reflect.String) {
			t.Errorf("-%s: a mode flag is a string that selects one mode other than a batch run", d.name)
		}
		if ms != last && groups[ms] {
			t.Errorf("-%s: the flags read by %s are not contiguous, -h would head them twice", d.name, modeNames(defs, ms))
		}
		groups[ms], last = true, ms
		if got, want := reflect.TypeOf(d.ptr), reflect.PointerTo(reflect.TypeOf(d.def)); got != want {
			t.Errorf("-%s binds a %v, its default is for a %v", d.name, got, want)
		}
		if d.ok != nil && !d.ok.admits(reflect.ValueOf(d.def)) {
			t.Errorf("-%s: default %v is outside %s", d.name, d.def, d.ok)
		}
	}
}

var update = flag.Bool("update-golden", false, "rewrite testdata/usage.golden")

// TestUsageGolden pins -h. The one machine-dependent default is made
// constant first.
func TestUsageGolden(t *testing.T) {
	var stderr bytes.Buffer
	if status := run([]string{"-h"}, io.Discard, &stderr); status != 0 {
		t.Fatalf("-h: exit status %d", status)
	}
	got := regexp.MustCompile(`(serial\) \(default )\d+\)`).ReplaceAll(stderr.Bytes(), []byte("${1}GOMAXPROCS)"))
	golden := filepath.Join("testdata", "usage.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-h differs from %s (go test ./cmd/robustdb -run TestUsageGolden -update-golden rewrites it):\n%s", golden, got)
	}
}
