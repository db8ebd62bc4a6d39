package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMeetsTheContract checks BENCHMARK.json against the schema the
// driver refuses files by, so a bad edit fails here and not there.
func TestManifestMeetsTheContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("file is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[key]; !ok {
			t.Errorf("key %q is missing", key)
		}
	}
	if len(top) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(top))
	}
	var command, paths []string
	if err := json.Unmarshal(top["command"], &command); err != nil || len(command) == 0 || len(command) > 32 {
		t.Errorf("command: %v, %d strings", err, len(command))
	}
	if err := json.Unmarshal(top["paths"], &paths); err != nil || len(paths) == 0 || len(paths) > 16 {
		t.Errorf("paths: %v, %d entries", err, len(paths))
	}
	for _, arg := range command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
	}

	mf, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", mf.RunSeconds)
	}
	// 4 + 22 runs per workload, their set-up and two builds must fit 3420 s.
	if runs := 4 + 22*len(mf.Workloads); float64(runs)*(float64(mf.RunSeconds)+12) > 3300 {
		t.Errorf("%d runs of %d s plus about 12 s of set-up each do not fit the driver's 3420 s", runs, mf.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for i, w := range mf.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if i >= len(workloadNames()) || workloadNames()[i] != w.Name {
			t.Errorf("workload %d is %q in the manifest, the harness has %v", i, w.Name, workloadNames())
		}
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, defs := range [][]metricDef{mf.EndToEnd, mf.PerLayer} {
		for _, d := range defs {
			name("metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range mf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range mf.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	// Keys are exactly the ones the contract shows: no bound on per-layer.
	var lists struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &lists); err != nil {
		t.Fatal(err)
	}
	for _, m := range lists.EndToEnd {
		if len(m) != 4 {
			t.Errorf("end-to-end metric %v: want exactly name, unit, better, bound", m["name"])
		}
	}
	for _, m := range lists.PerLayer {
		if _, bound := m["bound"]; len(m) != 3 || bound {
			t.Errorf("per-layer metric %v: want exactly name, unit, better", m["name"])
		}
	}
}

// TestSmoke runs all four workloads in both modes at the smallest size that
// still exercises every code path, and checks what the harness emits against
// the manifest. The numbers mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped in -short mode")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{root: root, mf: mf, outDir: t.TempDir(), seed: 5, window: time.Second, quick: true}
	doc, err := runAll(cfg, workloadNames(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2*len(mf.Workloads) {
		t.Fatalf("%d results, want %d", len(doc.Results), 2*len(mf.Workloads))
	}
	zeroOn := func(workload string) map[string]bool { // per-layer metrics of layers the workload does not have
		absent := batchOnly
		if workload == batchName {
			absent = serveOnly
		}
		set := map[string]bool{}
		for _, n := range absent {
			set[n] = true
		}
		return set
	}
	for _, r := range doc.Results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		defs := mf.defs(r.Traced)
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, the manifest declares %d", r.Workload, r.Traced, len(r.Metrics), len(defs))
		}
		absent := zeroOn(r.Workload)
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s is missing", r.Workload, d.Name)
			case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
				t.Errorf("%s: metric %s = %v %q", r.Workload, d.Name, m.Value, m.Unit)
			case !r.Traced && m.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", r.Workload, d.Name)
			case r.Traced && absent[d.Name] && m.Value != 0:
				t.Errorf("%s: metric %s of an absent layer is %v", r.Workload, d.Name, m.Value)
			}
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(cfg.outDir, r.Workload+".spans.jsonl")); err != nil {
				t.Errorf("%s: no span file: %v", r.Workload, err)
			}
		}
	}
	// The counter identities of a traced pass.
	for _, r := range doc.Results {
		v := func(n string) float64 { return r.Metrics[n].Value }
		if !r.Traced {
			continue
		}
		if r.Workload == batchName {
			if v("bus.h2d_mb") <= 0 || v("exec.aborts") <= 0 {
				t.Errorf("batch: bus.h2d_mb %v and exec.aborts %v: the gpu_only pass must transfer and abort", v("bus.h2d_mb"), v("exec.aborts"))
			}
			continue
		}
		if v("server.requests") != v("client.sent") || v("bus.h2d_mb") != 0 {
			t.Errorf("%s: server.requests %v, client.sent %v, bus.h2d_mb %v", r.Workload, v("server.requests"), v("client.sent"), v("bus.h2d_mb"))
		}
		switch hit := v("server.plancache_hit_ratio"); r.Workload {
		case "serve-hot-small":
			if hit < 0.99 {
				t.Errorf("serve-hot-small: plan-cache hit ratio %v", hit)
			}
		case "serve-adhoc-wide":
			if hit != 0 || v("server.plancache_evictions") == 0 {
				t.Errorf("serve-adhoc-wide: plan-cache hit ratio %v, evictions %v", hit, v("server.plancache_evictions"))
			}
		}
	}
}
