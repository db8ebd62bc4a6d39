// Command bench is the repo's two-clock benchmark: three closed-loop HTTP
// workloads against the real cmd/robustdb -serve binary and one in-process
// DB.RunWorkload batch, each measured end to end (wall clock and the
// engine's virtual clock) and, in a separate traced pass, layer by layer.
// BENCHMARK.json at the checkout root declares every metric; README.md in
// this directory explains the workloads, the metrics and which number should
// move where.
//
// Usage (from the checkout root; bench/run.sh builds and forwards its flags):
//
//	bash bench/run.sh -workload serve-hot-small -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -seed 1 -out bench/out     # all workloads, both passes
//	bash bench/run.sh -compare A.json B.json     # apply BENCHMARK.json's bounds
//
// This package may depend only on the root robustdb package, the server
// binary's flags and the /v1/query wire format; everything that needs
// robustdb/internal/... lives in the separate program bench/ladder, which
// only traced passes run, so a refactor of internals can break the ladder
// but never the end-to-end numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is what every pass needs.
type runConfig struct {
	root   string // checkout root
	mf     *manifest
	outDir string
	seed   int64
	window time.Duration
	// quick shrinks warm-ups, set-up repeats, replay and ladder to the
	// minimum that still exercises every code path. Only the smoke test
	// sets it; its numbers mean nothing.
	quick bool
}

// passResult is one (workload, trace mode) pass. Its first four fields are
// the result line of the builder's contract; the rest goes to result.json.
type passResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	// Detail carries what has no place in a name → value map: sample counts,
	// the per-second throughput series, set-up samples, ladder rungs and the
	// list of layer taxes that were smaller than their rungs' spread.
	Detail map[string]any `json:"detail"`
	// Problems lists why Correct is false.
	Problems []string `json:"problems,omitempty"`
}

// document is result.json: what -compare reads.
type document struct {
	Env     map[string]any `json:"env"`
	Results []*passResult  `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workload := flag.String("workload", "", "workload to run (default: all four, sequentially)")
	seed := flag.Int64("seed", 1, "seed of the dataset generator and the request sequence")
	seconds := flag.Float64("seconds", 0, "measured window per workload in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics with span recording off; 1: per-layer metrics from a traced pass (default: both)")
	out := flag.String("out", "bench/out", "directory for result.json, server logs and span files, relative to the checkout root")
	compareMode := flag.Bool("compare", false, "compare two result.json files: -compare A.json B.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		log.Fatal(err)
	}
	mf, err := loadManifest(root)
	if err != nil {
		log.Fatal(err)
	}
	if *compareMode {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two result files")
		}
		a, err := readDocument(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		b, err := readDocument(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		rows, regressed := compare(mf, a, b)
		for _, row := range rows {
			fmt.Println(row)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if runtime.NumCPU() < 2 {
		log.Fatalf("need at least 2 CPUs for %d sessions against %d kernel workers, have %d", sessions, kernelWorkers, runtime.NumCPU())
	}
	if *seconds <= 0 {
		*seconds = float64(mf.RunSeconds)
	}
	cfg := &runConfig{
		root:   root,
		mf:     mf,
		outDir: filepath.Join(root, *out),
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
	}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	doc, err := runAll(cfg, names, modes)
	if err != nil {
		log.Fatal(err)
	}
	// One pass: the contract's result line. Several: the whole document.
	var line any = doc
	if len(doc.Results) == 1 {
		r := doc.Results[0]
		line = struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(enc))
	for _, r := range doc.Results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

// runAll builds the program under test once, runs the passes sequentially —
// never concurrently — and writes result.json.
func runAll(cfg *runConfig, names []string, modes []bool) (*document, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := build(cfg.root, ".", "robustdb", "./cmd/robustdb"); err != nil {
		return nil, err
	}
	if modes[len(modes)-1] { // a traced pass is coming
		if err := build(cfg.root, "bench", "ladder", "./ladder"); err != nil {
			return nil, err
		}
	}
	doc := &document{Env: environment(cfg)}
	for _, name := range names {
		for _, traced := range modes {
			t0 := now()
			res, err := runPass(cfg, name, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for _, p := range res.Problems {
				log.Printf("%s: INCORRECT: %s", name, p)
			}
			log.Printf("%s traced=%v: %d attempted, %d failed, %.1fs", name, traced, res.Attempted, res.Failed, now().Sub(t0).Seconds())
			doc.Results = append(doc.Results, res)
		}
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return doc, os.WriteFile(filepath.Join(cfg.outDir, "result.json"), raw, 0o644)
}

// runPass measures one workload in one mode and attaches the declared units.
func runPass(cfg *runConfig, name string, traced bool) (*passResult, error) {
	res := &passResult{Workload: name, Traced: traced, Detail: map[string]any{}}
	var values map[string]float64
	var err error
	if name == batchName {
		values, err = runBatch(cfg, res)
	} else {
		var w *serveWorkload
		for i := range serveWorkloads {
			if serveWorkloads[i].name == name {
				w = &serveWorkloads[i]
			}
		}
		if w == nil {
			return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
		}
		values, err = runServe(cfg, w, res)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics, err = attach(cfg.mf.defs(traced), values)
	res.Correct = len(res.Problems) == 0
	return res, err
}

// binPath is where build leaves a program: .bench_build/ in the checkout.
func binPath(root, name string) string { return filepath.Join(root, ".bench_build", name) }

// build compiles pkg (relative to dir, itself relative to the root) into
// .bench_build/. Build time is excluded from every metric.
func build(root, dir, name, pkg string) error {
	cmd := exec.Command("go", "build", "-o", binPath(root, name), pkg)
	cmd.Dir = filepath.Join(root, dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return nil
}

// environment is the block emitted with every result.
func environment(cfg *runConfig) map[string]any {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"commit":         commit,
		"kernel":         kernel,
		"seed":           cfg.seed,
		"window_s":       cfg.window.Seconds(),
		"sessions":       sessions,
		"kernel_workers": kernelWorkers,
	}
}
