package main

import (
	"fmt"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"robustdb"
)

// The batch workload is the paper's scarce-resource regime with the server
// layers absent: 8 sessions share 26 SSB queries on a device whose cache
// holds half the working set. One round is four DB.RunWorkload passes on
// fresh engines; rounds repeat for the window.
const (
	batchSF      = 10
	batchUsers   = 8
	batchQueries = 26
)

// batchPasses are the passes of a round, in order: the two baselines, the
// paper's contribution, and the same on the bit-packed database.
var batchPasses = []struct {
	name       string
	strategy   func() robustdb.Strategy
	compressed bool
}{
	{"cpu_only", robustdb.CPUOnly, false},
	{"gpu_only", robustdb.GPUOnly, false},
	{"ddc", robustdb.DataDrivenChopping, false},
	{"ddc_compressed", robustdb.DataDrivenChopping, true},
}

const ddcPass = 2 // index of "ddc" in batchPasses: the strategy under test

// batchSetup is the generated database and the pinned device and workload.
type batchSetup struct {
	db, compressed *robustdb.DB
	dev            robustdb.Device
	spec           robustdb.Workload
}

func newBatchSetup(seed int64) *batchSetup {
	db := robustdb.OpenSSB(robustdb.SSBConfig{SF: batchSF, Seed: seed})
	queries := robustdb.SSBQueries()
	cache := db.WorkingSet(queries) / 2
	return &batchSetup{
		db:         db,
		compressed: db.Compressed(),
		dev: robustdb.Device{
			CacheBytes: cache, HeapBytes: 2 * cache,
			KernelWorkers: kernelWorkers, PipelineDepth: 2, PipelineCoExec: true,
		},
		spec: robustdb.Workload{Queries: queries, Users: batchUsers, TotalQueries: batchQueries},
	}
}

// round is the outcome of the four passes.
type round struct {
	results []robustdb.Result
	wallMS  []float64
}

func (b *batchSetup) runRound() (*round, error) {
	r := &round{}
	for _, p := range batchPasses {
		db := b.db
		if p.compressed {
			db = b.compressed
		}
		t0 := now()
		_, res, err := db.RunWorkload(b.dev, p.strategy(), b.spec)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", p.name, err)
		}
		r.wallMS = append(r.wallMS, ms(now().Sub(t0)))
		r.results = append(r.results, res)
	}
	return r, nil
}

func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// runBatch measures batch-contention. Virtual time replays bit for bit from
// the seed, so every round must reproduce the warm-up round exactly — that,
// with 26 completed queries and no failure per pass, is the correctness check.
func runBatch(cfg *runConfig, res *passResult) (map[string]float64, error) {
	repeats := setupRepeats
	if res.Traced || cfg.quick {
		repeats = 1
	}
	// Set-up: OpenSSB → compressed copy → one warm-up round.
	var b *batchSetup
	var first *round
	var setups []float64
	for i := 0; i < repeats; i++ {
		t0 := now()
		b = newBatchSetup(cfg.seed)
		var err error
		if first, err = b.runRound(); err != nil {
			return nil, err
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}

	win := &batchWindow{first: first, byPass: make([][]float64, len(batchPasses))}
	runtime.ReadMemStats(&win.memBefore)
	cpuBefore, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := now()
	var rounds []*round
	for now().Sub(start) < cfg.window {
		r, err := b.runRound()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		win.roundEnds = append(win.roundEnds, now().Sub(start))
	}
	elapsed := now().Sub(start)
	cpuAfter, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&win.memAfter)

	for n, r := range rounds {
		for i, p := range batchPasses {
			res.Attempted += batchQueries
			got := r.results[i]
			if done := int(got.QueriesRun); done != batchQueries || got.Failures != 0 {
				res.Failed += batchQueries - done
				res.Problems = append(res.Problems, fmt.Sprintf("round %d %s: %d queries run, %d failures, want %d and 0", n+1, p.name, got.QueriesRun, got.Failures, batchQueries))
			}
			if !reflect.DeepEqual(got, first.results[i]) {
				res.Problems = append(res.Problems, fmt.Sprintf("round %d %s: virtual-time result differs from the warm-up round (makespan %v vs %v)", n+1, p.name, got.WorkloadTime, first.results[i].WorkloadTime))
			}
			win.passWall = append(win.passWall, r.wallMS[i])
			win.byPass[i] = append(win.byPass[i], r.wallMS[i])
		}
	}
	win.queries = float64(res.Attempted - res.Failed)
	makespans := map[string]float64{}
	for i, p := range batchPasses {
		makespans[p.name] = ms(first.results[i].WorkloadTime)
	}
	res.Detail["samples"] = len(win.passWall)
	res.Detail["rounds"] = len(rounds)
	res.Detail["vt_makespan_ms"] = makespans

	if !res.Traced {
		res.Detail["setup_s_samples"] = setups
		return map[string]float64{
			"setup_s":        median(setups),
			"throughput_qps": win.queries / elapsed.Seconds(),
			// The unit a caller waits for is a pass; the median is taken over
			// the passes of the strategy under test, not over the mix of four
			// kinds, whose median would sit on the border between two of them.
			"wall_p50_ms":      median(win.byPass[ddcPass]),
			"cpu_ms_per_query": (cpuAfter - cpuBefore) * 1000 / win.queries,
			// Virtual time per query: the makespan of the strategy under
			// test over its 26 queries.
			"vt_ms_per_query": ms(first.results[ddcPass].WorkloadTime) / batchQueries,
		}, nil
	}
	// What the process retains: the live heap after forced collections
	// (three: a sync.Pool keeps its buffers through two).
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&win.live)
	runtime.KeepAlive(b) // the database is part of what a caller of RunWorkload retains
	return batchLayers(cfg, res, win)
}

// batchWindow is what a measured batch window leaves for batchLayers.
type batchWindow struct {
	first     *round      // the warm-up round: every later round equals it in virtual time
	byPass    [][]float64 // wall ms of every pass, by kind
	passWall  []float64   // the same in run order: the unit a caller waits for
	roundEnds []time.Duration
	queries   float64 // completed
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	live      runtime.MemStats // after forced collections
}
