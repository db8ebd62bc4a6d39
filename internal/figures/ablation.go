package figures

import (
	"fmt"
	"time"

	"robustdb/internal/cost"
	"robustdb/internal/exec"
	"robustdb/internal/expr"
	"robustdb/internal/faults"
	"robustdb/internal/plan"
	"robustdb/internal/ssb"
	"robustdb/internal/workload"
)

// Ablation experiments for the design choices DESIGN.md calls out: the
// paper's compression discussion (§6.3), the chopping thread-pool bound
// (§5.2), and the abort-synchronization stall of the device model
// (DESIGN.md §4). They run through cmd/benchfig and bench_test.go like the
// paper's figures.

// AblateCompression reproduces the §6.3 claim: compressing the database
// shifts the scale factor at which GPU-only execution breaks down, without
// removing the breakdown itself. Same device, same queries — only the
// storage format changes.
func AblateCompression(o Options) *Figure {
	rows := o.rowsPerSF(macroRowsPerSF)
	cfg := macroDeviceConfig(o, true) // fixed hardware, sized on RAW SF 15
	var xs []string
	var raw, compressed []float64
	for _, sf := range sfSweep {
		xs = append(xs, fmt.Sprintf("%d", sf))
		cat := ssbCatalog(sf, rows, o.Seed)
		spec := workload.Spec{
			Queries:      ssbWorkload(),
			Users:        1,
			TotalQueries: 13 * o.reps(2),
		}
		rawRes := mustRun(cat, cfg, workload.GPUOnly(), spec)
		compRes := mustRun(cat.Compressed(), cfg, workload.GPUOnly(), spec)
		raw = append(raw, ms(rawRes.WorkloadTime))
		compressed = append(compressed, ms(compRes.WorkloadTime))
	}
	return &Figure{
		ID:     "ablate-compression",
		Title:  "Compression shifts the GPU-only breakdown to larger scale factors (§6.3)",
		XLabel: "scale factor",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{
			{Label: "GPU Only (raw)", Y: raw},
			{Label: "GPU Only (bit-packed)", Y: compressed},
		},
	}
}

// AblatePoolSize sweeps the chopping thread-pool bound on the parallel
// selection workload at 20 users: one worker under-uses the device, a few
// workers keep it busy without contention, unbounded workers recreate heap
// contention — the reasoning behind §5.2's "moderate parallel execution".
func AblatePoolSize(o Options) *Figure {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF)
	cat := ssbCatalog(microSF, rows, o.Seed)
	q := ssb.ParallelSelectionQuery()
	queries := []workload.Query{{Name: q.Name, Plan: q.Plan}}
	footprint := WorkloadFootprint(cat, queries)
	cfg := exec.Config{
		CacheBytes: footprint * 2,
		HeapBytes:  int64(8.5 * float64(footprint)),
	}
	pools := []int{1, 2, 4, 8, 16, exec.UnboundedWorkers}
	var xs []string
	times := Series{Label: "workload time"}
	aborts := Series{Label: "aborts"}
	for _, workers := range pools {
		label := fmt.Sprintf("%d", workers)
		if workers == exec.UnboundedWorkers {
			label = "unbounded"
		}
		xs = append(xs, label)
		strat := workload.Chopping()
		strat.GPUWorkers = workers
		spec := workload.Spec{Queries: queries, Users: 20, TotalQueries: o.reps(1) * 100}
		res := mustRun(cat, cfg, strat, spec)
		times.Y = append(times.Y, ms(res.WorkloadTime))
		aborts.Y = append(aborts.Y, float64(res.Aborts))
	}
	return &Figure{
		ID:     "ablate-poolsize",
		Title:  "Chopping thread-pool bound vs contention (20 users, Appendix B.2)",
		XLabel: "GPU worker-pool size",
		YLabel: "workload time [ms] / aborts",
		X:      xs,
		Series: []Series{times, aborts},
	}
}

// AblateFaultRate sweeps the injected infrastructure-fault rate (transient
// device allocation and bus transfer failures, same rate for both) over the
// SSB mix and compares how the strategies degrade. CPU Only is the flat
// reference — faults only hit the device path. The robustness claim mirrors
// the paper's: data-driven chopping degrades gracefully towards the CPU-only
// line (retry absorbs isolated faults, the circuit breaker caps the damage
// of bursts) instead of collapsing.
func AblateFaultRate(o Options) *Figure {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF)
	cat := ssbCatalog(microSF, rows, o.Seed)
	queries := ssbWorkload()
	footprint := WorkloadFootprint(cat, queries)
	rates := []float64{0, 0.02, 0.05, 0.1, 0.2}
	strategies := []workload.Strategy{
		workload.CPUOnly(), workload.GPUOnly(), workload.DataDrivenChopping(),
	}
	var xs []string
	series := make([]Series, len(strategies))
	for i, strat := range strategies {
		series[i].Label = strat.Label
	}
	for _, rate := range rates {
		xs = append(xs, fmt.Sprintf("%.0f%%", rate*100))
		for i, strat := range strategies {
			cfg := exec.Config{
				CacheBytes: footprint * 2,
				HeapBytes:  int64(8.5 * float64(footprint)),
			}
			if rate > 0 {
				// A fresh injector per run: every (strategy, rate) cell sees
				// the same reproducible fault schedule for its draws.
				cfg.Faults = faults.New(faults.Config{
					Seed:             o.Seed + 1,
					AllocFailRate:    rate,
					TransferFailRate: rate,
				})
			}
			spec := workload.Spec{
				Queries:         queries,
				Users:           4,
				TotalQueries:    13 * o.reps(2),
				ContinueOnError: true,
			}
			res := mustRun(cat, cfg, strat, spec)
			series[i].Y = append(series[i].Y, ms(res.WorkloadTime))
		}
	}
	return &Figure{
		ID:     "ablate-faultrate",
		Title:  "Graceful degradation under injected device faults (SSB mix, 4 users)",
		XLabel: "injected fault rate",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: series,
	}
}

// AblateOverlap sweeps the pipelined chunk executor's in-flight bound on a
// transfer-bound GPU-only scan over an almost-cold cache (2% of the working
// set). The query is a terminal wide selection — its result returns to the
// host either way, so the serial and pipelined paths move the same bytes and
// the sweep isolates the scheduling. Depth 0 is the serial
// transfer-then-compute baseline; depth 1 double-buffers the upload of chunk
// i+1 under the compute of chunk i; deeper schedules add little because one
// extra in-flight chunk already hides the (dominant) transfer stage. Three
// variants per depth: learner-sized chunks, learner-sized chunks plus CPU
// co-execution of trailing chunks, and two coarse half-table chunks — coarse
// chunks cap the hideable fraction at one stage boundary, which is why the
// sizer aims for several chunks per table.
func AblateOverlap(o Options) *Figure {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF)
	cat := ssbCatalog(microSF, rows, o.Seed)
	scan := plan.Scan("lineorder",
		[]string{"lo_discount", "lo_quantity", "lo_revenue"},
		expr.NewBetween("lo_discount", 0, 100))
	queries := []workload.Query{{Name: "overlap-scan", Plan: plan.New(scan)}}
	footprint := WorkloadFootprint(cat, queries)
	run := func(depth, chunkRows int, coExec bool) float64 {
		cfg := exec.Config{
			CacheBytes:        footprint / 50, // almost cold: transfers dominate
			HeapBytes:         int64(8.5 * float64(footprint)),
			PipelineDepth:     depth,
			PipelineCoExec:    coExec,
			PipelineChunkRows: chunkRows,
		}
		spec := workload.Spec{Queries: queries, Users: 1, TotalQueries: o.reps(1) * 8}
		return ms(mustRun(cat, cfg, workload.GPUOnly(), spec).WorkloadTime)
	}
	depths := []int{0, 1, 2, 4, 8}
	var xs []string
	sized := Series{Label: "pipelined (learner-sized chunks)"}
	coexec := Series{Label: "pipelined + CPU co-exec"}
	coarse := Series{Label: "pipelined (2 half-table chunks)"}
	factRows := rows * microSF
	for _, depth := range depths {
		label := fmt.Sprintf("%d", depth)
		if depth == 0 {
			label = "serial"
		}
		xs = append(xs, label)
		sized.Y = append(sized.Y, run(depth, 0, false))
		coexec.Y = append(coexec.Y, run(depth, 0, true))
		coarse.Y = append(coarse.Y, run(depth, factRows/2, false))
	}
	return &Figure{
		ID:     "ablate-overlap",
		Title:  "Transfer/compute overlap vs pipeline depth and chunk size (cold cache, DESIGN.md §16)",
		XLabel: "in-flight chunk bound",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{sized, coexec, coarse},
	}
}

// AblateAbortSync sweeps the device-synchronization stall charged per abort
// (the cudaFree-semantics constant of the machine model, DESIGN.md §4) on
// the naive strategy at 20 users. The contention penalty scales with it;
// chopping is immune at every setting because it never aborts.
func AblateAbortSync(o Options) *Figure {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF)
	cat := ssbCatalog(microSF, rows, o.Seed)
	q := ssb.ParallelSelectionQuery()
	queries := []workload.Query{{Name: q.Name, Plan: q.Plan}}
	footprint := WorkloadFootprint(cat, queries)
	syncs := []time.Duration{0, 200 * time.Microsecond, 1500 * time.Microsecond, 5 * time.Millisecond}
	var xs []string
	naive := Series{Label: workload.GPUOnly().Label}
	chop := Series{Label: workload.Chopping().Label}
	for _, sync := range syncs {
		xs = append(xs, sync.String())
		params := cost.DefaultParams()
		params.AbortSync = sync
		cfg := exec.Config{
			Params:     params,
			CacheBytes: footprint * 2,
			HeapBytes:  int64(8.5 * float64(footprint)),
		}
		spec := workload.Spec{Queries: queries, Users: 20, TotalQueries: o.reps(1) * 100}
		naive.Y = append(naive.Y, ms(mustRun(cat, cfg, workload.GPUOnly(), spec).WorkloadTime))
		chop.Y = append(chop.Y, ms(mustRun(cat, cfg, workload.Chopping(), spec).WorkloadTime))
	}
	return &Figure{
		ID:     "ablate-abortsync",
		Title:  "Sensitivity to the abort-synchronization stall (20 users, Appendix B.2)",
		XLabel: "abort sync stall",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{naive, chop},
	}
}
