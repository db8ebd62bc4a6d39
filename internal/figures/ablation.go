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

// Ablation experiments for the design choices DESIGN.md calls out; they run
// through cmd/benchfig and bench_test.go like the paper's figures.

// ablateCompression runs GPU-only over the SSBM scale-factor sweep on the
// Figure 14 device (sized on the raw SF-15 working set), once over the raw
// and once over the bit-packed database (§6.3).
func ablateCompression(o Options) *Figure {
	rows := o.rowsPerSF(macroRowsPerSF)
	cfg := macroDeviceConfig(o, ssbBench)
	var raw, compressed []float64
	for _, sf := range scaleFactors {
		cat := ssbCatalog(sf, rows, o.Seed)
		spec := workload.Spec{
			Queries:      ssbWorkload(),
			Users:        1,
			TotalQueries: 13 * o.reps(2),
		}
		raw = append(raw, ms(mustRun(cat, cfg, workload.GPUOnly(), spec).WorkloadTime))
		compressed = append(compressed, ms(mustRun(cat.Compressed(), cfg, workload.GPUOnly(), spec).WorkloadTime))
	}
	return &Figure{
		ID:     "ablate-compression",
		Title:  "Compression shifts the GPU-only breakdown to larger scale factors (§6.3)",
		XLabel: "scale factor",
		YLabel: "workload execution time [ms]",
		X:      format("%d", scaleFactors...),
		Series: []Series{
			{Label: "GPU Only (raw)", Y: raw},
			{Label: "GPU Only (bit-packed)", Y: compressed},
		},
	}
}

// ablatePoolSize runs Chopping on the parallel selection workload at 20
// users with the GPU worker pool bounded at 1 … 16 workers and unbounded
// (§5.2).
func ablatePoolSize(o Options) *Figure {
	p := newParallelSelection(o)
	f := &Figure{
		ID:     "ablate-poolsize",
		Title:  "Chopping thread-pool bound vs contention (20 users, Appendix B.2)",
		XLabel: "GPU worker-pool size",
		YLabel: "workload time [ms] / aborts",
		Series: []Series{{Label: "workload time"}, {Label: "aborts"}},
	}
	for _, workers := range []int{1, 2, 4, 8, 16, exec.UnboundedWorkers} {
		label := fmt.Sprintf("%d", workers)
		if workers == exec.UnboundedWorkers {
			label = "unbounded"
		}
		f.X = append(f.X, label)
		strat := workload.Chopping()
		strat.GPUWorkers = workers
		res := p.run(p.cfg, strat, 20)
		f.Series[0].Y = append(f.Series[0].Y, ms(res.WorkloadTime))
		f.Series[1].Y = append(f.Series[1].Y, float64(res.Aborts))
	}
	return f
}

// ablateFaultRate runs the SSB mix at SF 10 with 4 users under CPU Only,
// GPU Only and Data-Driven Chopping as the injected rate of transient device
// allocation and bus transfer failures (the same for both) grows.
func ablateFaultRate(o Options) *Figure {
	cat := ssbCatalog(microSF, o.rowsPerSF(ssb.DefaultRowsPerSF), o.Seed)
	queries := ssbWorkload()
	footprint := WorkloadFootprint(cat, queries)
	strategies := []workload.Strategy{workload.CPUOnly(), workload.GPUOnly(), workload.DataDrivenChopping()}
	f := &Figure{
		ID:     "ablate-faultrate",
		Title:  "Graceful degradation under injected device faults (SSB mix, 4 users)",
		XLabel: "injected fault rate",
		YLabel: "workload execution time [ms]",
		Series: seriesOf(strategies),
	}
	for _, rate := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
		f.X = append(f.X, fmt.Sprintf("%.0f%%", rate*100))
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
			f.Series[i].Y = append(f.Series[i].Y, ms(mustRun(cat, cfg, strat, spec).WorkloadTime))
		}
	}
	return f
}

// ablateOverlap runs a transfer-bound GPU-only scan over an almost-cold cache
// (2% of the working set) as the pipelined chunk executor's in-flight bound
// grows from 0 (serial transfer-then-compute) to 8, with learner-sized
// chunks, with those plus CPU co-execution of trailing chunks, and with two
// coarse half-table chunks. The query is a terminal wide selection: its
// result returns to the host either way, so the serial and pipelined paths
// move the same bytes and the sweep isolates the scheduling.
func ablateOverlap(o Options) *Figure {
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

// ablateAbortSync runs GPU-only and Chopping on the parallel selection
// workload at 20 users as the device-synchronization stall charged per abort
// (the cudaFree-semantics constant of the machine model, DESIGN.md §4) grows.
func ablateAbortSync(o Options) *Figure {
	p := newParallelSelection(o)
	strategies := []workload.Strategy{workload.GPUOnly(), workload.Chopping()}
	f := &Figure{
		ID:     "ablate-abortsync",
		Title:  "Sensitivity to the abort-synchronization stall (20 users, Appendix B.2)",
		XLabel: "abort sync stall",
		YLabel: "workload execution time [ms]",
		Series: seriesOf(strategies),
	}
	for _, sync := range []time.Duration{0, 200 * time.Microsecond, 1500 * time.Microsecond, 5 * time.Millisecond} {
		f.X = append(f.X, sync.String())
		cfg := p.cfg
		cfg.Params = cost.DefaultParams()
		cfg.Params.AbortSync = sync
		for i, s := range strategies {
			f.Series[i].Y = append(f.Series[i].Y, ms(p.run(cfg, s, 20).WorkloadTime))
		}
	}
	return f
}
