package figures

import (
	"fmt"

	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/workload"
)

// microSF is the scale factor of the micro-benchmarks (the paper uses
// SF 10 for both Appendix B workloads; Figure 1 uses SF 20).
const microSF = 10

// serialSelectionSpec builds the Appendix B.1 workload: 8 interleaved
// selections, repeated.
func serialSelectionSpec(reps int) workload.Spec {
	var qs []workload.Query
	for _, q := range ssb.SerialSelectionQueries() {
		qs = append(qs, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	return workload.Spec{Queries: qs, Users: 1, TotalQueries: len(qs) * reps}
}

// serialWorkingSet is the byte size of the eight filter columns.
func serialWorkingSet(o Options) (int64, int) {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF)
	cat := ssbCatalog(microSF, rows, o.Seed)
	return WorkloadFootprint(cat, serialSelectionSpec(1).Queries), rows
}

// cacheSweep runs the serial selection workload for a range of cache sizes
// under the given strategy and reports (xLabels, workloadMs, transferMs).
func cacheSweep(o Options, strat workload.Strategy) ([]string, []float64, []float64) {
	workingSet, rows := serialWorkingSet(o)
	cat := ssbCatalog(microSF, rows, o.Seed)
	spec := serialSelectionSpec(o.reps(10))
	fractions := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.125}
	results := memo(sweepKey{"cache", strat.Label, o}, func() (results []workload.Result) {
		for _, f := range fractions {
			cfg := exec.Config{
				CacheBytes: int64(f * float64(workingSet)),
				// The heap is not the contended resource in this experiment:
				// size it for the streaming fallback of a single operator.
				HeapBytes: workingSet * 8,
			}
			results = append(results, mustRun(cat, cfg, strat, spec))
		}
		return results
	})
	var xs []string
	var times, transfers []float64
	for i, f := range fractions {
		xs = append(xs, fmt.Sprintf("%.3f", f))
		times = append(times, ms(results[i].WorkloadTime))
		transfers = append(transfers, ms(results[i].H2DTime))
	}
	return xs, times, transfers
}

// Fig1 reproduces Figure 1: SSB Q3.3 on a larger database (paper: SF 20),
// executed CPU-only, on the GPU with a cold cache, and on the GPU with a
// hot cache. The cold GPU must be slower than the CPU; the hot GPU must be
// the fastest (paper: ≈2.5× over the CPU).
func Fig1(o Options) *Figure {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF / 2)
	cat := ssbCatalog(20, rows, o.Seed)
	q, _ := ssb.QueryByName("Q3.3")
	spec := workload.Spec{
		Queries:      []workload.Query{{Name: q.Name, Plan: q.Plan}},
		Users:        1,
		TotalQueries: o.reps(3),
	}
	footprint := WorkloadFootprint(cat, spec.Queries)
	cfg := exec.Config{CacheBytes: footprint * 2, HeapBytes: footprint * 8}

	cpu := mustRun(cat, cfg, workload.CPUOnly(), spec)
	// Cold cache: nothing resident, every operator transfers its inputs in
	// and its result back (the UVA-style processing of §2.5.3 — "all data
	// has to be transferred to the GPU before an operator starts").
	coldStrategy := workload.GPUOnly()
	coldStrategy.Preload = false
	coldSpec := spec
	coldSpec.TotalQueries = 1
	coldCfg := cfg
	coldCfg.CacheBytes = 0
	coldCfg.ForceCopyBack = true
	cold := mustRun(cat, coldCfg, coldStrategy, coldSpec)
	// Hot cache: pre-loaded columns, repeated executions measured.
	hot := mustRun(cat, cfg, workload.GPUOnly(), spec)

	reps := float64(spec.TotalQueries)
	return &Figure{
		ID:     "fig1",
		Title:  "SSB Q3.3 per-query time: CPU vs cold-cache GPU vs hot-cache GPU (SF 20)",
		XLabel: "configuration",
		YLabel: "query execution time [ms]",
		X:      []string{"CPU", "GPU (cold cache)", "GPU (hot cache)"},
		Series: []Series{{Label: "time", Y: []float64{
			ms(cpu.WorkloadTime) / reps,
			ms(cold.WorkloadTime),
			ms(hot.WorkloadTime) / reps,
		}}},
	}
}

// Fig2 reproduces Figure 2: the serial selection workload under
// operator-driven data placement with a growing GPU buffer. Below the
// working set the cache thrashes (paper: 24× degradation); above it the
// time is flat at the optimum.
func Fig2(o Options) *Figure {
	xs, times, _ := cacheSweep(o, workload.GPUOnly())
	return &Figure{
		ID:     "fig2",
		Title:  "Serial selection workload, operator-driven placement (cache thrashing)",
		XLabel: "cache size / working set",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{{Label: "GPU (operator-driven)", Y: times}},
	}
}

// Fig5 reproduces Figure 5: the same sweep under Data-Driven placement.
// The degradation disappears; time improves monotonically with the number
// of cached columns and meets the optimum once everything fits.
func Fig5(o Options) *Figure {
	xs, times, _ := cacheSweep(o, workload.DataDriven())
	return &Figure{
		ID:     "fig5",
		Title:  "Serial selection workload, data-driven placement",
		XLabel: "cache size / working set",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{{Label: workload.DataDriven().Label, Y: times}},
	}
}

// Fig6 reproduces Figure 6: time spent on CPU→GPU transfers in the Figure
// 2/5 sweeps. Operator-driven placement transfers massively below the
// working-set knee; Data-Driven transfers nothing during execution.
func Fig6(o Options) *Figure {
	xs, _, opDriven := cacheSweep(o, workload.GPUOnly())
	_, _, dataDriven := cacheSweep(o, workload.DataDriven())
	return &Figure{
		ID:     "fig6",
		Title:  "Serial selection workload: CPU→GPU transfer time",
		XLabel: "cache size / working set",
		YLabel: "transfer time [ms]",
		X:      xs,
		Series: []Series{
			{Label: "operator-driven", Y: opDriven},
			{Label: workload.DataDriven().Label, Y: dataDriven},
		},
	}
}

// parallelUsers is the user sweep of Figures 3/7/9/12/13.
var parallelUsers = []int{1, 2, 4, 6, 7, 8, 10, 12, 16, 20}

// parallelSelectionRun executes the Appendix B.2 workload for each user
// count under the strategy and returns per-x metrics.
func parallelSelectionRun(o Options, strat workload.Strategy) ([]string, []workload.Result) {
	rows := o.rowsPerSF(ssb.DefaultRowsPerSF)
	cat := ssbCatalog(microSF, rows, o.Seed)
	q := ssb.ParallelSelectionQuery()
	queries := []workload.Query{{Name: q.Name, Plan: q.Plan}}
	footprint := WorkloadFootprint(cat, queries)

	// Heap sized for ≈7 concurrent queries (the paper's knee:
	// n = M / (3.25·|C|) ≈ 7, §3.4, applied to the query's peak footprint);
	// the cache holds the input columns so the only contended resource is
	// the heap.
	params := exec.Config{
		CacheBytes: footprint * 2,
		HeapBytes:  int64(8.5 * float64(footprint)),
	}
	total := o.reps(1) * 100
	var xs []string
	for _, users := range parallelUsers {
		xs = append(xs, fmt.Sprintf("%d", users))
	}
	return xs, memo(sweepKey{"parallel-selection", strat.Label, o}, func() (results []workload.Result) {
		for _, users := range parallelUsers {
			spec := workload.Spec{Queries: queries, Users: users, TotalQueries: total}
			results = append(results, mustRun(cat, params, strat, spec))
		}
		return results
	})
}

func timesOf(results []workload.Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = ms(r.WorkloadTime)
	}
	return out
}

// Fig3 reproduces Figure 3: the parallel selection workload under a naive
// GPU execution. Beyond ≈7 users the operators' summed footprints exceed
// the heap, operators abort, and the fixed amount of work takes multiples
// of the single-user time (paper: up to 6×).
func Fig3(o Options) *Figure {
	xs, results := parallelSelectionRun(o, workload.GPUOnly())
	return &Figure{
		ID:     "fig3",
		Title:  "Parallel selection workload, naive GPU execution (heap contention)",
		XLabel: "parallel users",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{{Label: "GPU (operator-driven)", Y: timesOf(results)}},
	}
}

// Fig7 reproduces Figure 7: Data-Driven placement does NOT solve heap
// contention — the same degradation past the ≈7-user knee.
func Fig7(o Options) *Figure {
	xs, results := parallelSelectionRun(o, workload.DataDriven())
	return &Figure{
		ID:     "fig7",
		Title:  "Parallel selection workload, data-driven placement (contention remains)",
		XLabel: "parallel users",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{{Label: workload.DataDriven().Label, Y: timesOf(results)}},
	}
}

// Fig9 reproduces Figure 9: run-time placement reduces the penalty (the
// successor of an aborted operator stays on the CPU) but without a
// concurrency bound it is still off the optimum.
func Fig9(o Options) *Figure {
	xs, results := parallelSelectionRun(o, workload.RunTime())
	return &Figure{
		ID:     "fig9",
		Title:  "Parallel selection workload, run-time placement",
		XLabel: "parallel users",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{{Label: workload.RunTime().Label, Y: timesOf(results)}},
	}
}

// Fig12 reproduces Figure 12: query chopping bounds the number of parallel
// co-processor operators and achieves near-optimal (flat) performance.
func Fig12(o Options) *Figure {
	xs, results := parallelSelectionRun(o, workload.Chopping())
	ddc := workload.DataDrivenChopping()
	_, ddcResults := parallelSelectionRun(o, ddc)
	return &Figure{
		ID:     "fig12",
		Title:  "Parallel selection workload, query chopping (near optimal)",
		XLabel: "parallel users",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{
			{Label: workload.Chopping().Label, Y: timesOf(results)},
			{Label: ddc.Label, Y: timesOf(ddcResults)},
		},
	}
}

// Fig13 reproduces Figure 13: the number of aborted GPU operators per
// strategy. Compile-time operator-driven placement aborts most, run-time
// placement fewer, chopping (almost) none.
func Fig13(o Options) *Figure {
	xs, gpuOnly := parallelSelectionRun(o, workload.GPUOnly())
	_, runTime := parallelSelectionRun(o, workload.RunTime())
	_, chop := parallelSelectionRun(o, workload.Chopping())
	abortsOf := func(rs []workload.Result) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.Aborts)
		}
		return out
	}
	return &Figure{
		ID:     "fig13",
		Title:  "Aborted GPU operators by strategy",
		XLabel: "parallel users",
		YLabel: "aborted operators",
		X:      xs,
		Series: []Series{
			{Label: "GPU (compile-time)", Y: abortsOf(gpuOnly)},
			{Label: workload.RunTime().Label, Y: abortsOf(runTime)},
			{Label: workload.Chopping().Label, Y: abortsOf(chop)},
		},
	}
}
