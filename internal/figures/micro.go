package figures

import (
	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/workload"
)

// microSF is the scale factor of the micro-benchmarks (the paper uses
// SF 10 for both Appendix B workloads; Figure 1 uses SF 20).
const microSF = 10

// fig1 runs SSB Q3.3 at SF 20 on the CPU, on the GPU with a cold cache and
// on the GPU with a hot cache.
func fig1(o Options) *Figure {
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

// serialSelectionSpec builds the Appendix B.1 workload: 8 interleaved
// selections, repeated.
func serialSelectionSpec(reps int) workload.Spec {
	var qs []workload.Query
	for _, q := range ssb.SerialSelectionQueries() {
		qs = append(qs, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	return workload.Spec{Queries: qs, Users: 1, TotalQueries: len(qs) * reps}
}

var cacheFractions = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.125}

// cacheSweep is the sweep of Figures 2/5/6: the serial selection workload at
// SF 10 as the device cache grows past the eight filter columns.
var cacheSweep = sweep{"cache", "cache size / working set", format("%.3f", cacheFractions...),
	func(o Options, strat workload.Strategy) (rs []workload.Result) {
		cat := ssbCatalog(microSF, o.rowsPerSF(ssb.DefaultRowsPerSF), o.Seed)
		spec := serialSelectionSpec(o.reps(10))
		workingSet := WorkloadFootprint(cat, spec.Queries)
		for _, f := range cacheFractions {
			cfg := exec.Config{
				CacheBytes: int64(f * float64(workingSet)),
				// The heap is not the contended resource in this experiment:
				// size it for the streaming fallback of a single operator.
				HeapBytes: workingSet * 8,
			}
			rs = append(rs, mustRun(cat, cfg, strat, spec))
		}
		return rs
	}}

// parallelSelection is the Appendix B.2 setup of Figures 3/7/9/12/13 and the
// pool-size and abort-stall ablations: the parallel selection query at SF 10,
// 100 queries a repetition. The cache holds the input columns so the only
// contended resource is the heap, sized for ≈7 concurrent queries (the
// paper's knee: n = M / (3.25·|C|) ≈ 7, §3.4, applied to the query's peak
// footprint).
type parallelSelection struct {
	cat     *table.Catalog
	queries []workload.Query
	cfg     exec.Config
	total   int
}

func newParallelSelection(o Options) parallelSelection {
	cat := ssbCatalog(microSF, o.rowsPerSF(ssb.DefaultRowsPerSF), o.Seed)
	q := ssb.ParallelSelectionQuery()
	queries := []workload.Query{{Name: q.Name, Plan: q.Plan}}
	footprint := WorkloadFootprint(cat, queries)
	cfg := exec.Config{CacheBytes: footprint * 2, HeapBytes: int64(8.5 * float64(footprint))}
	return parallelSelection{cat, queries, cfg, o.reps(1) * 100}
}

func (p parallelSelection) run(cfg exec.Config, strat workload.Strategy, users int) workload.Result {
	return mustRun(p.cat, cfg, strat, workload.Spec{Queries: p.queries, Users: users, TotalQueries: p.total})
}

var parallelUsers = []int{1, 2, 4, 6, 7, 8, 10, 12, 16, 20}

// parallelSweep is the sweep of Figures 3/7/9/12/13 over parallel users.
var parallelSweep = sweep{"parallel-selection", "parallel users", format("%d", parallelUsers...),
	func(o Options, strat workload.Strategy) (rs []workload.Result) {
		p := newParallelSelection(o)
		for _, users := range parallelUsers {
			rs = append(rs, p.run(p.cfg, strat, users))
		}
		return rs
	}}
