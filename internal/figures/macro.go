package figures

import (
	"fmt"

	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/workload"
)

// Scale-factor sweep of Figures 14/15/16 (paper: SF 1–30).
var sfSweep = []int{1, 5, 10, 15, 20, 25, 30}

// macroRowsPerSF keeps the SF-30 databases laptop-sized; all device sizes
// scale with it, so the knees stay at the paper's scale factors.
const macroRowsPerSF = 12000

// macroDeviceConfig sizes the device like the paper's GTX 770 related to
// its databases: the working set exceeds the data cache near SF 15
// (Figure 16), so the cache is fixed to the SF-15 working set and the heap
// gets twice that on top (the "4 GB card" split of the scaled device).
func macroDeviceConfig(o Options, ssbm bool) exec.Config {
	rows := o.rowsPerSF(macroRowsPerSF)
	var footprint int64
	if ssbm {
		cat := ssbCatalog(15, rows, o.Seed)
		footprint = WorkloadFootprint(cat, ssbWorkload())
	} else {
		cat := tpchCatalog(15, rows, o.Seed)
		footprint = WorkloadFootprint(cat, tpchWorkload())
	}
	return exec.Config{CacheBytes: footprint, HeapBytes: footprint * 2}
}

// sweepKey names one sweep: which one, over which variant of it (a benchmark,
// a strategy's label), under which options.
type sweepKey struct {
	sweep, variant string
	o              Options
}

// A sweep is deterministic in its key, so the figures that share one (2/5/6,
// 3/7/9/12/13, 14/15/16, 18/19/20) run it once.
var sweeps = map[sweepKey]any{}

// memo returns what run returned the first time the sweep was asked for.
func memo[T any](key sweepKey, run func() T) T {
	if v, ok := sweeps[key]; ok {
		return v.(T)
	}
	v := run()
	sweeps[key] = v
	return v
}

// macroSweepRun is a sweep of a full benchmark over xs under every strategy:
// results[i][j] is run(strategy i, xs[j]).
func macroSweepRun(sweep string, o Options, ssbm bool, xs []int,
	run func(strat workload.Strategy, x int) workload.Result) ([]string, []string, [][]workload.Result) {
	strategies := workload.AllStrategies()
	labels := make([]string, len(strategies))
	for i, strat := range strategies {
		labels[i] = strat.Label
	}
	xLabels := make([]string, len(xs))
	for j, x := range xs {
		xLabels[j] = fmt.Sprintf("%d", x)
	}
	return xLabels, labels, memo(sweepKey{sweep, fmt.Sprint(ssbm), o}, func() [][]workload.Result {
		results := make([][]workload.Result, len(strategies))
		for i, strat := range strategies {
			for _, x := range xs {
				results[i] = append(results[i], run(strat, x))
			}
		}
		return results
	})
}

// sfSweepRun executes the full benchmark workload single-user across the
// scale-factor sweep for every strategy.
func sfSweepRun(o Options, ssbm bool) ([]string, []string, [][]workload.Result) {
	cfg := macroDeviceConfig(o, ssbm)
	rows := o.rowsPerSF(macroRowsPerSF)
	return macroSweepRun("sf", o, ssbm, sfSweep, func(strat workload.Strategy, sf int) workload.Result {
		var cat = ssbCatalog(sf, rows, o.Seed)
		queries := ssbWorkload()
		if !ssbm {
			cat = tpchCatalog(sf, rows, o.Seed)
			queries = tpchWorkload()
		}
		spec := workload.Spec{
			Queries:      queries,
			Users:        1,
			TotalQueries: len(queries) * o.reps(2),
		}
		return mustRun(cat, cfg, strat, spec)
	})
}

func figureFromResults(id, title, xlabel, ylabel string, xs, labels []string,
	results [][]workload.Result, metric func(workload.Result) float64) *Figure {
	f := &Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, X: xs}
	for i, label := range labels {
		ys := make([]float64, len(results[i]))
		for j, r := range results[i] {
			ys[j] = metric(r)
		}
		f.Series = append(f.Series, Series{Label: label, Y: ys})
	}
	return f
}

// Fig14 reproduces Figure 14 (a: SSBM, b: TPC-H): average workload time
// versus scale factor for all six strategies, single user. GPU-only falls
// behind past the cache knee (paper: SF ≈ 15); Data-Driven Chopping is
// never slower than CPU-only.
func Fig14(o Options) []*Figure {
	xsA, labels, resA := sfSweepRun(o, true)
	xsB, _, resB := sfSweepRun(o, false)
	t := func(r workload.Result) float64 { return ms(r.WorkloadTime) }
	return []*Figure{
		figureFromResults("fig14a", "SSBM workload time vs scale factor",
			"scale factor", "workload execution time [ms]", xsA, labels, resA, t),
		figureFromResults("fig14b", "TPC-H (Q2–Q7) workload time vs scale factor",
			"scale factor", "workload execution time [ms]", xsB, labels, resB, t),
	}
}

// Fig15 reproduces Figure 15: CPU→GPU transfer time in the Figure 14 runs.
func Fig15(o Options) []*Figure {
	xsA, labels, resA := sfSweepRun(o, true)
	xsB, _, resB := sfSweepRun(o, false)
	t := func(r workload.Result) float64 { return ms(r.H2DTime) }
	return []*Figure{
		figureFromResults("fig15a", "SSBM CPU→GPU transfer time vs scale factor",
			"scale factor", "transfer time [ms]", xsA, labels, resA, t),
		figureFromResults("fig15b", "TPC-H CPU→GPU transfer time vs scale factor",
			"scale factor", "transfer time [ms]", xsB, labels, resB, t),
	}
}

// Fig16 reproduces Figure 16: the memory footprint of both workloads versus
// scale factor, against the device data cache size. The crossing point is
// where Figure 14's GPU-only curve breaks (paper: SF 15).
func Fig16(o Options) *Figure {
	rows := o.rowsPerSF(macroRowsPerSF)
	cacheSSB := float64(macroDeviceConfig(o, true).CacheBytes) / (1 << 20)
	cacheTPCH := float64(macroDeviceConfig(o, false).CacheBytes) / (1 << 20)
	var xs []string
	var ssbY, tpchY, cacheLineSSB, cacheLineTPCH []float64
	for _, sf := range sfSweep {
		xs = append(xs, fmt.Sprintf("%d", sf))
		ssbY = append(ssbY,
			float64(WorkloadFootprint(ssbCatalog(sf, rows, o.Seed), ssbWorkload()))/(1<<20))
		tpchY = append(tpchY,
			float64(WorkloadFootprint(tpchCatalog(sf, rows, o.Seed), tpchWorkload()))/(1<<20))
		cacheLineSSB = append(cacheLineSSB, cacheSSB)
		cacheLineTPCH = append(cacheLineTPCH, cacheTPCH)
	}
	return &Figure{
		ID:     "fig16",
		Title:  "Workload memory footprint vs scale factor",
		XLabel: "scale factor",
		YLabel: "footprint [MiB]",
		X:      xs,
		Series: []Series{
			{Label: "SSBM", Y: ssbY},
			{Label: "TPC-H", Y: tpchY},
			{Label: "SSBM cache", Y: cacheLineSSB},
			{Label: "TPC-H cache", Y: cacheLineTPCH},
		},
	}
}

// fig17Queries are the queries the paper examines at SF 30.
var fig17Queries = []string{"Q1.1", "Q2.1", "Q2.3", "Q3.1", "Q3.4", "Q4.1", "Q4.3"}

// Fig17 reproduces Figure 17: per-query execution times of selected SSB
// queries at SF 30, single user, measured inside the full SSBM workload
// (the cache holds the workload's hot set, like the paper's setup).
// Critical Path tracks CPU-only; Data-Driven Chopping helps selective
// queries most (paper: up to 2.5× on Q3.4).
func Fig17(o Options) *Figure {
	xs, labels, results := sfSweepRun(o, true)
	sf30 := -1
	for i, x := range xs {
		if x == "30" {
			sf30 = i
		}
	}
	if sf30 < 0 {
		panic("figures: SF 30 missing from the scale-factor sweep")
	}
	keep := map[string]bool{
		"CPU Only": true, "GPU Only": true,
		"Critical Path": true, "Data-Driven Chopping": true,
	}
	f := &Figure{
		ID:     "fig17",
		Title:  "Selected SSB queries at SF 30, single user (full-workload context)",
		XLabel: "query",
		YLabel: "mean query time [ms]",
		X:      fig17Queries,
	}
	for i, label := range labels {
		if !keep[label] {
			continue
		}
		res := results[i][sf30]
		var ys []float64
		for _, name := range fig17Queries {
			ys = append(ys, ms(res.MeanLatency(name)))
		}
		f.Series = append(f.Series, Series{Label: label, Y: ys})
	}
	return f
}

// User sweep of Figures 18/19/20 (paper: 1–20 users at SF 10).
var userSweep = []int{1, 2, 5, 10, 15, 20}

// userSweepRun executes the full workload at SF 10 with a fixed total of
// 100 queries distributed over a growing number of users.
func userSweepRun(o Options, ssbm bool) ([]string, []string, [][]workload.Result) {
	rows := o.rowsPerSF(macroRowsPerSF)
	cfg := macroDeviceConfig(o, ssbm)
	var cat = ssbCatalog(10, rows, o.Seed)
	queries := ssbWorkload()
	if !ssbm {
		cat = tpchCatalog(10, rows, o.Seed)
		queries = tpchWorkload()
	}
	total := o.reps(1) * 100
	return macroSweepRun("user", o, ssbm, userSweep, func(strat workload.Strategy, users int) workload.Result {
		return mustRun(cat, cfg, strat, workload.Spec{Queries: queries, Users: users, TotalQueries: total})
	})
}

// Fig18 reproduces Figure 18: workload time versus parallel users (SF 10).
// Chopping's dynamic reaction to faults keeps the curves flat.
func Fig18(o Options) []*Figure {
	xsA, labels, resA := userSweepRun(o, true)
	xsB, _, resB := userSweepRun(o, false)
	t := func(r workload.Result) float64 { return ms(r.WorkloadTime) }
	return []*Figure{
		figureFromResults("fig18a", "SSBM workload time vs parallel users (SF 10)",
			"parallel users", "workload execution time [ms]", xsA, labels, resA, t),
		figureFromResults("fig18b", "TPC-H workload time vs parallel users (SF 10)",
			"parallel users", "workload execution time [ms]", xsB, labels, resB, t),
	}
}

// Fig19 reproduces Figure 19: CPU→GPU transfer time versus parallel users.
// Chopping cuts the transfer volume by an order of magnitude (paper: up to
// 48× for the SSBM).
func Fig19(o Options) []*Figure {
	xsA, labels, resA := userSweepRun(o, true)
	xsB, _, resB := userSweepRun(o, false)
	t := func(r workload.Result) float64 { return ms(r.H2DTime) }
	return []*Figure{
		figureFromResults("fig19a", "SSBM CPU→GPU transfer time vs parallel users",
			"parallel users", "transfer time [ms]", xsA, labels, resA, t),
		figureFromResults("fig19b", "TPC-H CPU→GPU transfer time vs parallel users",
			"parallel users", "transfer time [ms]", xsB, labels, resB, t),
	}
}

// Fig20 reproduces Figure 20: wasted time of aborted GPU operators in the
// SSBM user sweep. Chopping reduces it by orders of magnitude (paper: 74×).
func Fig20(o Options) *Figure {
	xs, labels, res := userSweepRun(o, true)
	return figureFromResults("fig20", "SSBM wasted time by aborted GPU operators",
		"parallel users", "wasted time [ms]", xs, labels, res,
		func(r workload.Result) float64 { return ms(r.WastedTime) })
}

// fig21Queries are the queries the paper examines at 20 users.
var fig21Queries = []string{"Q1.1", "Q1.3", "Q2.1", "Q2.3", "Q3.1", "Q3.4", "Q4.1", "Q4.2", "Q4.3"}

// Fig21 reproduces Figure 21: per-query latencies at 20 users (SF 10),
// including the admission-control baseline (one query at a time on the
// GPU).
func Fig21(o Options) *Figure {
	rows := o.rowsPerSF(macroRowsPerSF)
	cat := ssbCatalog(10, rows, o.Seed)
	cfg := macroDeviceConfig(o, true)
	type variant struct {
		label     string
		strat     workload.Strategy
		admission bool
	}
	variants := []variant{
		{"GPU+Admission", workload.GPUOnly(), true},
		{"GPU Only", workload.GPUOnly(), false},
		{"Chopping", workload.Chopping(), false},
		{"Data-Driven Chopping", workload.DataDrivenChopping(), false},
	}
	f := &Figure{
		ID:     "fig21",
		Title:  "SSB query latencies at 20 users (SF 10)",
		XLabel: "query",
		YLabel: "mean latency [ms]",
		X:      fig21Queries,
	}
	total := o.reps(1) * 100
	for _, v := range variants {
		spec := workload.Spec{
			Queries:          ssbWorkload(),
			Users:            20,
			TotalQueries:     total,
			AdmissionControl: v.admission,
		}
		res := mustRun(cat, cfg, v.strat, spec)
		var ys []float64
		for _, name := range fig21Queries {
			ys = append(ys, ms(res.MeanLatency(name)))
		}
		f.Series = append(f.Series, Series{Label: v.label, Y: ys})
	}
	return f
}

// Fig24 reproduces Figure 24 (Appendix E): the SSBM workload under
// Data-Driven placement with LFU vs LRU ranking, as the cache grows from 0
// to the full working set. The two policies track each other closely.
func Fig24(o Options) *Figure {
	rows := o.rowsPerSF(macroRowsPerSF)
	cat := ssbCatalog(10, rows, o.Seed)
	queries := ssbWorkload()
	footprint := WorkloadFootprint(cat, queries)
	fractions := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	var xs []string
	var lfuY, lruY []float64
	for _, frac := range fractions {
		cfg := exec.Config{
			CacheBytes: int64(frac * float64(footprint)),
			HeapBytes:  footprint * 2,
		}
		spec := workload.Spec{Queries: queries, Users: 1, TotalQueries: len(queries) * o.reps(2)}
		lfu := mustRun(cat, cfg, workload.DataDriven(), spec)
		lru := mustRun(cat, cfg, workload.DataDrivenLRU(), spec)
		xs = append(xs, fmt.Sprintf("%.0f%%", frac*100))
		lfuY = append(lfuY, ms(lfu.WorkloadTime))
		lruY = append(lruY, ms(lru.WorkloadTime))
	}
	return &Figure{
		ID:     "fig24",
		Title:  "SSBM under data-driven placement: LFU vs LRU ranking",
		XLabel: "cache size / working set",
		YLabel: "workload execution time [ms]",
		X:      xs,
		Series: []Series{
			{Label: "LFU", Y: lfuY},
			{Label: "LRU", Y: lruY},
		},
	}
}

// Fig25 reproduces Figure 25 (appendix): latencies of all 13 SSB queries as
// the number of users grows, under Data-Driven Chopping.
func Fig25(o Options) *Figure {
	rows := o.rowsPerSF(macroRowsPerSF)
	cat := ssbCatalog(10, rows, o.Seed)
	cfg := macroDeviceConfig(o, true)
	users := []int{1, 5, 10, 20}
	var xs []string
	for _, q := range ssb.Queries() {
		xs = append(xs, q.Name)
	}
	f := &Figure{
		ID:     "fig25",
		Title:  "All SSB query latencies vs parallel users (Data-Driven Chopping, SF 10)",
		XLabel: "query",
		YLabel: "mean latency [ms]",
		X:      xs,
	}
	total := o.reps(1) * 100
	for _, u := range users {
		spec := workload.Spec{Queries: ssbWorkload(), Users: u, TotalQueries: total}
		res := mustRun(cat, cfg, workload.DataDrivenChopping(), spec)
		var ys []float64
		for _, name := range xs {
			ys = append(ys, ms(res.MeanLatency(name)))
		}
		f.Series = append(f.Series, Series{Label: fmt.Sprintf("%d users", u), Y: ys})
	}
	return f
}
