package figures

import (
	"fmt"
	"slices"

	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/workload"
)

// macroRowsPerSF keeps the SF-30 databases laptop-sized; all device sizes
// scale with it, so the knees stay at the paper's scale factors.
const macroRowsPerSF = 12000

// A benchmark is a data generator and its query mix.
type benchmark struct {
	name    string
	catalog func(sf, rowsPerSF int, seed int64) *table.Catalog
	queries func() []workload.Query
}

var (
	ssbBench  = benchmark{"SSBM", ssbCatalog, ssbWorkload}
	tpchBench = benchmark{"TPC-H", tpchCatalog, tpchWorkload}
)

// macroDeviceConfig sizes the device like the paper's GTX 770 related to
// its databases: the working set exceeds the data cache near SF 15
// (Figure 16), so the cache is fixed to the SF-15 working set and the heap
// gets twice that on top (the "4 GB card" split of the scaled device).
func macroDeviceConfig(o Options, b benchmark) exec.Config {
	footprint := WorkloadFootprint(b.catalog(15, o.rowsPerSF(macroRowsPerSF), o.Seed), b.queries())
	return exec.Config{CacheBytes: footprint, HeapBytes: footprint * 2}
}

// Scale-factor sweep of Figures 14/15/16/17 (paper: SF 1–30).
var scaleFactors = []int{1, 5, 10, 15, 20, 25, 30}

// sfSweep runs the benchmark's query mix single-user at each scale factor.
func sfSweep(b benchmark) sweep {
	return sweep{"sf/" + b.name, "scale factor", format("%d", scaleFactors...),
		func(o Options, strat workload.Strategy) (rs []workload.Result) {
			cfg := macroDeviceConfig(o, b)
			for _, sf := range scaleFactors {
				queries := b.queries()
				spec := workload.Spec{Queries: queries, Users: 1, TotalQueries: len(queries) * o.reps(2)}
				rs = append(rs, mustRun(b.catalog(sf, o.rowsPerSF(macroRowsPerSF), o.Seed), cfg, strat, spec))
			}
			return rs
		}}
}

// User sweep of Figures 18/19/20 (paper: 1–20 users at SF 10).
var userCounts = []int{1, 2, 5, 10, 15, 20}

// usersSweep runs the benchmark's query mix at SF 10, a fixed total of 100
// queries a repetition spread over a growing number of users.
func usersSweep(b benchmark) sweep {
	return sweep{"users/" + b.name, "parallel users", format("%d", userCounts...),
		func(o Options, strat workload.Strategy) (rs []workload.Result) {
			cfg := macroDeviceConfig(o, b)
			cat := b.catalog(10, o.rowsPerSF(macroRowsPerSF), o.Seed)
			queries := b.queries()
			for _, users := range userCounts {
				spec := workload.Spec{Queries: queries, Users: users, TotalQueries: o.reps(1) * 100}
				rs = append(rs, mustRun(cat, cfg, strat, spec))
			}
			return rs
		}}
}

// fig16 is both workloads' footprints over the scale-factor sweep, against
// the device cache each is run with.
func fig16(o Options) *Figure {
	f := &Figure{
		ID:     "fig16",
		Title:  "Workload memory footprint vs scale factor",
		XLabel: "scale factor",
		YLabel: "footprint [MiB]",
		X:      format("%d", scaleFactors...),
	}
	mib := func(bytes int64) float64 { return float64(bytes) / (1 << 20) }
	var caches []Series
	for _, b := range []benchmark{ssbBench, tpchBench} {
		footprint, cache := Series{Label: b.name}, Series{Label: b.name + " cache"}
		for _, sf := range scaleFactors {
			cat := b.catalog(sf, o.rowsPerSF(macroRowsPerSF), o.Seed)
			footprint.Y = append(footprint.Y, mib(WorkloadFootprint(cat, b.queries())))
			cache.Y = append(cache.Y, mib(macroDeviceConfig(o, b).CacheBytes))
		}
		f.Series = append(f.Series, footprint)
		caches = append(caches, cache)
	}
	f.Series = append(f.Series, caches...)
	return f
}

// latencies is the series of the queries' mean latencies in one run.
func latencies(label string, r workload.Result, queries []string) Series {
	s := Series{Label: label}
	for _, q := range queries {
		s.Y = append(s.Y, ms(r.MeanLatency(q)))
	}
	return s
}

// fig17 reads selected queries' times at SF 30 out of Figure 14a's runs.
func fig17(o Options) *Figure {
	queries := []string{"Q1.1", "Q2.1", "Q2.3", "Q3.1", "Q3.4", "Q4.1", "Q4.3"}
	f := &Figure{
		ID:     "fig17",
		Title:  "Selected SSB queries at SF 30, single user (full-workload context)",
		XLabel: "query",
		YLabel: "mean query time [ms]",
		X:      queries,
	}
	sf30 := slices.Index(scaleFactors, 30)
	for _, s := range []workload.Strategy{workload.CPUOnly(), workload.GPUOnly(), workload.CriticalPath(), workload.DataDrivenChopping()} {
		f.Series = append(f.Series, latencies(s.Label, sfSweep(ssbBench).results(o, s)[sf30], queries))
	}
	return f
}

// fig21 runs the SSB mix with 20 users at SF 10 under three strategies and
// the admission-control baseline (one query at a time on the GPU).
func fig21(o Options) *Figure {
	queries := []string{"Q1.1", "Q1.3", "Q2.1", "Q2.3", "Q3.1", "Q3.4", "Q4.1", "Q4.2", "Q4.3"}
	cat := ssbCatalog(10, o.rowsPerSF(macroRowsPerSF), o.Seed)
	cfg := macroDeviceConfig(o, ssbBench)
	f := &Figure{
		ID:     "fig21",
		Title:  "SSB query latencies at 20 users (SF 10)",
		XLabel: "query",
		YLabel: "mean latency [ms]",
		X:      queries,
	}
	variants := append([]plotted{{"GPU+Admission", workload.GPUOnly()}},
		labelled(workload.GPUOnly(), workload.Chopping(), workload.DataDrivenChopping())...)
	for i, v := range variants {
		spec := workload.Spec{Queries: ssbWorkload(), Users: 20, TotalQueries: o.reps(1) * 100, AdmissionControl: i == 0}
		f.Series = append(f.Series, latencies(v.label, mustRun(cat, cfg, v.strat, spec), queries))
	}
	return f
}

// fig24 runs the SSBM at SF 10 single-user under data-driven placement with
// LFU and with LRU ranking, as the cache grows from 0 to the working set.
func fig24(o Options) *Figure {
	cat := ssbCatalog(10, o.rowsPerSF(macroRowsPerSF), o.Seed)
	queries := ssbWorkload()
	footprint := WorkloadFootprint(cat, queries)
	f := &Figure{
		ID:     "fig24",
		Title:  "SSBM under data-driven placement: LFU vs LRU ranking",
		XLabel: "cache size / working set",
		YLabel: "workload execution time [ms]",
		Series: []Series{{Label: "LFU"}, {Label: "LRU"}},
	}
	for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		cfg := exec.Config{CacheBytes: int64(frac * float64(footprint)), HeapBytes: footprint * 2}
		spec := workload.Spec{Queries: queries, Users: 1, TotalQueries: len(queries) * o.reps(2)}
		f.X = append(f.X, fmt.Sprintf("%.0f%%", frac*100))
		for i, s := range []workload.Strategy{workload.DataDriven(), workload.DataDrivenLRU()} {
			f.Series[i].Y = append(f.Series[i].Y, ms(mustRun(cat, cfg, s, spec).WorkloadTime))
		}
	}
	return f
}

// fig25 runs the SSB mix at SF 10 under Data-Driven Chopping for 1, 5, 10
// and 20 users.
func fig25(o Options) *Figure {
	cat := ssbCatalog(10, o.rowsPerSF(macroRowsPerSF), o.Seed)
	cfg := macroDeviceConfig(o, ssbBench)
	var queries []string
	for _, q := range ssb.Queries() {
		queries = append(queries, q.Name)
	}
	f := &Figure{
		ID:     "fig25",
		Title:  "All SSB query latencies vs parallel users (Data-Driven Chopping, SF 10)",
		XLabel: "query",
		YLabel: "mean latency [ms]",
		X:      queries,
	}
	for _, users := range []int{1, 5, 10, 20} {
		spec := workload.Spec{Queries: ssbWorkload(), Users: users, TotalQueries: o.reps(1) * 100}
		res := mustRun(cat, cfg, workload.DataDrivenChopping(), spec)
		f.Series = append(f.Series, latencies(fmt.Sprintf("%d users", users), res, queries))
	}
	return f
}
