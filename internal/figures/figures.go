// Package figures regenerates every figure of the paper's evaluation.
//
// Each row of the experiment table runs one experiment on the simulated
// machine and returns the series the paper plots. The absolute numbers
// differ from the paper (its testbed was a physical Xeon + GTX 770; ours is
// the calibrated simulator, cf. DESIGN.md §2); what the paper claims about
// the curves is checked over the pinned series by the claim table of
// claims_test.go (DESIGN.md §28).
//
// Device sizing: all experiments size the simulated co-processor relative
// to the scaled database exactly as the paper's GTX 770 (4 GB) related to
// its SSB databases, so every working-set/cache and footprint/heap ratio is
// preserved despite the scaled-down row counts.
package figures

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"robustdb/internal/exec"
	"robustdb/internal/ssb"
	"robustdb/internal/table"
	"robustdb/internal/tpch"
	"robustdb/internal/workload"
)

// Series is one plotted line: a label and its y value per x position.
type Series struct {
	Label string
	Y     []float64
}

// Figure is the data behind one figure of the paper. Every series has a y
// value per x position.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []string // x tick labels (numeric sweeps or query names)
	Series []Series
}

// Render writes the figure as an aligned text table.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "   y: %s\n", f.YLabel)
	widths := make([]int, len(f.Series)+1)
	widths[0] = len(f.XLabel)
	for _, x := range f.X {
		if len(x) > widths[0] {
			widths[0] = len(x)
		}
	}
	cells := make([][]string, len(f.Series))
	for i, s := range f.Series {
		widths[i+1] = len(s.Label)
		cells[i] = make([]string, len(s.Y))
		for j, y := range s.Y {
			cells[i][j] = formatY(y)
			if len(cells[i][j]) > widths[i+1] {
				widths[i+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0], f.XLabel)
	for i, s := range f.Series {
		fmt.Fprintf(w, "  %*s", widths[i+1], s.Label)
	}
	fmt.Fprintln(w)
	for j, x := range f.X {
		fmt.Fprintf(w, "%-*s", widths[0], x)
		for i := range f.Series {
			fmt.Fprintf(w, "  %*s", widths[i+1], cells[i][j])
		}
		fmt.Fprintln(w)
	}
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

func formatY(y float64) string {
	switch {
	case y == 0:
		return "0"
	case y >= 1000:
		return fmt.Sprintf("%.0f", y)
	case y >= 10:
		return fmt.Sprintf("%.1f", y)
	default:
		return fmt.Sprintf("%.3f", y)
	}
}

// ms converts a duration into milliseconds for plotting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Options tunes experiment cost. The defaults keep the full suite fast on a
// laptop; raising Reps or RowsPerSF sharpens steady-state numbers.
type Options struct {
	// RowsPerSF scales the generated data (default ssb.DefaultRowsPerSF for
	// user sweeps, a smaller budget for scale-factor sweeps).
	RowsPerSF int
	// Reps is how many times the workload's query mix is repeated
	// (the paper repeats 100×; the simulator is deterministic, so a few
	// repetitions reach the same steady state).
	Reps int
	// Seed feeds the data generators.
	Seed int64
}

func (o Options) rowsPerSF(def int) int {
	if o.RowsPerSF > 0 {
		return o.RowsPerSF
	}
	return def
}

func (o Options) reps(def int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	return def
}

// memos holds every generated catalog and every run sweep of the process.
var memos sync.Map // comparable key → *memoEntry

type memoEntry struct {
	once sync.Once
	v    any
}

// memo returns what run returned the first time key was asked for; callers
// asking for the same key meanwhile wait for that run. No lock is held while
// run executes, so a run may ask the memo for another key (a sweep for its
// catalogs).
func memo[T any](key any, run func() T) T {
	e, _ := memos.LoadOrStore(key, new(memoEntry))
	m := e.(*memoEntry)
	m.once.Do(func() { m.v = run() })
	return m.v.(T)
}

type catalogKey struct {
	benchmark string
	sf, rows  int
	seed      int64
}

func ssbCatalog(sf, rowsPerSF int, seed int64) *table.Catalog {
	return memo(catalogKey{"ssb", sf, rowsPerSF, seed}, func() *table.Catalog {
		return ssb.Generate(ssb.Config{SF: sf, RowsPerSF: rowsPerSF, Seed: seed})
	})
}

func tpchCatalog(sf, rowsPerSF int, seed int64) *table.Catalog {
	return memo(catalogKey{"tpch", sf, rowsPerSF, seed}, func() *table.Catalog {
		return tpch.Generate(tpch.Config{SF: sf, RowsPerSF: rowsPerSF, Seed: seed})
	})
}

// ssbWorkload adapts the SSB query list to the workload runner.
func ssbWorkload() []workload.Query {
	var qs []workload.Query
	for _, q := range ssb.Queries() {
		qs = append(qs, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	return qs
}

func tpchWorkload() []workload.Query {
	var qs []workload.Query
	for _, q := range tpch.Queries() {
		qs = append(qs, workload.Query{Name: q.Name, Plan: q.Plan})
	}
	return qs
}

// WorkloadFootprint is the working set of a workload: the total bytes of
// the distinct base columns its queries read (the quantity of Figure 16).
func WorkloadFootprint(cat *table.Catalog, queries []workload.Query) int64 {
	seen := make(map[table.ColumnID]bool)
	var total int64
	for _, q := range queries {
		for _, id := range q.Plan.BaseColumns() {
			if seen[id] {
				continue
			}
			seen[id] = true
			if b, err := cat.ColumnBytes(id); err == nil {
				total += b
			}
		}
	}
	return total
}

// mustRun executes a workload and panics on error; experiment workloads are
// static and an error always means a programming bug.
func mustRun(cat *table.Catalog, cfg exec.Config, strat workload.Strategy, spec workload.Spec) workload.Result {
	_, res, err := workload.Run(cat, cfg, strat, spec)
	if err != nil {
		panic(fmt.Sprintf("figures: %s: %v", strat.Label, err))
	}
	return res
}

// experiments is every regenerable figure in paper order, the ablations after
// the figures and the front-door extension last; benchfig all prints them in
// this order. A figure that plots one metric of a sweep per strategy is a
// panel (sweep.go); the others are functions.
var experiments = []struct {
	id    string
	build func(Options) []*Figure
}{
	{"fig1", one(fig1)},
	{"fig2", plot(panel{"fig2", "Serial selection workload, operator-driven placement (cache thrashing)",
		cacheSweep, workloadTime, []plotted{{"GPU (operator-driven)", workload.GPUOnly()}}})},
	{"fig3", plot(panel{"fig3", "Parallel selection workload, naive GPU execution (heap contention)",
		parallelSweep, workloadTime, []plotted{{"GPU (operator-driven)", workload.GPUOnly()}}})},
	{"fig5", plot(panel{"fig5", "Serial selection workload, data-driven placement",
		cacheSweep, workloadTime, labelled(workload.DataDriven())})},
	{"fig6", plot(panel{"fig6", "Serial selection workload: CPU→GPU transfer time",
		cacheSweep, transferTime, append([]plotted{{"operator-driven", workload.GPUOnly()}}, labelled(workload.DataDriven())...)})},
	{"fig7", plot(panel{"fig7", "Parallel selection workload, data-driven placement (contention remains)",
		parallelSweep, workloadTime, labelled(workload.DataDriven())})},
	{"fig9", plot(panel{"fig9", "Parallel selection workload, run-time placement",
		parallelSweep, workloadTime, labelled(workload.RunTime())})},
	{"fig12", plot(panel{"fig12", "Parallel selection workload, query chopping (near optimal)",
		parallelSweep, workloadTime, labelled(workload.Chopping(), workload.DataDrivenChopping())})},
	{"fig13", plot(panel{"fig13", "Aborted GPU operators by strategy", parallelSweep, aborts,
		append([]plotted{{"GPU (compile-time)", workload.GPUOnly()}}, labelled(workload.RunTime(), workload.Chopping())...)})},
	{"fig14", plot(
		panel{"fig14a", "SSBM workload time vs scale factor", sfSweep(ssbBench), workloadTime, everyStrategy},
		panel{"fig14b", "TPC-H (Q2–Q7) workload time vs scale factor", sfSweep(tpchBench), workloadTime, everyStrategy})},
	{"fig15", plot(
		panel{"fig15a", "SSBM CPU→GPU transfer time vs scale factor", sfSweep(ssbBench), transferTime, everyStrategy},
		panel{"fig15b", "TPC-H CPU→GPU transfer time vs scale factor", sfSweep(tpchBench), transferTime, everyStrategy})},
	{"fig16", one(fig16)},
	{"fig17", one(fig17)},
	{"fig18", plot(
		panel{"fig18a", "SSBM workload time vs parallel users (SF 10)", usersSweep(ssbBench), workloadTime, everyStrategy},
		panel{"fig18b", "TPC-H workload time vs parallel users (SF 10)", usersSweep(tpchBench), workloadTime, everyStrategy})},
	{"fig19", plot(
		panel{"fig19a", "SSBM CPU→GPU transfer time vs parallel users", usersSweep(ssbBench), transferTime, everyStrategy},
		panel{"fig19b", "TPC-H CPU→GPU transfer time vs parallel users", usersSweep(tpchBench), transferTime, everyStrategy})},
	{"fig20", plot(panel{"fig20", "SSBM wasted time by aborted GPU operators", usersSweep(ssbBench), wastedTime, everyStrategy})},
	{"fig21", one(fig21)},
	{"fig22", one(comparator("fig22", "TPC-H queries: operator-at-a-time vs vectorized backend (SF 10)", tpchBench, "Q2"))},
	{"fig23", one(comparator("fig23", "SSB queries: operator-at-a-time vs vectorized backend (SF 10)", ssbBench, "Q2.2"))},
	{"fig24", one(fig24)},
	{"fig25", one(fig25)},
	{"ablate-abortsync", one(ablateAbortSync)},
	{"ablate-compression", one(ablateCompression)},
	{"ablate-faultrate", one(ablateFaultRate)},
	{"ablate-overlap", one(ablateOverlap)},
	{"ablate-poolsize", one(ablatePoolSize)},
	{"admission-overload", AdmissionOverload},
}

func one(build func(Options) *Figure) func(Options) []*Figure {
	return func(o Options) []*Figure { return []*Figure{build(o)} }
}

// All returns every figure regenerator keyed by id, for cmd/benchfig.
func All() map[string]func(Options) []*Figure {
	all := make(map[string]func(Options) []*Figure, len(experiments))
	for _, e := range experiments {
		all[e.id] = e.build
	}
	return all
}

// IDs returns the figure ids in paper order, with the ablation experiments
// after the figures.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
