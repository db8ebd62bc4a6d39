package figures

import (
	"fmt"

	"robustdb/internal/cost"
	"robustdb/internal/vecengine"
	"robustdb/internal/workload"
)

// comparator builds the Appendix A comparison (Figures 22/23): each of the
// benchmark's queries at SF 10, single user, on the operator-at-a-time engine
// ("CoGaDB") and on the vectorized backend ("Ocelot*", the comparator
// substitute of DESIGN.md §2), each with a CPU and a hot-cache GPU
// configuration. The omitted query is the one the paper omits because Ocelot
// does not support it.
func comparator(id, title string, b benchmark, omit string) func(Options) *Figure {
	return func(o Options) *Figure {
		cat := b.catalog(10, o.rowsPerSF(macroRowsPerSF), o.Seed)
		cfg := macroDeviceConfig(o, b)
		f := &Figure{
			ID:     id,
			Title:  title,
			XLabel: "query",
			YLabel: "mean query time [ms]",
			Series: []Series{{Label: "CoGaDB CPU"}, {Label: "CoGaDB GPU"}, {Label: "Ocelot* CPU"}, {Label: "Ocelot* GPU"}},
		}
		params := cost.DefaultParams()
		vec := vecengine.New(cat, 0)
		for _, q := range b.queries() {
			if q.Name == omit {
				continue
			}
			f.X = append(f.X, q.Name)
			spec := workload.Spec{Queries: []workload.Query{q}, Users: 1, TotalQueries: o.reps(2)}
			for i, s := range []workload.Strategy{workload.CPUOnly(), workload.GPUOnly()} {
				res := mustRun(cat, cfg, s, spec)
				f.Series[i].Y = append(f.Series[i].Y, ms(res.MeanLatency(q.Name)))
			}
			if err := q.Plan.EstimateSizes(cat); err != nil {
				panic(fmt.Sprintf("figures: estimate %s: %v", q.Name, err))
			}
			_, stats, err := vec.Execute(q.Plan)
			if err != nil {
				panic(fmt.Sprintf("figures: vectorized %s: %v", q.Name, err))
			}
			for i, proc := range []cost.ProcKind{cost.CPU, cost.GPU} {
				f.Series[2+i].Y = append(f.Series[2+i].Y, ms(vecengine.EstimateTime(q.Plan, stats, params, proc, cat)))
			}
		}
		return f
	}
}
