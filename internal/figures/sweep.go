package figures

import (
	"fmt"
	"slices"

	"robustdb/internal/workload"
)

// A sweep runs one experiment at each of its x values under a strategy. It
// is deterministic in (sweep, strategy, options), so the figures that share
// one (2/5/6, 3/7/9/12/13, 14/15/17, 18/19/20) run it once.
type sweep struct {
	name, xlabel string
	xs           []string
	run          func(Options, workload.Strategy) []workload.Result
}

type sweepKey struct {
	sweep, strategy string
	o               Options
}

func (s sweep) results(o Options, strat workload.Strategy) []workload.Result {
	return memo(sweepKey{s.name, strat.Label, o}, func() []workload.Result { return s.run(o, strat) })
}

// A metric is what a panel reads off each run, with its y-axis label.
type metric struct {
	label string
	of    func(workload.Result) float64
}

var (
	workloadTime = metric{"workload execution time [ms]", func(r workload.Result) float64 { return ms(r.WorkloadTime) }}
	transferTime = metric{"transfer time [ms]", func(r workload.Result) float64 { return ms(r.H2DTime) }}
	wastedTime   = metric{"wasted time [ms]", func(r workload.Result) float64 { return ms(r.WastedTime) }}
	aborts       = metric{"aborted operators", func(r workload.Result) float64 { return float64(r.Aborts) }}
)

// plotted is one series of a panel: a strategy under a legend label.
type plotted struct {
	label string
	strat workload.Strategy
}

// labelled plots the strategies under their own labels.
func labelled(strats ...workload.Strategy) []plotted {
	out := make([]plotted, len(strats))
	for i, s := range strats {
		out[i] = plotted{s.Label, s}
	}
	return out
}

// seriesOf starts one empty series a strategy, under its label.
func seriesOf(strats []workload.Strategy) []Series {
	out := make([]Series, len(strats))
	for i, s := range strats {
		out[i].Label = s.Label
	}
	return out
}

// everyStrategy is the six strategies of Figures 14–21 in plot order.
var everyStrategy = labelled(workload.AllStrategies()...)

// A panel is a figure that plots one metric of a sweep, one series a
// strategy.
type panel struct {
	id, title string
	sweep     sweep
	metric    metric
	series    []plotted
}

func (p panel) figure(o Options) *Figure {
	f := &Figure{ID: p.id, Title: p.title, XLabel: p.sweep.xlabel, YLabel: p.metric.label, X: slices.Clone(p.sweep.xs)}
	for _, s := range p.series {
		var ys []float64
		for _, r := range p.sweep.results(o, s.strat) {
			ys = append(ys, p.metric.of(r))
		}
		f.Series = append(f.Series, Series{Label: s.label, Y: ys})
	}
	return f
}

// plot regenerates the panels of one figure id.
func plot(panels ...panel) func(Options) []*Figure {
	return func(o Options) []*Figure {
		figs := make([]*Figure, len(panels))
		for i, p := range panels {
			figs[i] = p.figure(o)
		}
		return figs
	}
}

// format renders sweep values as x tick labels.
func format[T any](verb string, vs ...T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf(verb, v)
	}
	return out
}
