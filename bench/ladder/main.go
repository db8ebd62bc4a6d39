// Command ladder is the traced pass's in-process half: it runs one
// workload's own statements through the system one layer at a time — kernel,
// plan, engine, workload runner, host pump, front door, HTTP handler,
// loopback socket — single-threaded, and reports each layer's tax as the
// difference of adjacent rung medians. It also times the calls no rung
// isolates (parse, compile, estimate, preload, generate) and, for the batch
// workload, makes one traced round to fold the engine's own virtual-time
// spans and counters into metrics.
//
// It is the one benchmark program allowed to import robustdb/internal/...;
// the harness in the parent directory runs it as a child process of traced
// passes only, so a refactor of internals can break this program but never
// the end-to-end numbers. It reads a ladderspec.Spec on stdin and writes a
// ladderspec.Report to stdout.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"robustdb"
	"robustdb/bench/ladderspec"
	"robustdb/internal/column"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/expr"
	"robustdb/internal/par"
	"robustdb/internal/placement"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
	"robustdb/internal/table"
	"robustdb/internal/workload"
)

func now() time.Time {
	//lint:ignore virtualtime the benchmark ladder measures wall-clock time by definition
	return time.Now()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ladder: ")
	var sp ladderspec.Spec
	if err := json.NewDecoder(os.Stdin).Decode(&sp); err != nil {
		log.Fatalf("reading spec: %v", err)
	}
	l := &ladder{spec: sp, origin: now(), rep: ladderspec.Report{Metrics: map[string]float64{}}}
	if err := l.run(); err != nil {
		log.Fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(&l.rep); err != nil {
		log.Fatal(err)
	}
}

// rung is one way of running the workload's statements; a sample is the mean
// wall time per statement of one pass over all of them, in microseconds.
type rung struct {
	name, layer string
	pass        func() error
	samples     []float64
}

type ladder struct {
	spec   ladderspec.Spec
	origin time.Time
	rep    ladderspec.Report

	db     *robustdb.DB
	cat    *table.Catalog
	dev    exec.Config
	strat  workload.Strategy
	texts  []string // SQL texts; nil for the batch workload
	plans  []*plan.Plan
	rungs  []*rung
	byName map[string]*rung
	timed  *timedPlacer // the placer of rung R2.run_query.timed_placer
	closer []func() error
}

func (l *ladder) run() error {
	sp := l.spec
	cfg := robustdb.SSBConfig{SF: sp.SF, RowsPerSF: sp.Rows, Seed: sp.Seed}
	l.rep.Metrics["ssb.generate_ms"] = medianOf(l.reps(3), func() { l.db = robustdb.OpenSSB(cfg) }) / 1000
	l.cat = l.db.Catalog()
	l.strat = workload.DataDrivenChopping()
	l.rep.Metrics["column.compress_ratio"] = float64(l.db.TotalBytes()) / float64(l.db.Compressed().TotalBytes())

	queries := robustdb.SSBQueries()
	if len(sp.Statements) == 0 {
		// The batch device: cache = half the working set, heap twice that.
		cache := l.db.WorkingSet(queries) / 2
		l.dev = exec.Config{CacheBytes: cache, HeapBytes: 2 * cache}
		for _, q := range queries {
			l.plans = append(l.plans, q.Plan)
		}
	} else {
		// cmd/robustdb's sizing: -cache-frac of the database, heap = database.
		l.dev = exec.Config{
			CacheBytes: int64(sp.CacheFrac * float64(l.db.TotalBytes())),
			HeapBytes:  l.db.TotalBytes(),
		}
		l.texts = sp.Statements
		for _, text := range sp.Statements {
			pl, err := compile(l.cat, text)
			if err != nil {
				return err
			}
			l.plans = append(l.plans, pl)
		}
	}
	l.dev.KernelWorkers, l.dev.PipelineDepth, l.dev.PipelineCoExec = sp.KernelWorkers, 2, true

	if err := l.kernels(); err != nil {
		return err
	}
	if err := l.preload(queries); err != nil {
		return err
	}
	if err := l.buildRungs(queries); err != nil {
		return err
	}
	if err := l.climb(); err != nil {
		return err
	}
	l.taxes()
	for _, c := range l.closer {
		if err := c(); err != nil {
			return err
		}
	}
	if len(sp.Statements) == 0 {
		return l.tracedRound(queries)
	}
	return nil
}

// reps is n repeats, or one in quick mode.
func (l *ladder) reps(n int) int {
	if l.spec.Quick {
		return 1
	}
	return n
}

// medianOf runs fn n times and returns the median wall time in microseconds.
func medianOf(n int, fn func()) float64 {
	var us []float64
	for i := 0; i < n; i++ {
		t0 := now()
		fn()
		us = append(us, float64(now().Sub(t0))/float64(time.Microsecond))
	}
	sort.Float64s(us)
	return us[len(us)/2]
}

// kernels is rung 0: the three kernels called directly on the workload's own
// lineorder and date columns, and the group-by again on one worker for
// par.speedup.
func (l *ladder) kernels() error {
	lo, err := l.cat.Table("lineorder")
	if err != nil {
		return err
	}
	date, err := l.cat.Table("date")
	if err != nil {
		return err
	}
	fact, dim := engine.FromTable(lo), engine.FromTable(date)
	rows := float64(fact.NumRows())
	ctx := engine.NewCtx(par.New(l.spec.KernelWorkers))
	serial := engine.NewCtx(par.New(1))
	groupBy := func(c *engine.Ctx) func() {
		return func() {
			_, err = engine.GroupBy(c, fact, []string{"lo_quantity"}, []engine.AggSpec{{Func: engine.Sum, Col: "lo_revenue", As: "revenue"}})
		}
	}
	// Enough repeats that even a 6000-row kernel call adds up to a
	// measurable time; five on the large tables.
	reps := l.reps(min(200, max(5, 2_000_000/fact.NumRows())))
	filter := medianOf(reps, func() {
		var pos column.PosList
		if pos, err = engine.Filter(ctx, fact, expr.NewCmp("lo_quantity", expr.LT, int64(25))); err == nil {
			par.PutPos(pos)
		}
	})
	join := medianOf(reps, func() { _, err = engine.HashJoin(ctx, dim, "d_datekey", fact, "lo_orderdate") })
	group := medianOf(reps, groupBy(ctx))
	group1 := medianOf(reps, groupBy(serial))
	if err != nil {
		return fmt.Errorf("kernel rung: %w", err)
	}
	l.rep.Metrics["engine.filter_ns_per_row"] = filter * 1000 / rows
	l.rep.Metrics["engine.hashjoin_ns_per_row"] = join * 1000 / rows
	l.rep.Metrics["engine.groupby_ns_per_row"] = group * 1000 / rows
	l.rep.Metrics["par.speedup"] = group1 / group
	return nil
}

// preload times Algorithm 1 plus the instant cache fill on a fresh engine —
// the data-placement part of a server's or a pass's set-up.
func (l *ladder) preload(warm []workload.Query) error {
	var err error
	us := medianOf(l.reps(3), func() {
		e := exec.New(l.cat, l.dev)
		mgr := placement.NewManager(l.strat.PlacementPolicy)
		for _, q := range warm {
			mgr.Tracker.Record(q.Plan.BaseColumns()...)
		}
		err = mgr.ApplyInstant(e, mgr.Desired(l.cat, e.Cache.Capacity()), l.strat.DataDriven)
	})
	l.rep.Metrics["placement.preload_ms"] = us / 1000
	return err
}

// execute is rung 1: the whole plan through Operator.Execute, no simulator.
func execute(ctx *engine.Ctx, cat *table.Catalog, n *plan.Node) (*engine.Batch, error) {
	var inputs []*engine.Batch
	for _, c := range n.Children {
		in, err := execute(ctx, cat, c)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	return n.Op.Execute(ctx, cat, inputs)
}

// runQuery is rung 2: exec.Engine.RunQuery inside Sim.Spawn / Sim.Run.
func runQuery(e *exec.Engine, pl *plan.Plan, placer exec.Placer) error {
	var err error
	e.Sim.Spawn("ladder", func(p *sim.Proc) { _, _, err = e.RunQuery(p, pl, placer) })
	e.Sim.Run()
	return err
}

// add registers a rung whose pass runs one(i) for every statement i.
func (l *ladder) add(name, layer string, one func(i int) error) {
	r := &rung{name: name, layer: layer}
	r.pass = func() error {
		for i := range l.plans {
			if err := one(i); err != nil {
				return fmt.Errorf("%s: statement %d: %w", name, i, err)
			}
		}
		return nil
	}
	l.rungs = append(l.rungs, r)
	l.byName[name] = r
}

// climb runs one pass of every rung per round, so machine noise spreads over
// all rungs alike, until the budget is spent. Each round takes the rungs in a
// new seed-shuffled order: a round allocates the same amount every time, so
// in a fixed order the garbage collector would fall into step with the
// rounds and bill its cycles to the same rungs again and again.
func (l *ladder) climb() error {
	deadline := now().Add(time.Duration(l.spec.BudgetMS) * time.Millisecond)
	if l.spec.Quick {
		deadline = now()
	}
	rng := rand.New(rand.NewSource(l.spec.Seed))
	order := append([]*rung(nil), l.rungs...)
	for round := 1; round == 1 || now().Before(deadline); round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, r := range order {
			t0 := now()
			if err := r.pass(); err != nil {
				return err
			}
			t1 := now()
			r.samples = append(r.samples, float64(t1.Sub(t0))/float64(time.Microsecond)/float64(len(l.plans)))
			l.rep.Spans = append(l.rep.Spans, ladderspec.Span{
				Request: round, Layer: r.layer, Name: r.name,
				StartNS: int64(t0.Sub(l.origin)), EndNS: int64(t1.Sub(l.origin)),
			})
		}
	}
	for _, r := range l.rungs {
		p25, med, p75 := quartiles(r.samples)
		l.rep.Rungs = append(l.rep.Rungs, ladderspec.Rung{Name: r.name, Layer: r.layer, Samples: len(r.samples), P25US: p25, MedianUS: med, P75US: p75})
	}
	return nil
}

func quartiles(samples []float64) (p25, med, p75 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return at(0.25), at(0.5), at(0.75)
}

// diff reports median(upper) − median(lower) under name: that layer's tax.
// A difference smaller than the spread of its two medians — the sum of their
// standard errors, about IQR/√n each — is unresolved and reports 0, never a
// negative tax.
func (l *ladder) diff(name, upper, lower string) {
	up, lo := l.byName[upper], l.byName[lower]
	if up == nil || lo == nil {
		l.rep.Metrics[name] = 0 // the layer is absent on this workload
		return
	}
	up25, upMed, up75 := quartiles(up.samples)
	lo25, loMed, lo75 := quartiles(lo.samples)
	spread := (up75-up25)/math.Sqrt(float64(len(up.samples))) + (lo75-lo25)/math.Sqrt(float64(len(lo.samples)))
	d := upMed - loMed
	if d <= spread {
		l.rep.Unresolved = append(l.rep.Unresolved, name)
		d = 0
	}
	l.rep.Metrics[name] = d
}

// ratioOf is diff for a ratio: unresolved reports 1.
func (l *ladder) ratioOf(name, upper, lower string) {
	l.diff(name, upper, lower)
	if l.rep.Metrics[name] == 0 {
		l.rep.Metrics[name] = 1
		return
	}
	_, upMed, _ := quartiles(l.byName[upper].samples)
	_, loMed, _ := quartiles(l.byName[lower].samples)
	l.rep.Metrics[name] = upMed / loMed
}

func (l *ladder) medianUS(name string) float64 {
	r := l.byName[name]
	if r == nil {
		return 0
	}
	_, med, _ := quartiles(r.samples)
	return med
}
