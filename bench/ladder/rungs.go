package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/journal"
	"robustdb/internal/par"
	"robustdb/internal/plan"
	"robustdb/internal/server"
	"robustdb/internal/sql"
	"robustdb/internal/table"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

// compile is what the front door does on a plan-cache miss.
func compile(cat *table.Catalog, text string) (*plan.Plan, error) {
	pl, err := sql.PlanQuery(cat, text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", text, err)
	}
	return pl, pl.EstimateSizes(cat)
}

// timedPlacer wraps a strategy's placer to count its decisions and time them.
// It must not change a single decision; the traced batch round checks that
// by reproducing the unwrapped makespans exactly.
type timedPlacer struct {
	exec.Placer
	calls int64
	busy  time.Duration
}

func (t *timedPlacer) CompileTime(e *exec.Engine, p *plan.Plan) map[int]cost.ProcKind {
	t0 := now()
	out := t.Placer.CompileTime(e, p)
	t.busy += now().Sub(t0)
	t.calls++
	return out
}

func (t *timedPlacer) RunTime(e *exec.Engine, n *plan.Node, inputs []*exec.Value) cost.ProcKind {
	t0 := now()
	out := t.Placer.RunTime(e, n, inputs)
	t.busy += now().Sub(t0)
	t.calls++
	return out
}

// fullTracer returns a tracer whose span ring has already wrapped: the state
// of a server that has been up for a while. The slow-query journal scans the
// whole ring for every query it records, so its tax depends on how full the
// ring is; measuring at a full ring measures the steady state.
func fullTracer() *trace.Tracer {
	tr := trace.New(0)
	for i := 0; i < trace.DefaultCapacity; i++ {
		tr.Span(trace.Span{Query: "warm"})
	}
	return tr
}

// buildRungs sets up one engine per rung that needs its own (a simulator
// belongs to whoever runs it: the ladder directly, or one host pump) and
// registers the rungs bottom-up.
func (l *ladder) buildRungs(warm []workload.Query) error {
	l.byName = map[string]*rung{}
	tracer := fullTracer()
	newEngine := func(tr *trace.Tracer) (*exec.Engine, error) {
		dev := l.dev
		dev.Tracer = tr
		return workload.NewEngine(l.cat, dev, l.strat, warm)
	}

	ctx := engine.NewCtx(par.New(l.spec.KernelWorkers))
	l.add("R1.plan_execute", "plan", func(i int) error {
		_, err := execute(ctx, l.cat, l.plans[i].Root)
		return err
	})

	untraced, err := newEngine(nil)
	if err != nil {
		return err
	}
	l.add("R2.run_query.untraced", "exec", func(i int) error { return runQuery(untraced, l.plans[i], l.strat.Placer) })
	traced, err := newEngine(tracer)
	if err != nil {
		return err
	}
	l.add("R2.run_query", "exec", func(i int) error { return runQuery(traced, l.plans[i], l.strat.Placer) })

	l.timed = &timedPlacer{Placer: l.strat.Placer}
	placed, err := newEngine(tracer)
	if err != nil {
		return err
	}
	l.add("R2.run_query.timed_placer", "placer", func(i int) error { return runQuery(placed, l.plans[i], l.timed) })

	fresh := l.dev
	fresh.Tracer = tracer
	l.add("R3.workload_run", "workload", func(i int) error {
		_, _, err := workload.Run(l.cat, fresh, l.strat, workload.Spec{Queries: []workload.Query{{Name: "q", Plan: l.plans[i]}}, Users: 1})
		return err
	})
	if l.texts == nil {
		return nil // the batch workload has no server layers
	}

	hosted, err := newEngine(tracer)
	if err != nil {
		return err
	}
	host := server.NewHost(hosted, l.strat.Placer)
	l.closer = append(l.closer, func() error { host.Close(); return nil })
	l.add("R4.host_run", "server", func(i int) error {
		_, _, err := host.Run(l.plans[i], exec.QueryOpts{})
		return err
	})

	// Two front doors: journal off, and the default journal a user gets
	// (256 entries, 100 ms, q-error 16). Submit carries no SQL text, which
	// skips the plan-explaining half of a journal record, so the journal's
	// tax is taken where the text is present: at SubmitSQL.
	bg := context.Background()
	newServer := func(j *journal.Journal) (*server.Server, error) {
		e, err := newEngine(tracer)
		if err != nil {
			return nil, err
		}
		s, err := server.New(server.Config{Engine: e, Placer: l.strat.Placer, Catalog: l.cat, Journal: j})
		if err != nil {
			return nil, err
		}
		l.closer = append(l.closer, func() error { return s.Drain(bg) })
		for _, text := range l.texts { // fill the plan cache: the rungs measure hits
			if _, err := s.SubmitSQL(bg, "bench", 0, text, 0); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	quiet, err := newServer(nil)
	if err != nil {
		return err
	}
	l.add("R5.submit", "admission", func(i int) error {
		_, err := quiet.Submit(bg, "bench", 0, l.plans[i], 0)
		return err
	})
	l.add("R6.submit_sql.journal_off", "server", func(i int) error {
		_, err := quiet.SubmitSQL(bg, "bench", 0, l.texts[i], 0)
		return err
	})
	front, err := newServer(journal.New(0, 100*time.Millisecond, 16))
	if err != nil {
		return err
	}
	l.add("R6.submit_sql", "journal", func(i int) error {
		_, err := front.SubmitSQL(bg, "bench", 0, l.texts[i], 0)
		return err
	})

	bodies := make([][]byte, len(l.texts))
	for i, text := range l.texts {
		if bodies[i], err = json.Marshal(map[string]string{"tenant": "bench", "sql": text}); err != nil {
			return err
		}
	}
	handler := front.Handler()
	l.add("R7.serve_http", "server", func(i int) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	})
	ts := httptest.NewServer(handler)
	l.closer = append(l.closer, func() error { ts.Close(); return nil })
	l.add("R8.round_trip", "http", func(i int) error {
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return err
	})

	// The calls no rung isolates: what a plan-cache miss adds to a request.
	var st *sql.Statement
	var pl *plan.Plan
	l.add("sql.parse", "sql", func(i int) (err error) { st, err = sql.Parse(l.texts[i]); return err })
	l.add("sql.parse+compile", "sql", func(i int) (err error) {
		if st, err = sql.Parse(l.texts[i]); err == nil {
			pl, err = sql.Compile(l.cat, st)
		}
		return err
	})
	l.add("sql.parse+compile+estimate", "plan", func(i int) (err error) {
		if st, err = sql.Parse(l.texts[i]); err == nil {
			if pl, err = sql.Compile(l.cat, st); err == nil {
				err = pl.EstimateSizes(l.cat)
			}
		}
		return err
	})
	return nil
}

// taxes turns rung medians into per-layer metrics: rung N+1 − rung N is that
// layer's tax.
func (l *ladder) taxes() {
	m := l.rep.Metrics
	m["plan.kernel_us"] = l.medianUS("R1.plan_execute")
	l.diff("exec.tax_us", "R2.run_query", "R1.plan_execute")
	l.diff("workload.engine_build_us", "R3.workload_run", "R2.run_query")
	l.diff("server.host_tax_us", "R4.host_run", "R2.run_query")
	l.diff("admission.tax_us", "R5.submit", "R4.host_run")
	l.diff("server.plancache_hit_us", "R6.submit_sql.journal_off", "R5.submit")
	l.diff("journal.tax_us", "R6.submit_sql", "R6.submit_sql.journal_off")
	l.diff("server.codec_us", "R7.serve_http", "R6.submit_sql")
	l.diff("http.transport_us", "R8.round_trip", "R7.serve_http")
	m["sql.parse_us"] = l.medianUS("sql.parse")
	l.diff("sql.compile_us", "sql.parse+compile", "sql.parse")
	l.diff("plan.estimate_us", "sql.parse+compile+estimate", "sql.parse+compile")
	if l.texts != nil { // the batch workload takes it from whole passes instead
		l.ratioOf("trace.overhead_ratio", "R2.run_query", "R2.run_query.untraced")
		r2, r7, r8 := l.medianUS("R2.run_query"), l.medianUS("R7.serve_http"), l.medianUS("R8.round_trip")
		l.rep.Shares = map[string]float64{"front_door": (r8 - r2) / r8, "kernel": m["plan.kernel_us"] / r7}
	}
	queries := float64(len(l.byName["R2.run_query.timed_placer"].samples) * len(l.plans))
	m["placer.calls"] = float64(l.timed.calls) / queries
	m["placer.decide_us"] = float64(l.timed.busy) / float64(time.Microsecond) / queries
}
