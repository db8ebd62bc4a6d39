package main

import (
	"fmt"
	"time"

	"robustdb/bench/ladderspec"
	"robustdb/internal/column"
	"robustdb/internal/exec"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

func strategyByLabel(label string) (workload.Strategy, error) {
	for _, s := range workload.AllStrategies() {
		if s.Label == label {
			return s, nil
		}
	}
	return workload.Strategy{}, fmt.Errorf("no strategy labelled %q", label)
}

// tracedRound repeats the batch round once with Device.Tracer set and the
// placer wrapped, and folds what only the engine knows — its cache, heap and
// pipeline counters and the virtual-time operator spans — into per-round
// totals. It then alternates traced and untraced passes of the strategy under
// test for trace.overhead_ratio.
func (l *ladder) tracedRound(queries []workload.Query) error {
	m := l.rep.Metrics
	spec := workload.Spec{Queries: queries, Users: l.spec.Users, TotalQueries: l.spec.TotalQueries}
	compressed := l.db.Compressed().Catalog()
	run := func(p ladderspec.Pass, tr *trace.Tracer, wrap bool) (*timedPlacer, *workloadRun, error) {
		strat, err := strategyByLabel(p.Strategy)
		if err != nil {
			return nil, nil, err
		}
		timed := &timedPlacer{Placer: strat.Placer}
		if wrap {
			strat.Placer = timed
		}
		cat := l.cat
		if p.Compressed {
			cat = compressed
		}
		dev := l.dev
		dev.Tracer = tr
		t0 := now()
		e, res, err := workload.Run(cat, dev, strat, spec)
		return timed, &workloadRun{e: e, res: res, wall: now().Sub(t0)}, err
	}

	var hits, misses, overlapSum, overlapCount, spans float64
	var queueWait, transfer, runTime time.Duration
	var calls int64
	var busy time.Duration
	decompressed := column.DecompressedBytes()
	for _, name := range []string{"cache.evictions", "cache.readmits", "cache.failed_inserts", "device.heap_high_water_mb",
		"exec.pipelined_ops", "exec.pipeline_chunks", "exec.pipeline_cpu_chunks", "exec.q_error_max", "engine.morsels", "trace.spans_dropped"} {
		m[name] = 0
	}
	for _, p := range l.spec.Passes {
		tr := trace.New(0)
		timed, r, err := run(p, tr, true)
		if err != nil {
			return fmt.Errorf("traced %s pass: %w", p.Strategy, err)
		}
		if got := int64(r.res.WorkloadTime); got != p.MakespanNS {
			l.rep.Problems = append(l.rep.Problems, fmt.Sprintf("traced %s pass: makespan %d ns, the untraced pass had %d ns: tracer or placer wrapper changed virtual time", p.Strategy, got, p.MakespanNS))
		}
		em := r.e.Metrics
		hits += float64(em.CacheHits.Load())
		misses += float64(em.CacheMisses.Load())
		m["cache.evictions"] += float64(em.CacheEvictions.Load())
		m["cache.readmits"] += float64(em.CacheReadmits.Load())
		m["cache.failed_inserts"] += float64(em.CacheFailedInserts.Load())
		m["device.heap_high_water_mb"] = max(m["device.heap_high_water_mb"], float64(r.e.Heap.HighWater())/1e6)
		m["exec.pipelined_ops"] += float64(em.PipelinedOps.Load())
		m["exec.pipeline_chunks"] += float64(em.PipelineChunks.Load())
		m["exec.pipeline_cpu_chunks"] += float64(em.PipelineCPUChunks.Load())
		m["exec.q_error_max"] = max(m["exec.q_error_max"], em.QErrorMax.Load())
		m["engine.morsels"] += float64(em.KernelMorsels.Load())
		overlapSum += em.QueryOverlapRatio.Sum()
		overlapCount += float64(em.QueryOverlapRatio.Count())
		dropped, _ := tr.Dropped()
		m["trace.spans_dropped"] += float64(dropped)
		for _, s := range tr.Spans() {
			if s.Class == "query" {
				continue
			}
			spans++
			queueWait += s.QueueWait
			transfer += s.Transfer
			runTime += s.Duration()
		}
		calls += timed.calls
		busy += timed.busy
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	queriesRun := float64(len(l.spec.Passes) * l.spec.TotalQueries)
	m["cache.hit_ratio"] = hits / (hits + misses)
	m["exec.overlap_ratio_mean"] = 0
	if overlapCount > 0 {
		m["exec.overlap_ratio_mean"] = overlapSum / overlapCount
	}
	m["column.decompress_mb"] = float64(column.DecompressedBytes()-decompressed) / 1e6
	m["exec.vt_queue_wait_ms"] = ms(queueWait) / spans
	m["exec.vt_transfer_ms"] = ms(transfer) / spans
	m["exec.vt_run_ms"] = ms(runTime) / spans
	m["placer.calls"] = float64(calls) / queriesRun
	m["placer.decide_us"] = float64(busy) / float64(time.Microsecond) / queriesRun

	// Tracing overhead on the strategy under test: the same pass with and
	// without a tracer, alternating so drift hits both alike.
	var on, off []float64
	for _, p := range l.spec.Passes {
		if p.Strategy != l.strat.Label || p.Compressed {
			continue
		}
		for i := 0; i < l.reps(3); i++ {
			for _, tr := range []*trace.Tracer{trace.New(0), nil} {
				_, r, err := run(p, tr, false)
				if err != nil {
					return err
				}
				if tr != nil {
					on = append(on, ms(r.wall))
				} else {
					off = append(off, ms(r.wall))
				}
			}
		}
	}
	traced, untraced := &rung{samples: on}, &rung{samples: off}
	l.byName["pass.traced"], l.byName["pass.untraced"] = traced, untraced
	l.ratioOf("trace.overhead_ratio", "pass.traced", "pass.untraced")
	return nil
}

// workloadRun is one finished workload.Run.
type workloadRun struct {
	e    *exec.Engine
	res  workload.Result
	wall time.Duration
}
