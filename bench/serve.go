package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"
)

// runServe measures one serve workload: oracle, set-up (repeated, so setup_s
// is a median), the measured window between two scrapes, then — in a traced
// pass — replay, span tail, slow-log and the ladder. It returns the metric
// values of the requested mode by name.
func runServe(cfg *runConfig, w *serveWorkload, res *passResult) (map[string]float64, error) {
	orc, err := newOracle(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	warmup, repeats := w.warmup, setupRepeats
	if res.Traced {
		repeats = 1 // setup_s is an end-to-end metric; a traced pass sets up once
	}
	if cfg.quick {
		warmup, repeats = 20, 1
	}
	logPath := filepath.Join(cfg.outDir, w.name+".server.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil { // this run's servers append to a fresh log
		return nil, err
	}

	// Set-up: spawn → dataset built, cache preloaded, /healthz 200 → warm-up
	// finished. Every repeat starts a fresh process, because a server's
	// speed depends on its age in queries; the last one stays for the window.
	var srv *serverProc
	var sess []*session
	var setups []float64
	for i := 0; i < repeats; i++ {
		t0 := now()
		if srv, err = startServer(binPath(cfg.root, "robustdb"), w, cfg.seed, logPath); err != nil {
			return nil, err
		}
		sess = newSessions(sessions, w, orc, srv.url, cfg.seed)
		warm := runPhase(sess, func(sent int) bool { return sent >= warmup/sessions })
		setups = append(setups, now().Sub(t0).Seconds())
		if warm.ok() != warm.sent {
			stopErr := srv.stop()
			return nil, fmt.Errorf("warm-up: %d of %d requests failed, first: %v (stop: %v)", warm.sent-warm.ok(), warm.sent, warm.firstErr, stopErr)
		}
		if i < repeats-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	rec := newSpanRecorder() // used by traced passes only
	values, err := measureServe(cfg, w, res, srv, sess, rec)
	if stopErr := srv.stop(); stopErr != nil {
		res.Problems = append(res.Problems, stopErr.Error())
	}
	if err != nil {
		return nil, err
	}
	if res.Traced {
		return values, serveLadder(cfg, w, res, rec, values)
	}
	values["setup_s"] = median(setups)
	res.Detail["setup_s_samples"] = setups
	return values, nil
}

// measureServe runs the window on a warmed-up server and derives the metrics.
func measureServe(cfg *runConfig, w *serveWorkload, res *passResult, srv *serverProc, sess []*session, rec *spanRecorder) (map[string]float64, error) {
	before, err := srv.snapshot(false, res.Traced)
	if err != nil {
		return nil, err
	}
	start := now()
	deadline := start.Add(cfg.window)
	win := runPhase(sess, func(int) bool { return !now().Before(deadline) })
	elapsed := now().Sub(start)
	after, err := srv.snapshot(true, res.Traced)
	if err != nil {
		return nil, err
	}

	res.Attempted = win.sent
	res.Failed = win.sent - win.ok()
	if win.firstErr != nil {
		log.Printf("%s: first failure: %v", w.name, win.firstErr)
	}
	if win.wrong > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d wrong results, first: %v", win.wrong, win.firstErr))
	}
	if win.ok() == 0 {
		return nil, fmt.Errorf("no request completed in the window: %v", win.firstErr)
	}
	var wall, vt []float64
	for _, s := range win.samples {
		wall = append(wall, s.wallMS)
		vt = append(vt, s.vtMS)
	}
	ok := float64(win.ok())
	res.Detail["samples"] = win.ok()
	res.Detail["qps_per_second"] = throughputSeries(win.samples, elapsed)

	if !res.Traced {
		return map[string]float64{
			"throughput_qps":   ok / elapsed.Seconds(),
			"wall_p50_ms":      percentile(wall, 50),
			"cpu_ms_per_query": (after.cpuSeconds - before.cpuSeconds) * 1000 / ok,
			"vt_ms_per_query":  mean(vt),
		}, nil
	}
	// A traced pass: the window's counters, then — still on the running
	// server — the traced replay, its span tail and its slow-log. The ladder
	// follows once the server has stopped.
	v := serveCounters(res, &win, elapsed, before, after)
	replay(cfg, w, res, srv, sess[0].orc, rec, v)
	if err := spanTail(srv, v); err != nil {
		return nil, err
	}
	return v, slowLog(srv, v)
}

// throughputSeries counts a phase's completions second by second (the last,
// partial second is dropped).
func throughputSeries(samples []sample, elapsed time.Duration) []float64 {
	series := make([]float64, int(elapsed/time.Second))
	for _, s := range samples {
		if i := int(s.end / time.Second); i < len(series) {
			series[i]++
		}
	}
	return series
}
