package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"robustdb"
	"robustdb/internal/admission"
	"robustdb/internal/journal"
	"robustdb/internal/obs"
	"robustdb/internal/server"
	"robustdb/internal/workload"
)

// runServe runs the query front door on addr: POST /v1/query admits
// tenant-tagged SQL into the engine under the configured admission policy,
// POST /v1/explain describes a statement's plan without running it,
// /debug/admission exposes the controller state, and the observability mux
// (/metrics, /healthz, /debug/snapshot, /debug/spans, pprof) shares the same
// listener. A background tenant cycles the benchmark query mix through the
// same front door so the detectors always have signal, and the detector →
// admission backpressure loop runs on the sampling window. SIGINT/SIGTERM
// triggers the orderly drain: stop admitting, finish or shed in-flight work
// within -drain-timeout, flush a final stats line, exit 0.
func runServe(o *options, log *slog.Logger) error {
	//lint:ignore virtualtime process uptime on /metrics is wall-clock by definition, outside any deterministic run
	start := time.Now()
	db, queries, dev := o.start(log)
	dev.Faults = o.faults(log)
	dev.Tracer = robustdb.NewTracer(0)
	strat := workload.Select(o.strategy)[0]
	engine, err := workload.NewEngine(db.Catalog(), dev, strat, queries)
	if err != nil {
		return err
	}
	var slowlog *journal.Journal
	if o.slowlogCap != 0 {
		slowlog = journal.New(o.slowlogCap, o.slowlogThreshold, o.slowlogQError)
	}
	front, err := server.New(server.Config{
		Engine:  engine,
		Placer:  strat.Placer,
		Catalog: db.Catalog(),
		Admission: admission.Config{ // zero fields keep the controller's defaults
			Policy:        admission.Policy(o.admissionPolicy),
			MaxConcurrent: o.admit,
			MaxQueue:      o.queueDepth,
			QueueTimeout:  o.queueTimeout,
			DefaultTenant: admission.TenantConfig{MaxInFlight: o.tenantInflight},
		},
		MaxQueryDeadline: o.deadline, // the ceiling on what a client may ask for
		Journal:          slowlog,
		Log:              log,
	})
	if err != nil {
		return err
	}
	reg := engine.Metrics.Registry()
	detectors := []*obs.Detector{
		obs.NewThrashingDetector(obs.ThrashingConfig{}),
		obs.NewContentionDetector(obs.ContentionConfig{}),
	}
	sampler := obs.NewSampler(reg, detectors, log)
	stopPressure := server.StartPressureLoop(front, sampler, o.serveWindow)
	obsMux := obs.NewMux(obs.ServerConfig{
		Registry:  reg,
		Tracer:    dev.Tracer,
		Detectors: detectors,
		Log:       log,
		Build:     obs.ReadBuildInfo(),
		//lint:ignore virtualtime process uptime on /metrics is wall-clock by definition, outside any deterministic run
		Uptime: func() time.Duration { return time.Since(start) },
	})
	root := http.NewServeMux()
	root.Handle("/v1/query", front.Handler())
	root.Handle("/v1/explain", front.Handler())
	root.Handle("/debug/admission", front.Handler())
	root.Handle("/debug/slowlog", front.Handler())
	root.Handle("/", obsMux)

	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		stopPressure()
		return err
	}
	ln = server.LimitListener(ln, o.maxConns)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The background tenant's first pass is the server's own warm-up: the
	// listener is bound but nothing is accepted until the pass is over, so a
	// server that answers /healthz has run the whole query mix once — learned
	// cost models and detector baselines included — and a client's first
	// requests never share the engine with it.
	backgroundPass(ctx, front, queries, log)
	defer setGCHeadroom()()

	srv := newHTTPServer(root)
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	log.LogAttrs(context.Background(), slog.LevelInfo, "serving",
		slog.String("component", "serve"),
		slog.String("addr", ln.Addr().String()),
		slog.String("strategy", strat.Label),
		slog.String("policy", o.admissionPolicy),
		slog.Int("admit", o.admit),
		slog.Int("max_conns", o.maxConns),
		slog.Duration("window", o.serveWindow))

	// The background tenant from here on: a wall-clock cooldown, then one
	// pass over the query mix through the front door. It shares the admission
	// controller with network clients, so under external overload it is shed
	// like everyone else — which is the point.
	bgCtx, bgCancel := context.WithCancel(ctx)
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		backgroundLoad(bgCtx, front, queries, o.serveCooldown, log)
	}()

	var runErr error
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		runErr = fmt.Errorf("http server: %w", err)
	}
	stop()
	bgCancel()
	<-bgDone

	log.LogAttrs(context.Background(), slog.LevelInfo, "draining",
		slog.String("component", "serve"),
		slog.Duration("timeout", o.drainTimeout))
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancelDrain()
	drainErr := front.Drain(drainCtx)
	stopPressure()
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) && drainErr == nil {
		drainErr = err
	}

	// Flush the final state so operators see what the drain disposed of.
	stats := front.Admission().Stats()
	log.LogAttrs(context.Background(), slog.LevelInfo, "drained",
		slog.String("component", "serve"),
		slog.Int("in_flight", stats.InFlight),
		slog.Int("queued", stats.Queued),
		slog.Bool("clean", drainErr == nil))
	if runErr != nil {
		return runErr
	}
	return drainErr
}

// What a client that sends nothing may hold: a connection whose request
// header has not arrived within readHeaderTimeout is closed, and so is a
// keep-alive connection idle for idleTimeout. Together with the front door's
// body limit they bound what a slow or hostile client costs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the root handler in the serve mode's http.Server. There
// is deliberately no WriteTimeout: a long query is legitimate, and its bound
// is the per-query deadline, not the socket.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// gcHeadroom is the least garbage the serving process lets pile up between two
// collections. Every collection re-marks the tracer's span and event rings
// (≈ 22 MB of string headers, 10–16 ms of mark work), and kernels allocate a
// few hundred KB per query, so at the runtime's default — collect when the
// heap has doubled — a server over a small database collects every ≈ 25 MB:
// some 15 times a second at 1400 queries/s, a sixth of its CPU, on the cores
// its sessions need. A floor under the interval bounds that rate whatever the
// dataset size; past gcHeadroom of live heap the default already exceeds it.
const gcHeadroom = 64 << 20

// gcPercentFor returns the GC percent under which a heap of live bytes grows
// by at least gcHeadroom before the next collection, never below the
// runtime's default of 100.
func gcPercentFor(live uint64) int {
	if live == 0 || live >= gcHeadroom {
		return 100
	}
	return int(100 * gcHeadroom / live)
}

// setGCHeadroom applies gcPercentFor to the heap the server holds at rest —
// dataset, device cache, rings — and returns the function that restores the
// previous setting. An operator's GOGC wins.
func setGCHeadroom() (restore func()) {
	if os.Getenv("GOGC") != "" {
		return func() {}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	old := debug.SetGCPercent(gcPercentFor(ms.HeapAlloc))
	return func() { debug.SetGCPercent(old) }
}

// backgroundLoad cycles the query mix through the front door as the
// low-priority "background" tenant until the context ends: cooldown, pass,
// repeat (the first pass ran before the listener opened).
func backgroundLoad(ctx context.Context, front *server.Server, queries []robustdb.WorkloadQuery, cooldown time.Duration, log *slog.Logger) {
	for {
		select {
		case <-ctx.Done():
			return
		//lint:ignore virtualtime the cooldown between background passes is wall-clock idle time, outside any deterministic run
		case <-time.After(cooldown):
		}
		backgroundPass(ctx, front, queries, log)
	}
}

// backgroundPass submits the query mix once. Typed shed errors are the
// admission controller doing its job under load; anything untyped is logged
// loudly but does not kill the server — serving real tenants takes precedence
// over the synthetic load.
func backgroundPass(ctx context.Context, front *server.Server, queries []robustdb.WorkloadQuery, log *slog.Logger) {
	for _, q := range queries {
		if ctx.Err() != nil {
			return
		}
		_, err := front.Submit(ctx, "background", 0, q.Plan, 0)
		var ae *admission.Error
		switch {
		case err == nil || errors.Is(err, context.Canceled):
		case errors.As(err, &ae):
			log.LogAttrs(ctx, slog.LevelDebug, "background query shed",
				slog.String("component", "serve"),
				slog.String("query", q.Name),
				slog.String("code", string(ae.Code)))
		default:
			log.LogAttrs(ctx, slog.LevelWarn, "background query failed",
				slog.String("component", "serve"),
				slog.String("query", q.Name),
				slog.String("error", err.Error()))
		}
	}
}
