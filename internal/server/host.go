// Package server is the network front door of the engine: a stdlib
// HTTP/JSON query service where concurrent sessions submit SQL tagged with
// a tenant id, an admission controller (internal/admission) decides whether
// each query is admitted into the chopping operator stream, queued, or shed
// with a typed error, and the obs detectors feed backpressure.
//
// The engine itself is a deterministic discrete-event simulation whose
// Sim.Run loop is single-threaded and not reentrant. The bridge between the
// wall-clock network side and the virtual-time engine is the Host: a single
// pump goroutine owns the engine, gathers admitted queries into batches,
// spawns one session process per query, and runs the simulation until the
// batch drains. Every admitted session therefore genuinely shares the one
// global operator stream with bounded per-processor pools — the paper's
// query-chopping serving model (§5.2) — while network goroutines only ever
// block on per-job reply channels.
//
// The package runs on the wall clock by design and is exempt from the
// virtualtime lint rule (see internal/lint/virtualtime.go).
package server

import (
	"errors"
	"fmt"

	"robustdb/internal/cost"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/plan"
	"robustdb/internal/sim"
)

// ErrHostClosed marks a query rejected because the host pump has shut down.
var ErrHostClosed = errors.New("server: host closed")

// jobResult is one finished query's outcome.
type jobResult struct {
	batch     *engine.Batch
	stats     exec.QueryStats
	placement map[int]cost.ProcKind // place-only jobs: compile-time decisions
	err       error
}

// job is one admitted query travelling from a network goroutine to the pump.
type job struct {
	name      string
	plan      *plan.Plan
	opts      exec.QueryOpts
	placeOnly bool           // EXPLAIN: compute placement, do not execute
	done      chan jobResult // buffered(1): the session process never blocks
}

// Host owns the engine and serializes all execution onto its virtual-time
// loop. Concurrent Run calls from any number of goroutines are batched by
// the pump; queries of one batch interleave inside the simulation exactly
// like concurrent workload users.
type Host struct {
	// Engine is the executing engine (exposed for metrics/observability
	// wiring; do not call Sim.Run on it — the pump owns the loop).
	Engine *exec.Engine

	placer exec.Placer
	jobs   chan *job
	quit   chan struct{}
	done   chan struct{}
	seq    chan int64 // capacity 1: holds the next session sequence number
}

// NewHost starts the pump goroutine over an engine built elsewhere
// (typically workload.NewEngine, so a served engine matches a benchmarked
// one). The placer is the strategy's placement heuristic, shared by every
// served query.
func NewHost(e *exec.Engine, placer exec.Placer) *Host {
	h := &Host{
		Engine: e,
		placer: placer,
		jobs:   make(chan *job, 256),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		seq:    make(chan int64, 1),
	}
	h.seq <- 1
	go h.pump()
	return h
}

// Run executes one query on the shared engine, blocking until it finishes,
// is failed by its virtual-time deadline, or the host shuts down. It is safe
// from any goroutine.
func (h *Host) Run(pl *plan.Plan, opts exec.QueryOpts) (*engine.Batch, exec.QueryStats, error) {
	n := <-h.seq
	h.seq <- n + 1
	j := &job{
		name: fmt.Sprintf("session%06d", n),
		plan: pl,
		opts: opts,
		done: make(chan jobResult, 1),
	}
	select {
	case h.jobs <- j:
	case <-h.quit:
		return nil, exec.QueryStats{}, ErrHostClosed
	}
	select {
	case res := <-j.done:
		return res.batch, res.stats, res.err
	case <-h.done:
		// The pump exited while our job was in flight. It either decided the
		// job before exiting (failPending or a final batch) or never saw it —
		// after h.done closes nothing touches the queue, so a non-blocking
		// read is decisive.
		select {
		case res := <-j.done:
			return res.batch, res.stats, res.err
		default:
			return nil, exec.QueryStats{}, ErrHostClosed
		}
	}
}

// Placement computes the compile-time placement the shared placer would
// choose for pl, or nil when the strategy defers every decision to run time.
// It serves plain EXPLAIN only — an executed query reports the placement it
// ran under in its exec.QueryStats. The computation is serialized onto the
// pump goroutine: placers read the engine's learned cost models and cache
// state, which only the pump may touch while queries execute. pl must already
// be estimated against the engine's catalog, so the placer only reads it.
func (h *Host) Placement(pl *plan.Plan) (map[int]cost.ProcKind, error) {
	j := &job{placeOnly: true, plan: pl, done: make(chan jobResult, 1)}
	select {
	case h.jobs <- j:
	case <-h.quit:
		return nil, ErrHostClosed
	}
	select {
	case res := <-j.done:
		return res.placement, res.err
	case <-h.done:
		select {
		case res := <-j.done:
			return res.placement, res.err
		default:
			return nil, ErrHostClosed
		}
	}
}

// Close stops the pump after the in-flight batch finishes; queued jobs that
// never ran fail with ErrHostClosed. Callers drain the admission controller
// first, so under orderly shutdown the queue is already empty.
func (h *Host) Close() {
	select {
	case <-h.quit:
	default:
		close(h.quit)
	}
	<-h.done
}

// pump is the single goroutine that owns the engine: gather a batch of
// admitted jobs, spawn their session processes, run the simulation until
// the batch drains, reply, repeat. The virtual clock persists across
// batches, so metrics and learned cost models accumulate exactly as on a
// long-running workload.
func (h *Host) pump() {
	defer close(h.done)
	for {
		var batch []*job
		select {
		case j := <-h.jobs:
			batch = append(batch, j)
		case <-h.quit:
			h.failPending()
			return
		}
		// Gather everything already admitted; later arrivals wait one batch.
	gather:
		for {
			select {
			case j := <-h.jobs:
				batch = append(batch, j)
			default:
				break gather
			}
		}
		for _, j := range batch {
			j := j
			if j.placeOnly {
				// Decided on the pump, between simulation runs: no query is
				// mid-flight, so reading the learner/cache cannot race.
				j.done <- jobResult{placement: h.placer.CompileTime(h.Engine, j.plan)}
				continue
			}
			h.Engine.Sim.Spawn(j.name, func(p *sim.Proc) {
				v, stats, err := h.Engine.RunQueryWith(p, j.plan, h.placer, j.opts)
				r := jobResult{stats: stats, err: err}
				if err == nil {
					r.batch = v.Batch
				}
				j.done <- r // buffered(1): never blocks the simulation
			})
		}
		h.Engine.Sim.Run()
	}
}

// failPending flushes jobs that were submitted but never spawned when the
// host closed: every query gets a decision, none is silently dropped.
func (h *Host) failPending() {
	for {
		select {
		case j := <-h.jobs:
			j.done <- jobResult{err: ErrHostClosed}
		default:
			return
		}
	}
}
