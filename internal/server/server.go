package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"robustdb/internal/admission"
	"robustdb/internal/column"
	"robustdb/internal/engine"
	"robustdb/internal/exec"
	"robustdb/internal/journal"
	"robustdb/internal/plan"
	"robustdb/internal/sql"
	"robustdb/internal/table"
	"robustdb/internal/trace"
	"robustdb/internal/workload"
)

// ErrDrainTimeout marks a drain that hit its bound with queries still in
// flight; those queries were failed by their deadlines or the host close,
// never silently dropped.
var ErrDrainTimeout = errors.New("server: drain timeout")

// Config assembles a front door.
type Config struct {
	// Engine executes the queries (build with workload.NewEngine so serving
	// matches benchmarking). Required.
	Engine *exec.Engine
	// Placer is the placement heuristic every served query runs under.
	// Required.
	Placer exec.Placer
	// Catalog compiles SQL against the served database: Engine.Cat, or nil.
	// Required for the HTTP handler; the direct Submit path can run plan-only.
	Catalog *table.Catalog
	// Admission tunes the admission controller; zero value = defaults.
	Admission admission.Config
	// MaxQueryDeadline caps client-requested deadlines (default 10s of
	// virtual time; the same figure bounds the queue wait).
	MaxQueryDeadline time.Duration
	// Journal, when non-nil, receives slow-query entries (latency over its
	// threshold, q-error over its bound, or failed) and backs the
	// /debug/slowlog endpoint. Nil disables journaling at zero cost.
	Journal *journal.Journal
	// Log receives request-level diagnostics; nil disables logging.
	Log *slog.Logger
}

// Server is the front door: admission control in wall-clock time, execution
// in virtual time through the Host pump.
type Server struct {
	host *Host
	ctrl *admission.Controller
	cat  *table.Catalog
	log  *slog.Logger

	maxDeadline time.Duration

	reqs  reqMetrics
	plans *planCache // bounded cache of prepared statements, keyed by text

	journal *journal.Journal // nil = journaling off

	// reg and tenantPool back the per-tenant SLO attribution histograms
	// (TenantQueryLatency{tenant,outcome}); tenantPool bounds the
	// client-controlled tenant label's cardinality.
	reg        *trace.Registry
	tenantPool *trace.LabelPool
}

// planCacheCap bounds the SQL plan cache. The cache key is raw
// client-supplied statement text on a multi-tenant front door, so without a
// bound any client issuing unique texts (e.g. inlined literals) grows the
// map without limit — a memory-exhaustion vector. The benchmark workloads
// use a few dozen distinct statements; 256 leaves ample headroom.
const planCacheCap = 256

// prepared is one resolved statement text: parsed, compiled and estimated
// exactly once, at plan-cache insert, and immutable from then on — it is
// shared by every concurrent request for that text, by the pump that executes
// it, and by EXPLAIN and the journal that describe it.
type prepared struct {
	text string     // the cache key: the statement as the client sent it
	plan *plan.Plan // estimated against the served catalog
	// explain / analyze are the statement kind: an EXPLAIN prefix describes
	// the plan instead of running it, EXPLAIN ANALYZE runs it and describes
	// the plan with actuals.
	explain, analyze bool
}

// planCache is a mutex-guarded LRU of prepared statements. Only statements
// that compile successfully are inserted.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   list.List // front = most recently used; values are *prepared
	byKey map[string]*list.Element

	// Effectiveness counters (robustdb_plancache_*_total); nil without a
	// registry.
	hits, misses, evictions *trace.Counter
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, byKey: make(map[string]*list.Element, capacity)}
}

func (c *planCache) get(key string) (*prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		inc(c.misses)
		return nil, false
	}
	inc(c.hits)
	c.lru.MoveToFront(el)
	return el.Value.(*prepared), true
}

func (c *planCache) put(p *prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[p.text]; ok {
		c.lru.MoveToFront(el)
		el.Value = p
		return
	}
	c.byKey[p.text] = c.lru.PushFront(p)
	if c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*prepared).text)
		inc(c.evictions)
	}
}

// reqMetrics are the server's registry series; all-nil when no registry is
// configured.
type reqMetrics struct {
	total, badRequest, admitted, shed, failed, succeeded *trace.Counter
}

func inc(c *trace.Counter) {
	if c != nil {
		c.Inc()
	}
}

// New builds the server, starts the host pump, and wires the admission
// controller. Close with Drain (orderly) or Close (immediate).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil || cfg.Placer == nil {
		return nil, errors.New("server: Config.Engine and Config.Placer are required")
	}
	if cfg.Catalog != nil && cfg.Catalog != cfg.Engine.Cat {
		// A prepared plan is estimated once and shared: the front door and the
		// pump's placers must estimate against the same catalog, or each
		// would rewrite the other's estimates on a published plan.
		return nil, errors.New("server: Config.Catalog must be the engine's catalog")
	}
	if cfg.MaxQueryDeadline <= 0 {
		cfg.MaxQueryDeadline = 10 * time.Second
	}
	if cfg.Admission.Registry == nil {
		cfg.Admission.Registry = cfg.Engine.Metrics.Registry()
	}
	if cfg.Admission.MaxConcurrent == 0 {
		// Default the admitted concurrency to the engine's chopping pool
		// bounds: past one query per worker slot (plus headroom) additional
		// admissions only queue inside the operator stream.
		cfg.Admission.MaxConcurrent = workload.AdmittedBound(
			cfg.Engine.GPU.Workers.Capacity(), cfg.Engine.CPU.Workers.Capacity())
	}
	s := &Server{
		host:        NewHost(cfg.Engine, cfg.Placer),
		ctrl:        admission.New(cfg.Admission),
		cat:         cfg.Catalog,
		log:         cfg.Log,
		maxDeadline: cfg.MaxQueryDeadline,
		plans:       newPlanCache(planCacheCap),
		journal:     cfg.Journal,
		tenantPool:  trace.NewLabelPool(0),
	}
	if reg := cfg.Admission.Registry; reg != nil {
		s.reg = reg
		s.reqs = reqMetrics{
			total:      reg.Counter("ServerRequests"),
			badRequest: reg.Counter("ServerBadRequests"),
			admitted:   reg.Counter("ServerAdmitted"),
			shed:       reg.Counter("ServerShed"),
			failed:     reg.Counter("ServerQueryErrors"),
			succeeded:  reg.Counter("ServerQueriesOK"),
		}
		s.plans.hits = reg.Counter("PlancacheHits")
		s.plans.misses = reg.Counter("PlancacheMisses")
		s.plans.evictions = reg.Counter("PlancacheEvictions")
	}
	return s, nil
}

// Engine exposes the serving engine for observability wiring.
func (s *Server) Engine() *exec.Engine { return s.host.Engine }

// Admission exposes the controller (pressure wiring, stats handler).
func (s *Server) Admission() *admission.Controller { return s.ctrl }

// SetPressure forwards the detector-driven backpressure level; see
// admission.Controller.SetPressure.
func (s *Server) SetPressure(level int) { s.ctrl.SetPressure(level) }

// Result is one admitted, completed query.
type Result struct {
	// Batch is the exact query result.
	Batch *engine.Batch
	// Latency is the virtual-time response time inside the engine.
	Latency time.Duration
	// QueueWait is the wall-clock time spent waiting for admission.
	QueueWait time.Duration
	// QueryID is the engine query id ("q0001") — the span correlation key.
	// Set whenever the query reached the engine, including on failure;
	// empty for shed queries.
	QueryID string
	// QError is the query's worst per-operator cardinality misestimate (0
	// when unknown).
	QError float64
}

// SLO attribution outcome labels (TenantQueryLatency{tenant,outcome} and the
// journal's Outcome field). The set is fixed so label cardinality is bounded
// by construction.
const (
	outcomeOK            = "ok"
	outcomeShed          = "shed"
	outcomeDeadline      = "deadline"
	outcomeEngineFailure = "engine-failure"
)

// Submit runs one query through the full front-door path — admission,
// queueing, execution — on behalf of tenant. prio raises the query above
// the tenant's base priority; deadline bounds both the wall-clock queue
// wait and the virtual-time execution (0 = server default). Every error
// return is typed: *admission.Error for shed queries, exec errors for
// admitted ones. On engine failure the Result still carries the QueryID so
// callers can correlate spans. A raw plan has no statement behind it: the
// journal records its spans without a plan document.
func (s *Server) Submit(ctx context.Context, tenant string, prio int, pl *plan.Plan, deadline time.Duration) (Result, error) {
	res, _, err := s.submit(ctx, tenant, prio, &prepared{plan: pl}, deadline)
	return res, err
}

// submit is Submit over a prepared statement; it also returns the engine's
// record of the query (zero when the query was shed) for EXPLAIN ANALYZE.
func (s *Server) submit(ctx context.Context, tenant string, prio int, prep *prepared, deadline time.Duration) (Result, exec.QueryStats, error) {
	inc(s.reqs.total)
	if deadline <= 0 || deadline > s.maxDeadline {
		deadline = s.maxDeadline
	}
	tk, err := s.ctrl.Submit(tenant, prio, deadline)
	if err != nil {
		inc(s.reqs.shed)
		s.noteOutcome(tenant, outcomeShed, 0)
		s.journalQuery(prep, tenant, outcomeShed, exec.QueryStats{})
		return Result{}, exec.QueryStats{}, err
	}
	if err := tk.Wait(ctx); err != nil {
		inc(s.reqs.shed)
		s.noteOutcome(tenant, outcomeShed, tk.QueueWait())
		s.journalQuery(prep, tenant, outcomeShed, exec.QueryStats{})
		return Result{}, exec.QueryStats{}, err
	}
	queueWait := tk.QueueWait()
	defer s.ctrl.Release(tk)
	inc(s.reqs.admitted)
	batch, stats, err := s.host.Run(prep.plan, exec.QueryOpts{Deadline: deadline, Tenant: tenant})
	outcome := runOutcome(err)
	s.noteOutcome(tenant, outcome, stats.Latency)
	s.journalQuery(prep, tenant, outcome, stats)
	res := Result{QueryID: stats.QueryID, QError: stats.QError, QueueWait: queueWait}
	if err != nil {
		inc(s.reqs.failed)
		return res, stats, err
	}
	inc(s.reqs.succeeded)
	res.Batch, res.Latency = batch, stats.Latency
	return res, stats, nil
}

// runOutcome classifies how an admitted query ended.
func runOutcome(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return outcomeDeadline
	case errors.Is(err, ErrHostClosed):
		// The host refused the work (shutdown), the engine did not break.
		return outcomeShed
	default:
		return outcomeEngineFailure
	}
}

// noteOutcome records one query on the tenant's SLO attribution histogram:
// robustdb_tenant_query_latency_seconds{tenant,outcome}. For executed
// queries the observation is the engine's virtual latency; for shed queries
// it is the wall-clock queue wait (the only latency a shed query has).
// Registration is idempotent, so the hot path is one registry map lookup.
func (s *Server) noteOutcome(tenant, outcome string, latency time.Duration) {
	if s.reg == nil {
		return
	}
	s.reg.Histogram(trace.LabeledName("TenantQueryLatency",
		"tenant", s.tenantPool.Get(tenant), "outcome", outcome)).Observe(latency)
}

// journalQuery records the query in the slow-query journal when it crosses
// a journal gate (latency threshold, q-error bound, or any outcome but ok).
// Everything an entry carries is read off what the request already holds —
// the prepared statement it executed and the engine's record of the query —
// so recording parses, compiles, scans and asks the pump for nothing; with
// journaling off the whole call is one nil check.
func (s *Server) journalQuery(prep *prepared, tenant, outcome string, stats exec.QueryStats) {
	reason := s.journal.Reason(stats.Latency, stats.QError, outcome != outcomeOK)
	if reason == "" {
		return
	}
	e := journal.Entry{
		QueryID:   stats.QueryID,
		SQL:       prep.text,
		Tenant:    tenant,
		Outcome:   outcome,
		Reason:    reason,
		LatencyUS: stats.Latency.Microseconds(),
		QError:    stats.QError,
		WallTime:  time.Now().UTC().Format(time.RFC3339Nano),
		Spans:     journal.Waterfall(stats.Spans),
	}
	if prep.text != "" && len(stats.Spans) > 0 {
		if payload, err := stats.Analyze(prep.plan, s.cat, prep.text, outcome); err == nil {
			e.Plan = payload
		}
	}
	s.journal.Record(e)
}

// ErrBadQuery wraps SQL compilation failures so the wire layer can map them
// to 400 instead of 500.
var ErrBadQuery = errors.New("server: bad query")

// SubmitSQL prepares the SQL text (cached per statement) and Submits it.
func (s *Server) SubmitSQL(ctx context.Context, tenant string, prio int, query string, deadline time.Duration) (Result, error) {
	prep, err := s.prepare(query)
	if err != nil {
		return Result{}, err
	}
	res, _, err := s.submit(ctx, tenant, prio, prep, deadline)
	return res, err
}

// prepare resolves a statement text: a plan-cache hit, or parse → compile →
// estimate, once, at insert. It is the only place the front door turns text
// into a plan; every surface (query, EXPLAIN, EXPLAIN ANALYZE, the journal)
// works on the prepared statement it returns.
func (s *Server) prepare(text string) (*prepared, error) {
	if s.cat == nil {
		return nil, errors.New("server: no catalog configured for SQL")
	}
	if prep, ok := s.plans.get(text); ok {
		return prep, nil
	}
	st, err := sql.Parse(text)
	var pl *plan.Plan
	if err == nil {
		pl, err = sql.Compile(s.cat, st)
	}
	if err == nil {
		// Estimate before publishing: the plan is shared across concurrent
		// requests, and EstimateSizes against the same catalog never writes
		// again.
		err = pl.EstimateSizes(s.cat)
	}
	if err != nil {
		inc(s.reqs.badRequest)
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	prep := &prepared{text: text, plan: pl, explain: st.Explain, analyze: st.Analyze}
	s.plans.put(prep)
	return prep, nil
}

// Drain performs the orderly shutdown: stop admitting (queued queries shed
// with ErrDraining), wait — bounded by ctx — for in-flight queries to
// finish, then stop the host pump. Returns nil when everything drained, or
// ErrDrainTimeout when the bound hit first (in-flight queries are then
// failed by the closing host, with a decision delivered to every waiter).
func (s *Server) Drain(ctx context.Context) error {
	s.ctrl.Drain()
	var err error
	select {
	case <-s.ctrl.Drained():
	case <-ctx.Done():
		err = ErrDrainTimeout
	}
	s.host.Close()
	return err
}

// QueryRequest is the wire format of POST /v1/query.
type QueryRequest struct {
	// Tenant identifies the submitting tenant ("" maps to "default").
	Tenant string `json:"tenant"`
	// SQL is the statement to execute.
	SQL string `json:"sql"`
	// Priority raises the query above the tenant's base priority.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds queue wait + execution in milliseconds (0 = server
	// default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// QueryResponse is the wire format of a successful query.
type QueryResponse struct {
	Columns []string `json:"columns"`
	// Rows are the result rows; dates are days since 1992-01-01.
	Rows [][]any `json:"rows"`
	// RowCount duplicates len(Rows) for truncation-free clients.
	RowCount int `json:"row_count"`
	// LatencyUS is the virtual-time engine latency in microseconds.
	LatencyUS int64 `json:"latency_us"`
	// QueueMS is the wall-clock admission queue wait in milliseconds.
	QueueMS float64 `json:"queue_ms"`
}

// ErrorResponse is the wire format of every failed query.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable class: an admission code ("overloaded",
	// "draining", …), "deadline", "bad-request", or "internal".
	Code string `json:"code"`
	// RetryAfterMS mirrors the Retry-After header for JSON-only clients.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Handler returns the front-door HTTP handler (mount alongside obs.NewMux).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/debug/admission", s.handleAdmissionStats)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	return mux
}

// handleSlowlog serves the slow-query journal as JSON Lines, oldest entry
// first. 404 when journaling is disabled, so probes can distinguish "off"
// from "empty".
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "bad-request", errors.New("server: slow-query journal disabled"), 0)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// The status header is already committed above; a mid-stream encode
	// failure means the connection broke.
	if err := s.journal.WriteJSONL(w); err != nil {
		return
	}
}

// ExplainRequest is the wire format of POST /v1/explain. The statement may
// carry an optional EXPLAIN (ANALYZE) prefix; ?analyze=1 or an EXPLAIN
// ANALYZE spelling executes the statement and attaches per-node actuals.
// Tenant/Priority/DeadlineMS apply only to the analyze path, where the
// statement really runs through admission control.
type ExplainRequest struct {
	SQL        string `json:"sql"`
	Tenant     string `json:"tenant,omitempty"`
	Priority   int    `json:"priority,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// Explain renders the statement's plan tree with the strategy's compile-time
// placement decisions and per-scan compression modes, without executing it.
func (s *Server) Explain(query string) (*plan.ExplainPayload, error) {
	prep, err := s.prepare(query)
	if err != nil {
		return nil, err
	}
	return s.explain(prep)
}

func (s *Server) explain(prep *prepared) (*plan.ExplainPayload, error) {
	// Nothing ran, so there is no executed placement to read: ask the pump,
	// the only goroutine that may consult the learner and the cache state.
	placement, err := s.host.Placement(prep.plan)
	if err != nil {
		return nil, err
	}
	payload, err := plan.Explain(prep.plan, s.cat, placement)
	if err != nil {
		return nil, err
	}
	payload.SQL = prep.text
	return payload, nil
}

// ExplainAnalyze executes the statement through the full front-door path
// (admission, queueing, deadline), then renders the plan it ran — the same
// object, so span node ids align by construction — under the placement it ran
// under, with per-node actuals from the query's own spans. Shed queries
// return the typed admission error (there is nothing to report); deadline and
// engine failures still return a payload, with the outcome flagged and the
// reached nodes carrying partial actuals.
func (s *Server) ExplainAnalyze(ctx context.Context, tenant string, prio int, query string, deadline time.Duration) (*plan.ExplainPayload, error) {
	prep, err := s.prepare(query)
	if err != nil {
		return nil, err
	}
	return s.explainAnalyze(ctx, tenant, prio, prep, deadline)
}

func (s *Server) explainAnalyze(ctx context.Context, tenant string, prio int, prep *prepared, deadline time.Duration) (*plan.ExplainPayload, error) {
	_, stats, runErr := s.submit(ctx, tenant, prio, prep, deadline)
	if runErr != nil && stats.QueryID == "" {
		// Shed before execution: no spans exist, nothing to analyze.
		return nil, runErr
	}
	return stats.Analyze(prep.plan, s.cat, prep.text, runOutcome(runErr))
}

// maxBodyBytes bounds a request body. Statements are a few hundred bytes; a
// client streaming more than this is cut off with 413 instead of being
// buffered.
const maxBodyBytes = 1 << 20

// decodeBody reads one JSON request body of at most maxBodyBytes into v and
// reports whether it succeeded; on failure the typed bad-request envelope has
// been written (413 for an oversized body, 400 otherwise).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	inc(s.reqs.badRequest)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad-request", fmt.Errorf("server: bad request body: %w", err), 0)
	return false
}

// handleExplain serves POST /v1/explain: the plan document for a statement.
// Plain EXPLAIN never executes and never passes admission control;
// ?analyze=1 (or an EXPLAIN ANALYZE statement) runs the query through the
// full front-door path and attaches per-node actuals.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "bad-request", errors.New("server: POST only"), 0)
		return
	}
	var req ExplainRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	q := QueryRequest{Tenant: req.Tenant, SQL: req.SQL, Priority: req.Priority, DeadlineMS: req.DeadlineMS}
	s.serveStatement(w, r, q, true, r.URL.Query().Get("analyze") == "1")
}

// handleQuery is the wire entry point. Every error path maps to a typed
// wire status via writeError — TestHTTPWireStatuses pins this property.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "bad-request", errors.New("server: POST only"), 0)
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.serveStatement(w, r, req, false, false)
}

// serveStatement answers one decoded request. The statement is prepared
// once; its kind — or the endpoint, for /v1/explain — picks the surface. An
// EXPLAIN statement describes its plan instead of executing; EXPLAIN ANALYZE
// executes it and describes the plan with actuals; both answer with the same
// document on either endpoint.
func (s *Server) serveStatement(w http.ResponseWriter, r *http.Request, req QueryRequest, explain, analyze bool) {
	if req.SQL == "" {
		inc(s.reqs.badRequest)
		writeError(w, http.StatusBadRequest, "bad-request", errors.New("server: empty sql"), 0)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	prep, err := s.prepare(req.SQL)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if explain || prep.explain {
		var payload *plan.ExplainPayload
		if analyze || prep.analyze {
			payload, err = s.explainAnalyze(r.Context(), req.Tenant, req.Priority, prep, deadline)
		} else {
			payload, err = s.explain(prep)
		}
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, payload)
		return
	}
	res, _, err := s.submit(r.Context(), req.Tenant, req.Priority, prep, deadline)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res))
	if s.log != nil && s.log.Enabled(r.Context(), slog.LevelDebug) {
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "query served",
			slog.String("component", "server"),
			slog.String("tenant", req.Tenant),
			slog.Duration("latency", res.Latency),
			slog.Duration("queue_wait", res.QueueWait))
	}
}

// handleAdmissionStats serves the frozen controller state as JSON.
func (s *Server) handleAdmissionStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ctrl.Stats())
}

// writeQueryError maps every submit error to its wire status. The mapping
// is the contract the load generator and the overload tests assert on:
// shed and deadline failures are 4xx/503/504 with typed codes — a 5xx on an
// admitted query would mean the engine itself broke.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	var ae *admission.Error
	switch {
	case errors.As(err, &ae):
		status := http.StatusTooManyRequests // overloaded, tenant-limit
		switch ae.Code {
		case admission.CodeDraining:
			status = http.StatusServiceUnavailable
		case admission.CodeQueueTimeout:
			status = http.StatusGatewayTimeout
		case admission.CodeCanceled:
			// The client went away; nothing can be delivered, but the
			// status keeps logs truthful.
			status = statusClientClosedRequest
		}
		writeError(w, status, string(ae.Code), err, ae.RetryAfter)
	case errors.Is(err, exec.ErrDeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline", err, 0)
	case errors.Is(err, ErrHostClosed):
		writeError(w, http.StatusServiceUnavailable, "draining", err, time.Second)
	case isBadRequest(err):
		writeError(w, http.StatusBadRequest, "bad-request", err, 0)
	default:
		// Admitted query failed inside the engine (fault injection exhausted
		// retries, plan logic error): a true internal error.
		writeError(w, http.StatusInternalServerError, "internal", err, 0)
	}
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response; stdlib has no constant for it.
const statusClientClosedRequest = 499

// isBadRequest reports whether the error is the client's fault (SQL parse
// or plan building over missing tables/columns).
func isBadRequest(err error) bool { return errors.Is(err, ErrBadQuery) }

// writeError emits the typed error envelope plus Retry-After when hinted.
func writeError(w http.ResponseWriter, status int, code string, err error, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, ErrorResponse{
		Error:        err.Error(),
		Code:         code,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// writeJSON writes one JSON response. Encoding a materialized response
// struct cannot fail; a broken connection surfaces on the transport and is
// not recoverable here.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}

// toResponse serializes a result batch into the wire format.
func toResponse(res Result) QueryResponse {
	cols := res.Batch.Columns()
	out := QueryResponse{
		Columns:   make([]string, len(cols)),
		LatencyUS: res.Latency.Microseconds(),
		QueueMS:   float64(res.QueueWait) / float64(time.Millisecond),
	}
	n := res.Batch.NumRows()
	out.RowCount = n
	for i, c := range cols {
		out.Columns[i] = c.Name()
	}
	out.Rows = make([][]any, n)
	for r := 0; r < n; r++ {
		row := make([]any, len(cols))
		for i, c := range cols {
			row[i] = cellValue(c, r)
		}
		out.Rows[r] = row
	}
	return out
}

// cellValue extracts one cell for JSON encoding.
func cellValue(c column.Column, i int) any {
	switch col := c.(type) {
	case *column.Int64Column:
		return col.Values[i]
	case *column.Float64Column:
		return col.Values[i]
	case *column.DateColumn:
		return col.Values[i]
	case *column.StringColumn:
		return col.Value(i)
	case *column.CompressedInt64Column:
		return col.Value(i)
	case *column.CompressedDateColumn:
		return col.Value(i)
	default:
		// Materialized flattens any remaining encoding into its dense form.
		return cellValue(column.Materialized(c), i)
	}
}

// limitListener bounds concurrent accepted connections with a semaphore;
// Accept blocks while the limit is reached, providing natural TCP-level
// backpressure before admission control even sees a request.
type limitListener struct {
	net.Listener
	sem       chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// LimitListener wraps l so at most n connections are open at once (n <= 0
// returns l unchanged).
func LimitListener(l net.Listener, n int) net.Listener {
	if n <= 0 {
		return l
	}
	return &limitListener{Listener: l, sem: make(chan struct{}, n), closed: make(chan struct{})}
}

func (l *limitListener) Accept() (net.Conn, error) {
	// Waiting on the semaphore alone would pin the accept loop when every
	// slot is held: Close could not unblock it until some connection
	// finished, hanging shutdown indefinitely at the connection cap. The
	// close signal keeps listener closure prompt regardless of slot state.
	select {
	case l.sem <- struct{}{}:
	case <-l.closed:
		return nil, net.ErrClosed
	}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, release: func() { <-l.sem }}, nil
}

func (l *limitListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

// limitConn releases its listener slot exactly once on Close.
type limitConn struct {
	net.Conn
	release func()
	once    sync.Once
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
