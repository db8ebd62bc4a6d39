// Package admission is the multi-tenant admission controller of the network
// front door: it decides, per tenant, whether each arriving query is
// admitted into the chopping engine's global operator stream, queued
// (bounded, with priority aging so no tenant starves), or shed with a typed
// error the wire layer maps to a status and Retry-After hint.
//
// The controller extends the paper's insight one layer up: query chopping
// already bounds *operator* concurrency with per-processor worker pools
// (§5.2), which keeps the engine near its sweet spot as long as the number
// of concurrently running queries is sane. Admission control bounds that
// number — and, unlike the paper's one-query-at-a-time baseline (Figure 21),
// it does so per tenant, with fairness and backpressure: when the online
// thrashing/contention detectors fire, the controller shrinks the admitted
// concurrency and sheds the lowest-priority queue tails instead of letting
// every session degrade together.
//
// The package runs in real time (wall clock, real goroutines) by design: it
// sits between network clients and the deterministic virtual-time engine,
// and is exempt from the virtualtime lint rule like the rest of the serving
// layer.
package admission

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"robustdb/internal/trace"
)

// Policy selects how queued queries are ordered and shed.
type Policy string

const (
	// FIFO admits strictly in arrival order and rejects new arrivals when
	// the queue is full. Simple, but one aggressive tenant starves the rest.
	FIFO Policy = "fifo"
	// Fair admits by priority with aging: a ticket's effective priority
	// grows with its queue wait, so heavy tenants cannot starve
	// light ones, and a full queue sheds the lowest-priority tail rather
	// than the newest arrival.
	Fair Policy = "fair"
	// Detector is Fair plus detector-driven backpressure: reported pressure
	// shrinks the admitted concurrency and the queue bound, shedding the
	// excess tail with typed overload errors.
	Detector Policy = "detector"
)

// Code classifies a typed admission failure.
type Code string

const (
	// CodeOverloaded marks a query shed because the global queue was full or
	// backpressure shed it. Clients should back off and retry.
	CodeOverloaded Code = "overloaded"
	// CodeTenantLimit marks a query shed by its own tenant's queue bound;
	// other tenants are unaffected.
	CodeTenantLimit Code = "tenant-limit"
	// CodeQueueTimeout marks a query whose deadline expired while queued.
	CodeQueueTimeout Code = "queue-timeout"
	// CodeDraining marks a query rejected because the server is draining.
	CodeDraining Code = "draining"
	// CodeCanceled marks a query whose client abandoned the wait.
	CodeCanceled Code = "canceled"
)

// Error is a typed admission failure. Two Errors compare equal under
// errors.Is when their codes match, so the exported sentinels below work as
// targets regardless of the instance's detail.
type Error struct {
	// Code is the failure class.
	Code Code
	// Reason is human-readable detail ("queue full (64)", "backpressure").
	Reason string
	// RetryAfter is the client backoff hint; zero means no hint.
	RetryAfter time.Duration
}

// Error formats the failure.
func (e *Error) Error() string {
	if e.Reason == "" {
		return "admission: " + string(e.Code)
	}
	return fmt.Sprintf("admission: %s: %s", e.Code, e.Reason)
}

// Is matches any *Error with the same code (errors.Is support).
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Typed sentinels for errors.Is. The controller returns richer instances
// (with Reason and RetryAfter); these match them by code.
var (
	// ErrOverloaded is the global shed signal (wire: 429 + Retry-After).
	ErrOverloaded = &Error{Code: CodeOverloaded}
	// ErrTenantLimit is the per-tenant bound signal (wire: 429).
	ErrTenantLimit = &Error{Code: CodeTenantLimit}
	// ErrQueueTimeout is the queued-past-deadline signal (wire: 504).
	ErrQueueTimeout = &Error{Code: CodeQueueTimeout}
	// ErrDraining is the shutdown signal (wire: 503 + Retry-After).
	ErrDraining = &Error{Code: CodeDraining}
	// ErrCanceled is the client-abandoned signal (never sent on the wire).
	ErrCanceled = &Error{Code: CodeCanceled}
)

const (
	// agingStep is the queue wait that earns a ticket one effective
	// priority point.
	agingStep = 100 * time.Millisecond
	// retryAfter is the backoff hint attached to shed errors.
	retryAfter = time.Second
)

// Config tunes a Controller. The zero value is usable: every field below
// documents its default.
type Config struct {
	// Policy selects FIFO, Fair, or Detector ordering (default Fair).
	Policy Policy
	// MaxConcurrent is the admitted-concurrency ceiling — how many queries
	// may be inside the engine's operator stream at once (default 8, about
	// the chopping pool bounds; pressure shrinks it under the Detector
	// policy but never below 1).
	MaxConcurrent int
	// MaxQueue bounds the global queue (default 64).
	MaxQueue int
	// MaxTenantQueue bounds each tenant's queued queries (default
	// MaxQueue/4+1).
	MaxTenantQueue int
	// Registry receives the controller's metrics series (Admission*
	// counters/gauges and the AdmissionQueueWait histogram); nil gets a
	// private one.
	Registry *trace.Registry
	// now is the clock hook for tests; nil uses the wall clock.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = Fair
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxTenantQueue <= 0 {
		c.MaxTenantQueue = c.MaxQueue/4 + 1
	}
	if c.Registry == nil {
		c.Registry = trace.NewRegistry()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// ticketState is the lifecycle of a Ticket, guarded by the controller mutex.
type ticketState int

const (
	stateQueued ticketState = iota
	stateGranted
	stateShed
	stateReleased
)

// Ticket is one submitted query's admission handle. Wait blocks until the
// query is admitted or shed; Release returns the admitted slot.
type Ticket struct {
	// Tenant is the submitting tenant id.
	Tenant string

	ctrl     *Controller
	prio     int
	seq      int64
	enqueued time.Time
	decided  chan error // buffered 1; nil = granted, typed error = shed
	timer    *time.Timer
	state    ticketState
}

// Wait blocks until the ticket is granted (nil), shed (a typed *Error), or
// the context ends (the ticket is withdrawn and ErrCanceled returned).
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case err := <-t.decided:
		return err
	case <-ctx.Done():
		if err := t.ctrl.cancel(t); err != nil {
			return err
		}
		return ErrCanceled
	}
}

// QueueWait reports how long the ticket waited for its decision so far.
func (t *Ticket) QueueWait() time.Duration {
	return t.ctrl.cfg.now().Sub(t.enqueued)
}

// tenantState is the controller's bookkeeping of a tenant with work queued or
// in flight; forget drops it when it has neither. Tenant ids are chosen by
// clients, so state kept past that would grow with every id ever seen. A
// tenant's totals live on its labeled series.
type tenantState struct {
	queue    []*Ticket
	inFlight int
}

// metrics is the controller's registry-backed series.
type metrics struct {
	admitted   *trace.Counter
	queued     *trace.Counter
	shed       *trace.Counter
	queueDepth *trace.Gauge
	inFlight   *trace.Gauge
	limit      *trace.Gauge
	queueWait  *trace.Histogram

	// reg and tenantPool back the per-tenant labeled series
	// (AdmissionTenantAdmitted/AdmissionTenantShed). The pool bounds label
	// cardinality: tenant ids are client-supplied strings, and unbounded
	// distinct values would mint unbounded registry series.
	reg        *trace.Registry
	tenantPool *trace.LabelPool
}

func newMetrics(reg *trace.Registry) *metrics {
	return &metrics{
		admitted:   reg.Counter("AdmissionAdmitted"),
		queued:     reg.Counter("AdmissionQueued"),
		shed:       reg.Counter("AdmissionShed"),
		queueDepth: reg.Gauge("AdmissionQueueDepth"),
		inFlight:   reg.Gauge("AdmissionInFlight"),
		limit:      reg.Gauge("AdmissionConcurrencyLimit"),
		queueWait:  reg.Histogram("AdmissionQueueWait", trace.Durations),
		reg:        reg,
		tenantPool: trace.NewLabelPool(),
	}
}

// tenantAdmitted counts one admission on the tenant's labeled series.
func (m *metrics) tenantAdmitted(tenant string) {
	m.reg.Counter(trace.LabeledName("AdmissionTenantAdmitted",
		"tenant", m.tenantPool.Get(tenant))).Inc()
}

// tenantShed counts one shed decision on the tenant's labeled series, split
// by shed code so dashboards can tell tenant-local limits from global
// overload per tenant.
func (m *metrics) tenantShed(tenant string, code Code) {
	m.reg.Counter(trace.LabeledName("AdmissionTenantShed",
		"tenant", m.tenantPool.Get(tenant), "code", string(code))).Inc()
}

// Controller is the admission state machine. All methods are safe for
// concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenantState // tenants with work queued or in flight
	seq      int64
	queued   int
	inFlight int
	limit    int // pressure-adjusted concurrency ceiling
	pressure int
	draining bool
	drained  chan struct{}
	closer   sync.Once // closes drained exactly once

	m *metrics
}

// New builds a controller; see Config for defaults.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		limit:   cfg.MaxConcurrent,
		drained: make(chan struct{}),
		m:       newMetrics(cfg.Registry),
	}
	c.m.limit.Set(int64(c.limit))
	return c
}

// Policy returns the configured policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// TenantLabel returns the bounded label value that names tenant in the
// controller's per-tenant series. A front door that labels its own
// per-tenant series with it names each tenant alike in every family.
func (c *Controller) TenantLabel(tenant string) string { return c.m.tenantPool.Get(tenant) }

// tenant returns the tenant's state, creating it when the tenant has none.
func (c *Controller) tenant(name string) *tenantState {
	ts, ok := c.tenants[name]
	if !ok {
		ts = &tenantState{}
		c.tenants[name] = ts
	}
	return ts
}

// forget drops the tenant's state once it has nothing queued and nothing in
// flight.
func (c *Controller) forget(name string, ts *tenantState) {
	if len(ts.queue) == 0 && ts.inFlight == 0 {
		delete(c.tenants, name)
	}
}

// Submit asks for admission of one query. prio is its priority before aging;
// timeout bounds the queue wait. A timeout ≤ 0 fires at once, so the ticket
// is either granted inside Submit or shed as queue-timeout. The returned
// error, when non-nil, is a typed *Error (the query was shed
// immediately); otherwise the caller must Wait on the ticket and, if Wait
// returns nil, Release it after the query finishes.
func (c *Controller) Submit(tenant string, prio int, timeout time.Duration) (*Ticket, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, c.shedError(tenant, CodeDraining, "server draining")
	}
	t := &Ticket{
		ctrl:     c,
		Tenant:   tenant,
		prio:     prio,
		seq:      c.nextSeq(),
		enqueued: c.cfg.now(),
		decided:  make(chan error, 1),
	}
	// Bound the queues. FIFO rejects the newcomer; Fair and Detector shed
	// the lowest-priority queued ticket instead when the newcomer outranks
	// it, so a high-priority burst cannot be locked out by a full queue of
	// stale low-priority work.
	var victim *Ticket
	victimCode := CodeOverloaded
	if ts := c.tenants[tenant]; ts != nil && len(ts.queue) >= c.cfg.MaxTenantQueue {
		victim = c.boundVictim(t, ts)
		if victim == nil {
			c.mu.Unlock()
			return nil, c.shedError(tenant, CodeTenantLimit, fmt.Sprintf("tenant queue full (%d)", c.cfg.MaxTenantQueue))
		}
		// The displaced ticket hit its own tenant's bound, not global
		// overload: signal the tenant-local condition so clients (and the
		// per-code shed series) do not read it as server-wide pressure.
		victimCode = CodeTenantLimit
	} else if c.queued >= c.queueBound() {
		victim = c.boundVictim(t, nil)
		if victim == nil {
			c.mu.Unlock()
			return nil, c.shedError(tenant, CodeOverloaded, fmt.Sprintf("queue full (%d)", c.queueBound()))
		}
	}
	if victim != nil {
		c.shedLocked(victim, victimCode, "displaced by higher-priority arrival")
	}
	// Looked up after the victim left: shedding may have forgotten the state.
	ts := c.tenant(tenant)
	ts.queue = append(ts.queue, t)
	c.queued++
	c.m.queued.Inc()
	c.m.queueDepth.Set(int64(c.queued))
	t.timer = time.AfterFunc(timeout, func() { c.expire(t) })
	granted := c.grantLocked()
	c.mu.Unlock()
	deliver(granted)
	return t, nil
}

// queueBound is the global queue bound, shrunk by detector pressure.
func (c *Controller) queueBound() int {
	bound := c.cfg.MaxQueue
	if c.cfg.Policy == Detector && c.pressure > 0 {
		bound >>= uint(c.pressure)
		if bound < 1 {
			bound = 1
		}
	}
	return bound
}

// boundVictim picks the queued ticket the newcomer may displace: the
// lowest-scoring queued ticket, and only if the newcomer strictly outranks
// it. FIFO never displaces. When ts is non-nil the search is restricted to
// that tenant's queue (per-tenant bound).
func (c *Controller) boundVictim(newcomer *Ticket, ts *tenantState) *Ticket {
	if c.cfg.Policy == FIFO {
		return nil
	}
	now := c.cfg.now()
	worst, worstScore := c.lowestQueued(ts, now)
	if worst == nil || score(newcomer, now) <= worstScore {
		return nil
	}
	return worst
}

// lowestQueued returns the lowest-scoring queued ticket at now and its
// score — of ts's queue when ts is non-nil, else of every queue — the newest
// arrival winning a tie; nil when nothing is queued there.
func (c *Controller) lowestQueued(ts *tenantState, now time.Time) (worst *Ticket, worstScore float64) {
	consider := func(q []*Ticket) {
		for _, qt := range q {
			s := score(qt, now)
			if worst == nil || s < worstScore || (s == worstScore && qt.seq > worst.seq) {
				worst, worstScore = qt, s
			}
		}
	}
	if ts != nil {
		consider(ts.queue)
	} else {
		for _, ts := range c.tenants {
			consider(ts.queue)
		}
	}
	return worst, worstScore
}

// score is the effective priority of a queued ticket: its priority plus one
// point per agingStep waited. Aging grows without bound, so every queued
// ticket eventually outranks fresh arrivals of any priority — no tenant
// starves.
func score(t *Ticket, now time.Time) float64 {
	return float64(t.prio) + float64(now.Sub(t.enqueued))/float64(agingStep)
}

func (c *Controller) nextSeq() int64 {
	c.seq++
	return c.seq
}

// shedError builds the typed error for a shed decision and counts it, on the
// global series and on the tenant's labeled series, split by code: a shed
// count by code or by tenant is a sum over that family.
func (c *Controller) shedError(tenant string, code Code, reason string) *Error {
	c.m.shed.Inc()
	c.m.tenantShed(tenant, code)
	retry := retryAfter
	if code == CodeQueueTimeout || code == CodeCanceled {
		retry = 0
	}
	return &Error{Code: code, Reason: reason, RetryAfter: retry}
}

// grantLocked admits queued tickets while slots are free, returning the
// granted tickets for delivery outside the lock (their channels are buffered;
// delivery never blocks, but communication is kept out of critical sections
// anyway).
func (c *Controller) grantLocked() []*Ticket {
	var granted []*Ticket
	for c.inFlight < c.limit {
		t := c.nextLocked()
		if t == nil {
			break
		}
		ts := c.tenants[t.Tenant]
		c.removeFromQueue(ts, t)
		t.state = stateGranted
		t.timer.Stop()
		ts.inFlight++
		c.inFlight++
		c.m.admitted.Inc()
		c.m.inFlight.Set(int64(c.inFlight))
		c.m.queueDepth.Set(int64(c.queued))
		c.m.queueWait.ObserveDuration(c.cfg.now().Sub(t.enqueued))
		c.m.tenantAdmitted(t.Tenant)
		granted = append(granted, t)
	}
	return granted
}

// nextLocked picks the next queued ticket per policy, or nil.
func (c *Controller) nextLocked() *Ticket {
	now := c.cfg.now()
	var best *Ticket
	bestScore := 0.0
	for _, ts := range c.tenants {
		if len(ts.queue) == 0 {
			continue
		}
		head := ts.queue[0] // per-tenant FIFO: the head is the oldest
		switch c.cfg.Policy {
		case FIFO:
			if best == nil || head.seq < best.seq {
				best = head
			}
		default: // Fair, Detector
			s := score(head, now)
			if best == nil || s > bestScore || (s == bestScore && head.seq < best.seq) {
				best, bestScore = head, s
			}
		}
	}
	return best
}

// removeFromQueue unlinks a queued ticket from its tenant queue.
func (c *Controller) removeFromQueue(ts *tenantState, t *Ticket) {
	for i, qt := range ts.queue {
		if qt == t {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			c.queued--
			return
		}
	}
}

// shedLocked sheds a queued ticket with the typed error; the decision is
// delivered on the ticket's buffered channel (single send, state-guarded).
func (c *Controller) shedLocked(t *Ticket, code Code, reason string) {
	if t.state != stateQueued {
		return
	}
	ts := c.tenants[t.Tenant]
	c.removeFromQueue(ts, t)
	c.forget(t.Tenant, ts)
	t.state = stateShed
	t.timer.Stop()
	err := c.shedError(t.Tenant, code, reason)
	c.m.queueDepth.Set(int64(c.queued))
	t.decided <- err // buffered(1), single send by state machine
}

// expire sheds a ticket whose queue timeout fired.
func (c *Controller) expire(t *Ticket) {
	c.mu.Lock()
	c.shedLocked(t, CodeQueueTimeout, "deadline expired while queued")
	granted := c.grantLocked()
	c.mu.Unlock()
	deliver(granted)
}

// cancel withdraws a queued ticket (client context ended). If the ticket
// was already decided, the decision is collected instead so no grant is
// lost: a concurrently granted slot is handed straight back via Release.
func (c *Controller) cancel(t *Ticket) error {
	c.mu.Lock()
	if t.state == stateQueued {
		c.shedLocked(t, CodeCanceled, "client canceled")
		granted := c.grantLocked()
		c.mu.Unlock()
		deliver(granted)
		// Drain our own decision so the channel cannot retain the error.
		<-t.decided
		return ErrCanceled
	}
	state := t.state
	c.mu.Unlock()
	switch state {
	case stateGranted:
		// grantLocked flips the state under the mutex, but deliver sends on
		// t.decided only after it is released — a non-blocking read here
		// would race the send and leak the in-flight slot. The send is
		// guaranteed by the state machine, so block for it, then hand the
		// slot back.
		<-t.decided
		c.Release(t)
		return ErrCanceled
	case stateShed:
		// shedLocked sends while holding the mutex: the error is present.
		return <-t.decided
	default: // stateReleased: the grant was already consumed and returned.
		return ErrCanceled
	}
}

// Release returns an admitted slot after the query finished (or failed) and
// admits the next queued ticket(s).
func (c *Controller) Release(t *Ticket) {
	c.mu.Lock()
	if t.state != stateGranted {
		c.mu.Unlock()
		return
	}
	t.state = stateReleased
	ts := c.tenants[t.Tenant]
	ts.inFlight--
	c.forget(t.Tenant, ts)
	c.inFlight--
	granted := c.grantLocked()
	c.m.inFlight.Set(int64(c.inFlight))
	idle := c.draining && c.inFlight == 0 && c.queued == 0
	c.mu.Unlock()
	deliver(granted)
	if idle {
		c.closeDrained()
	}
}

// deliver fires grant decisions outside the controller lock.
func deliver(granted []*Ticket) {
	for _, t := range granted {
		t.decided <- nil // buffered(1), single send by state machine
	}
}

// SetPressure feeds the detector-driven backpressure signal: level is the
// number of currently degraded detectors (0 = healthy). Under the Detector
// policy each level halves the admitted concurrency (never below 1) and the
// queue bound, shedding the excess queue tail with typed overload errors.
// Other policies record the gauge but do not react — that contrast is what
// the admission figure plots.
func (c *Controller) SetPressure(level int) {
	if level < 0 {
		level = 0
	}
	c.mu.Lock()
	c.pressure = level
	if c.cfg.Policy == Detector {
		limit := c.cfg.MaxConcurrent >> uint(level)
		if limit < 1 {
			limit = 1
		}
		c.limit = limit
		c.m.limit.Set(int64(c.limit))
		// Shed the lowest-priority queue tail beyond the shrunken bound.
		bound := c.queueBound()
		now := c.cfg.now()
		for c.queued > bound {
			worst, _ := c.lowestQueued(nil, now)
			if worst == nil {
				break
			}
			c.shedLocked(worst, CodeOverloaded, fmt.Sprintf("backpressure (level %d)", level))
		}
	}
	granted := c.grantLocked()
	c.mu.Unlock()
	deliver(granted)
}

// Drain stops admissions: queued tickets are shed with ErrDraining, new
// submissions are rejected, and Drained fires once the last in-flight query
// Releases. Safe to call more than once.
func (c *Controller) Drain() {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return
	}
	c.draining = true
	for _, ts := range c.tenants {
		for len(ts.queue) > 0 {
			c.shedLocked(ts.queue[0], CodeDraining, "server draining")
		}
	}
	idle := c.inFlight == 0 && c.queued == 0
	c.mu.Unlock()
	if idle {
		c.closeDrained()
	}
}

// closeDrained closes the drained channel exactly once.
func (c *Controller) closeDrained() {
	c.closer.Do(func() { close(c.drained) })
}

// Drained returns a channel closed once Drain completed: no queued work and
// no in-flight queries remain.
func (c *Controller) Drained() <-chan struct{} { return c.drained }

// TenantStats is the frozen view of a tenant with work queued or in flight.
// Its admitted and shed totals are on the AdmissionTenantAdmitted and
// AdmissionTenantShed series.
type TenantStats struct {
	Tenant   string `json:"tenant"`
	Queued   int    `json:"queued"`
	InFlight int    `json:"in_flight"`
}

// Stats is the frozen controller view for the /debug/admission endpoint.
type Stats struct {
	Policy           Policy        `json:"policy"`
	ConcurrencyLimit int           `json:"concurrency_limit"`
	Pressure         int           `json:"pressure"`
	InFlight         int           `json:"in_flight"`
	Queued           int           `json:"queued"`
	Draining         bool          `json:"draining"`
	Tenants          []TenantStats `json:"tenants"`
}

// Stats returns the current controller state (safe from any goroutine).
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Policy:           c.cfg.Policy,
		ConcurrencyLimit: c.limit,
		Pressure:         c.pressure,
		InFlight:         c.inFlight,
		Queued:           c.queued,
		Draining:         c.draining,
	}
	for name, ts := range c.tenants {
		s.Tenants = append(s.Tenants, TenantStats{Tenant: name, Queued: len(ts.queue), InFlight: ts.inFlight})
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Tenant < s.Tenants[j].Tenant })
	return s
}
