package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"robustdb/internal/trace"
)

// fakeClock is a hand-advanced clock so aging and queue-wait tests do not
// sleep.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func testConfig(clk *fakeClock, mut func(*Config)) Config {
	cfg := Config{
		Policy:        Fair,
		MaxConcurrent: 2,
		MaxQueue:      8,
		QueueTimeout:  -1, // disabled unless a test opts in
		now:           clk.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// admit submits and waits, failing the test on any shed.
func admit(t *testing.T, c *Controller, tenant string) *Ticket {
	t.Helper()
	tk, err := c.Submit(tenant, 0, 0)
	if err != nil {
		t.Fatalf("Submit(%s): %v", tenant, err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("Wait(%s): %v", tenant, err)
	}
	return tk
}

// queued submits and asserts the ticket is still undecided.
func queued(t *testing.T, c *Controller, tenant string, prio int) *Ticket {
	t.Helper()
	tk, err := c.Submit(tenant, prio, 0)
	if err != nil {
		t.Fatalf("Submit(%s): %v", tenant, err)
	}
	select {
	case err := <-tk.decided:
		t.Fatalf("ticket for %s decided early: %v", tenant, err)
	default:
	}
	return tk
}

func TestAdmitUpToLimitThenQueue(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, nil))
	a := admit(t, c, "a")
	b := admit(t, c, "a")
	third := queued(t, c, "a", 0)
	c.Release(a)
	if err := third.Wait(context.Background()); err != nil {
		t.Fatalf("queued ticket not granted after release: %v", err)
	}
	c.Release(b)
	c.Release(third)
	s := c.Stats()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("stats after full release: %+v", s)
	}
}

func TestFIFOQueueFullRejectsNewcomer(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.Policy = FIFO
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 2
		cfg.DefaultTenant.MaxQueue = 2
	}))
	admit(t, c, "a")
	queued(t, c, "a", 0)
	queued(t, c, "a", 0)
	_, err := c.Submit("a", 100, 0) // priority is irrelevant under FIFO
	if !errors.Is(err, ErrTenantLimit) && !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want typed overload error, got %v", err)
	}
	var ae *Error
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("shed error must carry a Retry-After hint, got %#v", err)
	}
}

func TestFairDisplacesLowestPriorityWhenFull(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 1
		cfg.DefaultTenant.MaxQueue = 1
	}))
	admit(t, c, "a")
	low := queued(t, c, "a", 0)
	tk, err := c.Submit("a", 10, 0) // outranks the queued ticket
	if err != nil {
		t.Fatalf("high-priority submit displaced nothing: %v", err)
	}
	// The victim hit its own tenant's queue bound, so the shed signal is the
	// tenant-local code, not global overload.
	if err := low.Wait(context.Background()); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("displaced ticket: want ErrTenantLimit, got %v", err)
	}
	select {
	case err := <-tk.decided:
		t.Fatalf("newcomer decided early: %v", err)
	default:
	}
}

func TestFairDisplacementAtGlobalBoundShedsOverloaded(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 2
		cfg.DefaultTenant.MaxQueue = 10 // per-tenant bound never binds here
	}))
	admit(t, c, "a")
	low := queued(t, c, "a", 0)
	queued(t, c, "a", 5)
	if _, err := c.Submit("b", 10, 0); err != nil { // global bound displaces
		t.Fatalf("high-priority submit displaced nothing: %v", err)
	}
	if err := low.Wait(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("globally displaced ticket: want ErrOverloaded, got %v", err)
	}
}

func TestAgingPreventsStarvation(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.AgingStep = 10 * time.Millisecond
	}))
	running := admit(t, c, "light")
	old := queued(t, c, "light", 0)
	clk.Advance(time.Second) // old ticket ages 100 points
	fresh := queued(t, c, "heavy", 50)
	c.Release(running)
	if err := old.Wait(context.Background()); err != nil {
		t.Fatalf("aged ticket should win over fresh high-priority: %v", err)
	}
	c.Release(old)
	if err := fresh.Wait(context.Background()); err != nil {
		t.Fatalf("fresh ticket eventually admitted: %v", err)
	}
}

func TestTenantInFlightCapIsWorkConserving(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 4
		cfg.Tenants = map[string]TenantConfig{"capped": {MaxInFlight: 1}}
	}))
	admit(t, c, "capped")
	blocked := queued(t, c, "capped", 0)
	// The capped tenant's queued ticket must not block another tenant.
	other := admit(t, c, "other")
	c.Release(other)
	select {
	case <-blocked.decided:
		t.Fatal("capped tenant admitted beyond its in-flight bound")
	default:
	}
}

func TestQueueTimeoutShedsTyped(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
	}))
	admit(t, c, "a")
	tk, err := c.Submit("a", 0, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := tk.Wait(context.Background()); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("want ErrQueueTimeout, got %v", err)
	}
}

func TestContextCancelWithdraws(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
	}))
	running := admit(t, c, "a")
	tk, err := c.Submit("a", 0, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The canceled ticket must not hold a slot: the next submit gets it.
	c.Release(running)
	next := admit(t, c, "a")
	c.Release(next)
}

// TestCancelOfGrantedUndeliveredTicketReturnsSlot reproduces the race window
// between grantLocked (state flips to granted under the lock) and deliver
// (the send on decided happens after unlock): a cancel arriving inside that
// window must wait for the guaranteed send and hand the slot back, never
// leak it.
func TestCancelOfGrantedUndeliveredTicketReturnsSlot(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) { cfg.MaxConcurrent = 1 }))
	a := admit(t, c, "a")
	b := queued(t, c, "a", 0)
	// Re-create Release's critical section by hand, stopping before deliver:
	// b is now stateGranted but nothing has been sent on b.decided yet.
	c.mu.Lock()
	a.state = stateReleased
	c.tenants["a"].inFlight--
	c.inFlight--
	granted := c.grantLocked()
	c.mu.Unlock()
	if len(granted) != 1 || granted[0] != b {
		t.Fatalf("setup: want b granted-undelivered, got %v", granted)
	}
	done := make(chan error, 1)
	go func() { done <- c.cancel(b) }()
	deliver(granted) // the send cancel must block for
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel of granted-undelivered ticket: want ErrCanceled, got %v", err)
	}
	if s := c.Stats(); s.InFlight != 0 {
		t.Fatalf("in-flight slot leaked after cancel: %+v", s)
	}
	// The slot must be reusable immediately.
	next := admit(t, c, "a")
	c.Release(next)
}

func TestDetectorPressureShrinksAndSheds(t *testing.T) {
	clk := newFakeClock()
	reg := trace.NewRegistry()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.Policy = Detector
		cfg.MaxConcurrent = 4
		cfg.MaxQueue = 4
		cfg.DefaultTenant.MaxQueue = 8
		cfg.Registry = reg
	}))
	var granted []*Ticket
	for i := 0; i < 4; i++ {
		granted = append(granted, admit(t, c, "a"))
	}
	tail := make([]*Ticket, 0, 4)
	for i := 0; i < 4; i++ {
		tail = append(tail, queued(t, c, "a", i))
	}
	c.SetPressure(2) // limit 4→1, queue bound 4→1: three lowest shed
	shed := 0
	for _, tk := range tail {
		select {
		case err := <-tk.decided:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("pressure shed: want ErrOverloaded, got %v", err)
			}
			shed++
		default:
		}
	}
	if shed != 3 {
		t.Fatalf("pressure should shed 3 queue-tail tickets, shed %d", shed)
	}
	if got := c.Stats().ConcurrencyLimit; got != 1 {
		t.Fatalf("pressure 2: want concurrency limit 1, got %d", got)
	}
	// In-flight work is never killed by pressure; it drains naturally and
	// the survivor is admitted only once in-flight is under the new limit.
	for _, g := range granted {
		c.Release(g)
	}
	for _, tk := range tail {
		select {
		case err := <-tk.decided:
			if err != nil {
				t.Fatalf("surviving tail ticket: %v", err)
			}
		default:
		}
	}
	c.SetPressure(0)
	if got := c.Stats().ConcurrencyLimit; got != 4 {
		t.Fatalf("pressure cleared: want limit 4, got %d", got)
	}
}

func TestFairPolicyIgnoresPressureLimit(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, nil)) // Fair
	c.SetPressure(3)
	if got := c.Stats().ConcurrencyLimit; got != 2 {
		t.Fatalf("fair policy must not shrink on pressure: limit %d", got)
	}
	if got := c.Stats().Pressure; got != 3 {
		t.Fatalf("pressure still recorded: %d", got)
	}
}

func TestDrainShedsQueuedAndSignalsIdle(t *testing.T) {
	clk := newFakeClock()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
	}))
	running := admit(t, c, "a")
	waiting := queued(t, c, "a", 0)
	c.Drain()
	if err := waiting.Wait(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("queued at drain: want ErrDraining, got %v", err)
	}
	if _, err := c.Submit("a", 0, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: want ErrDraining, got %v", err)
	}
	select {
	case <-c.Drained():
		t.Fatal("drained before in-flight released")
	default:
	}
	c.Release(running)
	select {
	case <-c.Drained():
	case <-time.After(2 * time.Second):
		t.Fatal("Drained never closed")
	}
	c.Drain() // idempotent
}

func TestMetricsSeries(t *testing.T) {
	clk := newFakeClock()
	reg := trace.NewRegistry()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 1
		cfg.DefaultTenant.MaxQueue = 1
		cfg.Policy = FIFO
		cfg.Registry = reg
	}))
	a := admit(t, c, "a")
	queued(t, c, "a", 0)
	if _, err := c.Submit("a", 0, 0); err == nil {
		t.Fatal("expected shed")
	}
	c.Release(a)
	snap := reg.Snapshot()
	want := map[string]int64{
		"AdmissionAdmitted":        2,
		"AdmissionQueued":          2,
		"AdmissionShed":            1,
		"AdmissionShedTenantLimit": 1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if got := snap.Gauges["AdmissionConcurrencyLimit"]; got != 1 {
		t.Errorf("AdmissionConcurrencyLimit = %d, want 1", got)
	}
}

func TestErrorFormattingAndIs(t *testing.T) {
	e := &Error{Code: CodeOverloaded, Reason: "queue full (64)", RetryAfter: time.Second}
	if !errors.Is(e, ErrOverloaded) {
		t.Fatal("errors.Is by code failed")
	}
	if errors.Is(e, ErrDraining) {
		t.Fatal("errors.Is must not cross codes")
	}
	if e.Error() != "admission: overloaded: queue full (64)" {
		t.Fatalf("Error() = %q", e.Error())
	}
	if (&Error{Code: CodeDraining}).Error() != "admission: draining" {
		t.Fatalf("bare Error() = %q", (&Error{Code: CodeDraining}).Error())
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{FIFO, Fair, Detector} {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy must reject unknown policies")
	}
}

// TestConcurrentChurn hammers the controller from many goroutines to give
// the race detector surface area over the grant/shed/cancel paths.
func TestConcurrentChurn(t *testing.T) {
	c := New(Config{
		Policy:        Detector,
		MaxConcurrent: 4,
		MaxQueue:      16,
		QueueTimeout:  50 * time.Millisecond,
		Registry:      trace.NewRegistry(),
	})
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Submit(tenants[i%len(tenants)], i%3, 0)
			if err != nil {
				return
			}
			ctx := context.Background()
			if i%7 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(context.Background())
				cancel()
			}
			if err := tk.Wait(ctx); err != nil {
				return
			}
			c.Release(tk)
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 8; i++ {
			c.SetPressure(i % 3)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	c.Drain()
	select {
	case <-c.Drained():
	case <-time.After(2 * time.Second):
		t.Fatal("drain after churn never completed")
	}
}
