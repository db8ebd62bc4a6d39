package admission

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
		now:           clk.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// queueWait is the queue timeout of a test's tickets: longer than any test
// runs, so only a test that asks for a timeout sees one.
const queueWait = time.Minute

// admit submits and waits, failing the test on any shed.
func admit(t *testing.T, c *Controller, tenant string) *Ticket {
	t.Helper()
	tk, err := c.Submit(tenant, 0, queueWait)
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
	tk, err := c.Submit(tenant, prio, queueWait)
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
		cfg.MaxTenantQueue = 2
	}))
	admit(t, c, "a")
	queued(t, c, "a", 0)
	queued(t, c, "a", 0)
	_, err := c.Submit("a", 100, queueWait) // priority is irrelevant under FIFO
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
		cfg.MaxTenantQueue = 1
	}))
	admit(t, c, "a")
	low := queued(t, c, "a", 0)
	tk, err := c.Submit("a", 10, queueWait) // outranks the queued ticket
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
		cfg.MaxTenantQueue = 10 // per-tenant bound never binds here
	}))
	admit(t, c, "a")
	low := queued(t, c, "a", 0)
	queued(t, c, "a", 5)
	if _, err := c.Submit("b", 10, queueWait); err != nil { // global bound displaces
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
	}))
	running := admit(t, c, "light")
	old := queued(t, c, "light", 0)
	clk.Advance(100 * agingStep) // old ticket ages 100 points
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

// TestIdleTenantStateIsFreed holds the controller to the tenants it is
// serving: tenant ids are the clients' to choose, so state kept for every id
// ever seen would make each submit scan them all and /debug/admission list
// them.
func TestIdleTenantStateIsFreed(t *testing.T) {
	c := New(testConfig(newFakeClock(), nil))
	for i := 0; i < 10_000; i++ {
		c.Release(admit(t, c, fmt.Sprintf("tenant-%d", i)))
	}
	if s := c.Stats(); len(s.Tenants) != 0 {
		t.Fatalf("%d tenants listed after every query was released, want none", len(s.Tenants))
	}
	// A tenant is listed while it has work queued or in flight, and only then.
	a, b := admit(t, c, "a"), admit(t, c, "b")
	waiting := queued(t, c, "b", 0)
	if got := c.Stats().Tenants; len(got) != 2 || got[0] != (TenantStats{"a", 0, 1}) || got[1] != (TenantStats{"b", 1, 1}) {
		t.Fatalf("tenants %+v, want a with one in flight and b with one in flight and one queued", got)
	}
	c.Drain()
	if err := waiting.Wait(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("queued at drain: want ErrDraining, got %v", err)
	}
	c.Release(a)
	c.Release(b)
	if s := c.Stats(); len(s.Tenants) != 0 {
		t.Fatalf("tenants %+v after the drain, want none", s.Tenants)
	}
}

// TestZeroConfigDefaults pins the bounds a zero Config gets, which are the
// ones serve mode runs with: 8 admitted, a queue of 64, 17 of them a
// tenant's.
func TestZeroConfigDefaults(t *testing.T) {
	cfg := New(Config{}).cfg
	if cfg.Policy != Fair || cfg.MaxConcurrent != 8 || cfg.MaxQueue != 64 || cfg.MaxTenantQueue != 17 {
		t.Fatalf("zero Config became %s, %d admitted, queue %d, tenant queue %d; want fair, 8, 64, 17",
			cfg.Policy, cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxTenantQueue)
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
	tk, err := c.Submit("a", 0, queueWait)
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
		cfg.MaxTenantQueue = 8
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
	reg := trace.NewRegistry()
	c := New(testConfig(clk, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.Registry = reg
	}))
	running := admit(t, c, "a")
	waiting := queued(t, c, "a", 0)
	c.Drain()
	if err := waiting.Wait(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("queued at drain: want ErrDraining, got %v", err)
	}
	for _, tenant := range []string{"a", "late"} {
		if _, err := c.Submit(tenant, 0, queueWait); !errors.Is(err, ErrDraining) {
			t.Fatalf("submit by %s after drain: want ErrDraining, got %v", tenant, err)
		}
	}
	// An arrival turned away while draining counts on its tenant's labeled
	// series, as the queue-full refusals do, and leaves no tenant state.
	snap := reg.Snapshot()
	for tenant, want := range map[string]int64{"a": 2, "late": 1} {
		counter := snap.Counters[trace.LabeledName("AdmissionTenantShed",
			"tenant", tenant, "code", string(CodeDraining))]
		if counter != want {
			t.Errorf("tenant %s: labeled draining counter %d, want %d", tenant, counter, want)
		}
	}
	if got := c.Stats().Tenants; len(got) != 1 || got[0] != (TenantStats{Tenant: "a", InFlight: 1}) {
		t.Errorf("tenants while draining: %+v, want only a, one in flight", got)
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
		cfg.MaxTenantQueue = 1
		cfg.Policy = FIFO
		cfg.Registry = reg
	}))
	a := admit(t, c, "a")
	queued(t, c, "a", 0)
	if _, err := c.Submit("a", 0, queueWait); err == nil {
		t.Fatal("expected shed")
	}
	c.Release(a)
	snap := reg.Snapshot()
	want := map[string]int64{
		"AdmissionAdmitted": 2,
		"AdmissionQueued":   2,
		"AdmissionShed":     1,
		trace.LabeledName("AdmissionTenantShed", "tenant", "a", "code", string(CodeTenantLimit)): 1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	// A shed is counted once a family: by code and by tenant are sums over
	// AdmissionTenantShed, not series of their own.
	for name := range snap.Counters {
		if strings.HasPrefix(name, "AdmissionShed") && name != "AdmissionShed" || name == "AdmissionQueueTimeouts" {
			t.Errorf("shed counted again under %s", name)
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

// TestConcurrentChurn hammers the controller from many goroutines to give
// the race detector surface area over the grant/shed/cancel paths.
func TestConcurrentChurn(t *testing.T) {
	c := New(Config{
		Policy:        Detector,
		MaxConcurrent: 4,
		MaxQueue:      16,
		Registry:      trace.NewRegistry(),
	})
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Submit(tenants[i%len(tenants)], i%3, 50*time.Millisecond)
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
	if s := c.Stats(); len(s.Tenants) != 0 {
		t.Errorf("tenants %+v after the drain, want none", s.Tenants)
	}
}
