package exec

import (
	"testing"
	"time"
)

func TestBreakerStateString(t *testing.T) {
	if BreakerClosed.String() != "closed" || BreakerOpen.String() != "open" ||
		BreakerHalfOpen.String() != "half-open" {
		t.Fatal("state labels wrong")
	}
}

// trip records healthMinSamples faults at now: the fewest that open the
// breaker.
func trip(h *Health, now time.Duration) {
	for i := 0; i < healthMinSamples; i++ {
		h.BeginAttempt()
		h.RecordFault(now)
	}
}

// The full deterministic breaker life cycle: closed → (fault burst) open →
// (cooldown) half-open → (probe successes) closed.
func TestBreakerTripAndRecover(t *testing.T) {
	h := NewHealth()
	now := time.Duration(0)
	if !h.AllowGPU(now) || h.State() != BreakerClosed {
		t.Fatal("fresh breaker must be closed")
	}

	// Successes, then faults. The rate reaches healthTripRate (one half) on
	// the healthMinSamples'th outcome, and the breaker trips exactly then.
	for i := 0; i < healthMinSamples/2; i++ {
		h.BeginAttempt()
		h.RecordSuccess(now)
	}
	for i := 0; i < healthMinSamples/2-1; i++ {
		h.BeginAttempt()
		h.RecordFault(now)
	}
	if h.State() != BreakerClosed {
		t.Fatal("tripped below healthMinSamples")
	}
	h.BeginAttempt()
	h.RecordFault(now)
	if h.State() != BreakerOpen || h.Trips() != 1 {
		t.Fatalf("state=%v trips=%d, want open/1", h.State(), h.Trips())
	}
	if h.AllowGPU(now) {
		t.Fatal("open breaker admitted an operator")
	}

	// Before the cooldown elapses the device stays out of service.
	if h.AllowGPU(now + healthCooldown - time.Microsecond) {
		t.Fatal("breaker half-opened before the cooldown")
	}
	// After the cooldown one probe is admitted at a time.
	now += healthCooldown
	if !h.AllowGPU(now) || h.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open probe admitted", h.State())
	}
	h.BeginAttempt()
	if h.AllowGPU(now) {
		t.Fatal("second concurrent probe admitted")
	}
	h.RecordSuccess(now)
	for i := 1; i < healthProbeSuccesses; i++ {
		if h.State() != BreakerHalfOpen {
			t.Fatalf("%d probe successes closed the breaker, want %d", i, healthProbeSuccesses)
		}
		if !h.AllowGPU(now) {
			t.Fatal("next probe refused")
		}
		h.BeginAttempt()
		h.RecordSuccess(now)
	}
	if h.State() != BreakerClosed {
		t.Fatalf("state=%v after %d probe successes, want closed", h.State(), healthProbeSuccesses)
	}
	if h.FaultRate() != 0 {
		t.Fatal("window must be clear after recovery")
	}
}

// A fault during a half-open probe re-opens the breaker and restarts the
// cooldown; faults while open prolong the outage.
func TestBreakerProbeFailure(t *testing.T) {
	h := NewHealth()
	now := time.Duration(0)
	trip(h, now)
	if h.State() != BreakerOpen {
		t.Fatal("did not trip")
	}
	now += healthCooldown
	if !h.AllowGPU(now) {
		t.Fatal("probe refused after cooldown")
	}
	h.BeginAttempt()
	h.RecordFault(now)
	if h.State() != BreakerOpen || h.Trips() != 2 {
		t.Fatalf("state=%v trips=%d after failed probe, want open/2", h.State(), h.Trips())
	}
	// A standalone fault (device reset) during the outage pushes openedAt.
	now += healthCooldown / 2
	h.NoteFault(now)
	if h.AllowGPU(now + healthCooldown - time.Microsecond) {
		t.Fatal("outage must be prolonged by faults while open")
	}
	if !h.AllowGPU(now + healthCooldown) {
		t.Fatal("probe refused after the prolonged cooldown")
	}
}

// Capacity OOM aborts are neutral: a device that is merely busy never trips.
func TestBreakerIgnoresNeutralOutcomes(t *testing.T) {
	h := NewHealth()
	for i := 0; i < 100; i++ {
		h.BeginAttempt()
		h.RecordNeutral()
	}
	if h.State() != BreakerClosed || h.FaultRate() != 0 {
		t.Fatal("neutral outcomes affected the breaker")
	}
}

// The sliding window forgets old faults: steady successes after a burst keep
// the breaker closed.
func TestBreakerWindowSlides(t *testing.T) {
	h := NewHealth()
	now := time.Duration(0)
	h.BeginAttempt()
	h.RecordFault(now) // 1/1
	for i := 0; i < healthWindow-1; i++ {
		h.BeginAttempt()
		h.RecordSuccess(now)
	}
	if got, want := h.FaultRate(), 1.0/healthWindow; got != want {
		t.Fatalf("fault rate %v with the fault in a full window, want %v", got, want)
	}
	h.BeginAttempt()
	h.RecordSuccess(now)
	if h.State() != BreakerClosed {
		t.Fatal("breaker tripped on a stale fault")
	}
	if h.FaultRate() != 0 {
		t.Fatalf("fault rate %v, want 0 (fault slid out of the window)", h.FaultRate())
	}
}

// AllowGPU is idempotent: consulting it repeatedly for one decision must not
// change the admitted outcome.
func TestAllowGPUIdempotent(t *testing.T) {
	h := NewHealth()
	now := time.Duration(0)
	trip(h, now)
	now += healthCooldown
	for i := 0; i < 5; i++ {
		if !h.AllowGPU(now) {
			t.Fatalf("consultation %d flipped the decision", i)
		}
	}
	h.BeginAttempt()
	for i := 0; i < 5; i++ {
		if h.AllowGPU(now) {
			t.Fatalf("consultation %d admitted a second probe", i)
		}
	}
}
