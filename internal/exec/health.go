package exec

import (
	"time"
)

// BreakerState is the circuit-breaker state of the device health tracker.
type BreakerState uint8

// Breaker states.
const (
	// BreakerClosed: the device is healthy; placement is unrestricted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the device tripped; all placement degrades to CPU-only
	// until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: after the cooldown, single probe operators are
	// admitted to the device; enough successes close the breaker, any fault
	// re-opens it.
	BreakerHalfOpen
)

// String returns the state label.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// The breaker's thresholds.
const (
	// healthWindow is the number of recent device outcomes the fault rate is
	// computed over.
	healthWindow = 16
	// healthMinSamples is the minimum number of windowed outcomes before the
	// breaker may trip — a single early fault must not demote the device.
	healthMinSamples = 6
	// healthTripRate is the windowed fault rate at which the breaker opens.
	healthTripRate = 0.5
	// healthCooldown is the virtual time the breaker stays open before
	// admitting probes — a few operator durations.
	healthCooldown = 2 * time.Millisecond
	// healthProbeSuccesses is the number of consecutive successful probes
	// that close a half-open breaker.
	healthProbeSuccesses = 3
)

// Health is the device health tracker: a sliding-window fault counter with
// circuit-breaker semantics. Infrastructure faults (injected allocator
// failures, transfer errors, device resets) count against the device;
// capacity aborts (heap OOM) do not — those are normal engine operation that
// operator placement already handles (§2.5.1), and conflating them would
// demote a merely *busy* device.
//
// Every placement decision consults the tracker (the engine enforces it
// centrally for compile-time placements, run-time placers also consult it
// directly), implementing the degradation ladder's last rung: a device that
// keeps faulting is taken out of service and query processing continues
// CPU-only, never blocked on broken hardware.
type Health struct {
	state    BreakerState
	window   [healthWindow]bool // true = fault
	next     int
	filled   int
	faults   int // faults currently inside the window
	openedAt time.Duration
	inFlight int // device attempts currently executing (probe limiting)
	probeOK  int
	trips    int64
}

// NewHealth creates a closed-breaker tracker.
func NewHealth() *Health { return &Health{} }

// State returns the breaker state as of the last recorded event. It does not
// apply the cooldown transition; AllowGPU does.
func (h *Health) State() BreakerState { return h.state }

// Trips returns how many times the breaker opened.
func (h *Health) Trips() int64 { return h.trips }

// FaultRate returns the fault rate over the current window (0 with no
// samples).
func (h *Health) FaultRate() float64 {
	if h.filled == 0 {
		return 0
	}
	return float64(h.faults) / float64(h.filled)
}

// AllowGPU reports whether an operator may be placed on the device at
// virtual time now. In the open state it performs the cooldown transition to
// half-open; in the half-open state it admits one probe at a time. It is
// idempotent: consulting it several times for one decision is harmless.
func (h *Health) AllowGPU(now time.Duration) bool {
	switch h.state {
	case BreakerOpen:
		if now-h.openedAt < healthCooldown {
			return false
		}
		h.state = BreakerHalfOpen
		h.probeOK = 0
		return h.inFlight == 0
	case BreakerHalfOpen:
		return h.inFlight == 0
	default:
		return true
	}
}

// BeginAttempt registers a device attempt starting now; every BeginAttempt
// is balanced by exactly one of RecordSuccess, RecordFault, or RecordNeutral.
func (h *Health) BeginAttempt() { h.inFlight++ }

func (h *Health) endAttempt() {
	if h.inFlight > 0 {
		h.inFlight--
	}
}

// RecordSuccess ends a device attempt that completed cleanly.
func (h *Health) RecordSuccess(now time.Duration) {
	h.endAttempt()
	if h.state == BreakerHalfOpen {
		h.probeOK++
		if h.probeOK >= healthProbeSuccesses {
			h.close()
		}
		return
	}
	h.observe(false)
}

// RecordNeutral ends a device attempt whose outcome says nothing about
// device health (a capacity OOM abort, a query-logic error).
func (h *Health) RecordNeutral() { h.endAttempt() }

// RecordFault ends a device attempt that hit an infrastructure fault. For
// faults outside an attempt (a failed copy-back on the CPU path, a device
// reset) use NoteFault.
func (h *Health) RecordFault(now time.Duration) {
	h.endAttempt()
	switch h.state {
	case BreakerHalfOpen:
		h.trip(now) // the probe failed: back to open, restart the cooldown
	case BreakerOpen:
		h.openedAt = now // faults during the outage prolong it
	default:
		h.observe(true)
		if h.filled >= healthMinSamples && h.FaultRate() >= healthTripRate {
			h.trip(now)
		}
	}
}

// NoteFault records a fault that happened outside a device attempt (e.g. a
// device reset observed by the engine). Identical to RecordFault except it
// does not end an attempt.
func (h *Health) NoteFault(now time.Duration) {
	h.inFlight++ // balance the endAttempt inside RecordFault
	h.RecordFault(now)
}

func (h *Health) observe(fault bool) {
	if h.filled == len(h.window) {
		if h.window[h.next] {
			h.faults--
		}
	} else {
		h.filled++
	}
	h.window[h.next] = fault
	if fault {
		h.faults++
	}
	h.next = (h.next + 1) % len(h.window)
}

func (h *Health) trip(now time.Duration) {
	h.state = BreakerOpen
	h.openedAt = now
	h.trips++
	h.clearWindow()
}

func (h *Health) close() {
	h.state = BreakerClosed
	h.probeOK = 0
	h.clearWindow()
}

func (h *Health) clearWindow() {
	h.window = [healthWindow]bool{}
	h.next, h.filled, h.faults = 0, 0, 0
}
