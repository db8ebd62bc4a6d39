// Package faults is the deterministic fault-injection layer: seeded,
// schedulable injectors that make the simulated co-processor fail the way
// real accelerator stacks do — transient allocator failures, PCIe transfer
// errors, full device resets, and slow or stuck kernels (the fault taxonomy
// observed across GPU database deployments; cf. PAPERS.md).
//
// Every decision an Injector makes is drawn from one seeded PRNG inside the
// deterministic simulator, so a chaos run is reproducible bit for bit from
// its seed: the same faults hit the same operators at the same virtual
// times. Injectors wrap device.Memory and bus.Bus through their fault hooks
// (WrapMemory / WrapBus); device resets and operator slowdowns are polled by
// the execution engine (TakeReset / OpDelay), which keeps the injector free
// of callbacks into the engine.
//
// An injection window ([Start, Stop)) schedules the faults: outside the
// window the injector is silent, which is how recovery experiments model
// "the fault condition clears" (the circuit breaker must re-admit the
// device afterwards).
package faults

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"
)

// ErrInjectedAlloc is the transient device-allocator failure produced by the
// allocation injector. It is retryable: the engine backs off and retries the
// operator before falling back to the CPU.
var ErrInjectedAlloc = errors.New("faults: injected transient allocation failure")

// ErrInjectedTransfer is the PCIe transfer error produced by the transfer
// injector. It is retryable like ErrInjectedAlloc.
var ErrInjectedTransfer = errors.New("faults: injected transfer error")

// IsTransient reports whether err is a retryable injected fault (as opposed
// to a capacity ErrOutOfMemory, which placement — not retry — must handle).
func IsTransient(err error) bool {
	return errors.Is(err, ErrInjectedAlloc) || errors.Is(err, ErrInjectedTransfer)
}

// Config describes one fault schedule. The zero value injects nothing.
type Config struct {
	// Seed feeds the injector's PRNG; runs with equal seeds and workloads
	// observe identical fault schedules.
	Seed int64

	// AllocFailRate is the probability that a device heap allocation fails
	// transiently (on top of genuine capacity failures).
	AllocFailRate float64
	// TransferFailRate is the probability that an operator-path bus transfer
	// fails.
	TransferFailRate float64

	// ResetCount schedules this many full device resets at exponentially
	// distributed virtual times with mean ResetMeanInterval. ResetAt adds
	// explicit reset times; both may be combined.
	ResetCount        int
	ResetMeanInterval time.Duration
	ResetAt           []time.Duration

	// SlowRate is the probability a GPU operator runs SlowFactor× slower
	// (default factor 8). StuckRate is the probability a GPU operator hangs
	// for StuckDelay of virtual time before making progress (default 50ms) —
	// long enough that only a query deadline rescues the query.
	SlowRate   float64
	SlowFactor float64
	StuckRate  float64
	StuckDelay time.Duration

	// Start and Stop bound the injection window in virtual time. Faults are
	// injected only at times t with Start <= t < Stop; Stop zero means no
	// upper bound.
	Start time.Duration
	Stop  time.Duration

	// Log, when non-nil, receives one debug-level record per injected fault
	// (kind + virtual time). Logging never influences the fault schedule —
	// the PRNG draws are identical with and without it.
	Log *slog.Logger
}

// Injector draws fault decisions from one seeded PRNG.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	resets []time.Duration // ascending; consumed front to back

	allocFaults    int64
	transferFaults int64
	resetsFired    int64
	slowOps        int64
	stuckOps       int64
}

// New creates an injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.SlowFactor <= 0 {
		cfg.SlowFactor = 8
	}
	if cfg.StuckDelay <= 0 {
		cfg.StuckDelay = 50 * time.Millisecond
	}
	if cfg.ResetMeanInterval <= 0 {
		cfg.ResetMeanInterval = time.Millisecond
	}
	i := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	i.resets = append(i.resets, cfg.ResetAt...)
	at := cfg.Start
	for r := 0; r < cfg.ResetCount; r++ {
		// Exponential inter-arrival times from the seeded PRNG.
		at += time.Duration(i.rng.ExpFloat64() * float64(cfg.ResetMeanInterval))
		i.resets = append(i.resets, at)
	}
	sortDurations(i.resets)
	return i
}

func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ { // insertion sort: tiny, allocation-free
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// logInject emits one debug record for an injected fault; a nil or
// level-gated logger makes it a cheap no-op.
func (i *Injector) logInject(kind string, t time.Duration) {
	if i.cfg.Log == nil || !i.cfg.Log.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	i.cfg.Log.LogAttrs(context.Background(), slog.LevelDebug, "fault injected",
		slog.String("component", "faults"),
		slog.Duration("vt", t),
		slog.String("kind", kind))
}

// active reports whether the injection window covers virtual time t.
func (i *Injector) active(t time.Duration) bool {
	if t < i.cfg.Start {
		return false
	}
	return i.cfg.Stop == 0 || t < i.cfg.Stop
}

// AllocFault decides whether a device allocation at virtual time t fails
// transiently, returning ErrInjectedAlloc when it does.
func (i *Injector) AllocFault(t time.Duration) error {
	if i.cfg.AllocFailRate <= 0 || !i.active(t) {
		return nil
	}
	if i.rng.Float64() < i.cfg.AllocFailRate {
		i.allocFaults++
		i.logInject("alloc", t)
		return fmt.Errorf("%w (t=%v)", ErrInjectedAlloc, t)
	}
	return nil
}

// TransferFault decides whether a bus transfer of n bytes at virtual time t
// fails, returning ErrInjectedTransfer when it does.
func (i *Injector) TransferFault(t time.Duration, n int64) error {
	if i.cfg.TransferFailRate <= 0 || !i.active(t) {
		return nil
	}
	if i.rng.Float64() < i.cfg.TransferFailRate {
		i.transferFaults++
		i.logInject("transfer", t)
		return fmt.Errorf("%w (%d bytes, t=%v)", ErrInjectedTransfer, n, t)
	}
	return nil
}

// TakeReset reports whether a scheduled device reset is due at or before
// virtual time t, consuming it. The engine polls this between operator steps
// and performs the actual reset (heap wipe, cache flush, value
// invalidation); several overdue resets coalesce into one observable reset
// per poll, like back-to-back driver restarts.
func (i *Injector) TakeReset(t time.Duration) bool {
	fired := false
	for len(i.resets) > 0 && i.resets[0] <= t {
		i.resets = i.resets[1:]
		i.resetsFired++
		fired = true
	}
	if fired {
		i.logInject("reset", t)
	}
	return fired
}

// OpDelay decides whether a GPU operator starting at virtual time t is
// degraded: it returns a duration multiplier (1 = healthy) and a stall to
// charge before the kernel makes progress (0 = none).
func (i *Injector) OpDelay(t time.Duration) (factor float64, stall time.Duration) {
	factor = 1
	if !i.active(t) {
		return factor, 0
	}
	if i.cfg.StuckRate > 0 && i.rng.Float64() < i.cfg.StuckRate {
		i.stuckOps++
		i.logInject("stuck", t)
		return factor, i.cfg.StuckDelay
	}
	if i.cfg.SlowRate > 0 && i.rng.Float64() < i.cfg.SlowRate {
		i.slowOps++
		i.logInject("slow", t)
		factor = i.cfg.SlowFactor
	}
	return factor, 0
}

// Counters reports how many faults of each kind the injector produced.
type Counters struct {
	AllocFaults    int64
	TransferFaults int64
	Resets         int64
	SlowOps        int64
	StuckOps       int64
}

// Counters returns the injection counts so far.
func (i *Injector) Counters() Counters {
	return Counters{
		AllocFaults:    i.allocFaults,
		TransferFaults: i.transferFaults,
		Resets:         i.resetsFired,
		SlowOps:        i.slowOps,
		StuckOps:       i.stuckOps,
	}
}

// PendingResets returns how many scheduled resets have not fired yet.
func (i *Injector) PendingResets() int { return len(i.resets) }
