// Package faults is the deterministic fault-injection layer: a seeded
// injector that makes the simulated co-processor fail the way real
// accelerator stacks do (the fault taxonomy observed across GPU database
// deployments; cf. PAPERS.md). It schedules four kinds of fault, each set by
// one flag of the CLI:
//
//	transient allocator failures  AllocFailRate     -fault-alloc
//	PCIe transfer errors          TransferFailRate  -fault-transfer
//	full device resets            ResetCount        -fault-resets
//	stuck kernels                 StuckRate         -fault-stuck
//
// Every decision an Injector makes is drawn from one seeded PRNG inside the
// deterministic simulator, so a chaos run is reproducible bit for bit from
// its seed (-fault-seed): the same faults hit the same operators at the same
// virtual times. Injectors wrap device.Memory and bus.Bus through their fault
// hooks (WrapMemory / WrapBus); device resets and stuck kernels are polled by
// the execution engine (TakeReset / OpDelay), which keeps the injector free
// of callbacks into the engine. The engine counts what the faults do.
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

const (
	// stuckDelay is how long a stuck kernel hangs before making progress:
	// long enough that only a query deadline rescues the query.
	stuckDelay = 50 * time.Millisecond
	// resetMeanInterval is the mean virtual time between scheduled resets.
	resetMeanInterval = time.Millisecond
)

// Config describes one fault schedule. The zero value injects nothing.
type Config struct {
	// Seed feeds the injector's PRNG; runs with equal seeds and workloads
	// observe identical fault schedules.
	Seed int64

	// AllocFailRate is the probability that a device heap allocation fails
	// transiently (on top of genuine capacity failures).
	AllocFailRate float64
	// TransferFailRate is the probability that a bus transfer fails.
	TransferFailRate float64
	// ResetCount schedules this many full device resets at exponentially
	// distributed virtual times, 1ms apart on average.
	ResetCount int
	// StuckRate is the probability a GPU operator hangs for 50ms of virtual
	// time before making progress.
	StuckRate float64

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
}

// New creates an injector for the given schedule.
func New(cfg Config) *Injector {
	i := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	var at time.Duration
	for r := 0; r < cfg.ResetCount; r++ {
		// Exponential inter-arrival times from the seeded PRNG.
		at += time.Duration(i.rng.ExpFloat64() * float64(resetMeanInterval))
		i.resets = append(i.resets, at)
	}
	return i
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

// AllocFault decides whether a device allocation at virtual time t fails
// transiently, returning ErrInjectedAlloc when it does.
func (i *Injector) AllocFault(t time.Duration) error {
	if i.cfg.AllocFailRate <= 0 || i.rng.Float64() >= i.cfg.AllocFailRate {
		return nil
	}
	i.logInject("alloc", t)
	return fmt.Errorf("%w (t=%v)", ErrInjectedAlloc, t)
}

// TransferFault decides whether a bus transfer of n bytes at virtual time t
// fails, returning ErrInjectedTransfer when it does.
func (i *Injector) TransferFault(t time.Duration, n int64) error {
	if i.cfg.TransferFailRate <= 0 || i.rng.Float64() >= i.cfg.TransferFailRate {
		return nil
	}
	i.logInject("transfer", t)
	return fmt.Errorf("%w (%d bytes, t=%v)", ErrInjectedTransfer, n, t)
}

// TakeReset reports whether a scheduled device reset is due at or before
// virtual time t, consuming it. The engine polls this between operator steps
// and performs the actual reset (heap wipe, cache flush); several overdue
// resets coalesce into one observable reset per poll, like back-to-back
// driver restarts.
func (i *Injector) TakeReset(t time.Duration) bool {
	fired := false
	for len(i.resets) > 0 && i.resets[0] <= t {
		i.resets = i.resets[1:]
		fired = true
	}
	if fired {
		i.logInject("reset", t)
	}
	return fired
}

// OpDelay decides whether a GPU operator starting at virtual time t is
// stuck, returning the stall to charge before its kernel makes progress
// (0 = healthy).
func (i *Injector) OpDelay(t time.Duration) time.Duration {
	if i.cfg.StuckRate <= 0 || i.rng.Float64() >= i.cfg.StuckRate {
		return 0
	}
	i.logInject("stuck", t)
	return stuckDelay
}
