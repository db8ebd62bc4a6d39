package exec

import (
	"errors"
	"testing"
	"time"

	"robustdb/internal/bus"
	"robustdb/internal/column"
	"robustdb/internal/cost"
	"robustdb/internal/faults"
	"robustdb/internal/sim"
)

// faultFreeLatency measures the GPU latency of testPlan without faults, for
// sizing injection windows and deadlines.
func faultFreeLatency(t *testing.T, rows int) time.Duration {
	t.Helper()
	e := New(testCatalog(rows), Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	_, st := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	return st.Latency
}

// An injector with zero rates must leave the engine's behavior bit-for-bit
// identical to no injector at all: installing the fault plumbing is free.
func TestZeroRateInjectorIsTransparent(t *testing.T) {
	cat := testCatalog(10000)
	base := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	_, stBase := runQueryOnce(t, base, testPlan(), fixedPlacer{cost.GPU})
	wired := New(cat, Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		Faults: faults.New(faults.Config{Seed: 1}),
	})
	_, stWired := runQueryOnce(t, wired, testPlan(), fixedPlacer{cost.GPU})
	if stBase.Latency != stWired.Latency {
		t.Fatalf("zero-rate injector changed latency: %v vs %v", stBase.Latency, stWired.Latency)
	}
	if wired.Metrics.Retries.Load() != 0 || wired.Health.Trips() != 0 {
		t.Fatal("zero-rate injector produced fault-tolerance activity")
	}
}

// injectUntil consults inj for every device allocation and bus transfer the
// engine makes before virtual time stop, and faults nothing afterwards: a
// fault condition that clears, through the hooks the injector itself uses.
func injectUntil(e *Engine, inj *faults.Injector, stop time.Duration) {
	e.Heap.SetAllocHook(func(int64) error {
		if now := e.Sim.Now(); now < stop {
			return inj.AllocFault(now)
		}
		return nil
	})
	e.Bus.SetTransferHook(func(_ bus.Direction, n int64) error {
		if now := e.Sim.Now(); now < stop {
			return inj.TransferFault(now, n)
		}
		return nil
	})
}

// A transient transfer fault inside a short fault burst is absorbed by
// retry: the operator succeeds on the device on its second attempt.
func TestTransientFaultRetrySucceeds(t *testing.T) {
	cat := testCatalog(10000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	// Every transfer in the first microsecond faults; the retry backoff
	// carries the second attempt past the burst.
	injectUntil(e, faults.New(faults.Config{Seed: 1, TransferFailRate: 1}), time.Microsecond)
	v, _ := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if e.Metrics.Retries.Load() == 0 || e.Metrics.TransferFaults.Load() == 0 {
		t.Fatalf("retries=%d transferFaults=%d, want both > 0",
			e.Metrics.Retries.Load(), e.Metrics.TransferFaults.Load())
	}
	if e.Metrics.GPUOperators.Load() != 3 {
		t.Fatalf("gpu ops = %d, want 3 (retry must keep the device)", e.Metrics.GPUOperators.Load())
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d", e.Heap.Used())
	}
}

// Permanent transfer faults exhaust the retry budget: the query degrades to
// the CPU, completes correctly, trips the breaker, and leaks nothing.
func TestRetryExhaustionDegradesToCPU(t *testing.T) {
	cat := testCatalog(10000)
	e := New(cat, Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		Faults: faults.New(faults.Config{Seed: 1, TransferFailRate: 1}),
	})
	v, _ := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if e.Metrics.CPUOperators.Load() != 3 || e.Metrics.GPUOperators.Load() != 0 {
		t.Fatalf("ops: cpu=%d gpu=%d, want all on CPU", e.Metrics.CPUOperators.Load(), e.Metrics.GPUOperators.Load())
	}
	if e.Health.Trips() == 0 {
		t.Fatal("permanent faults must trip the breaker")
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d", e.Heap.Used())
	}
}

// Injected allocator faults follow the same ladder as transfer faults.
func TestAllocFaultRetry(t *testing.T) {
	cat := testCatalog(10000)
	// Tiny cache forces every column through Reservation.Grow, which the
	// alloc hook can fault.
	e := New(cat, Config{CacheBytes: 8, HeapBytes: 1 << 30})
	injectUntil(e, faults.New(faults.Config{Seed: 1, AllocFailRate: 1}), time.Microsecond)
	v, _ := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if e.Metrics.AllocFaults.Load() == 0 || e.Metrics.Retries.Load() == 0 {
		t.Fatalf("allocFaults=%d retries=%d", e.Metrics.AllocFaults.Load(), e.Metrics.Retries.Load())
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d", e.Heap.Used())
	}
}

// The deterministic trip-and-recover integration: a fault burst demotes all
// placement to the CPU; once the burst clears and the cooldown elapses, probe
// operators bring the device back.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	// The fault condition lasts 10 fault-free query latencies plus 10
	// breaker cooldowns — far beyond the first query with its retries and
	// backoffs — then clears.
	burst := 10*faultFreeLatency(t, 10000) + 10*healthCooldown
	cat := testCatalog(10000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	injectUntil(e, faults.New(faults.Config{Seed: 1, TransferFailRate: 1}), burst)
	pl := testPlan()
	want := expectSum(10000)
	check := func(v *Value) {
		t.Helper()
		if got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]; got != want {
			t.Fatalf("sum = %v, want %v", got, want)
		}
	}
	var gpuAfterRecovery int64
	e.Sim.Spawn("session", func(p *sim.Proc) {
		v, _, err := e.RunQuery(p, pl, fixedPlacer{cost.GPU})
		if err != nil {
			t.Errorf("query 1: %v", err)
			return
		}
		check(v)
		if e.Health.State() != BreakerOpen {
			t.Errorf("state after fault burst = %v, want open", e.Health.State())
		}
		if e.Metrics.CPUOperators.Load() != 3 || e.Metrics.GPUOperators.Load() != 0 {
			t.Errorf("query 1 ops: cpu=%d gpu=%d, want CPU-only degradation",
				e.Metrics.CPUOperators.Load(), e.Metrics.GPUOperators.Load())
		}
		if e.Metrics.DegradedPlacements.Load() == 0 {
			t.Error("no degraded placements recorded")
		}
		// Wait out the fault condition and the breaker cooldown; the plan's
		// three operators are then the healthProbeSuccesses probes that
		// close the breaker again.
		p.Hold(burst + healthCooldown)
		v, _, err = e.RunQuery(p, pl, fixedPlacer{cost.GPU})
		if err != nil {
			t.Errorf("query 2: %v", err)
			return
		}
		check(v)
		gpuAfterRecovery = e.Metrics.GPUOperators.Load()
	})
	e.Sim.Run()
	if e.Health.Trips() == 0 {
		t.Fatal("breaker never tripped")
	}
	if gpuAfterRecovery != 3 {
		t.Fatalf("gpu ops after recovery = %d, want 3 (device back in service)", gpuAfterRecovery)
	}
	if e.Health.State() != BreakerClosed {
		t.Fatalf("final state = %v, want closed", e.Health.State())
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d", e.Heap.Used())
	}
}

// A device reset mid-query wipes heap, cache, and device-resident values; the
// query recovers (host data is authoritative) and nothing leaks.
func TestDeviceResetMidQuery(t *testing.T) {
	L := faultFreeLatency(t, 10000)
	cat := testCatalog(10000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	e.Sim.Spawn("reset", func(p *sim.Proc) {
		p.Hold(L / 2)
		e.DeviceReset()
	})
	v, _ := runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	got := v.Batch.MustColumn("s").(*column.Float64Column).Values[0]
	if want := expectSum(10000); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if e.Metrics.DeviceResets.Load() != 1 {
		t.Fatalf("resets = %d, want 1", e.Metrics.DeviceResets.Load())
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak after reset: %d", e.Heap.Used())
	}
}

// DeviceReset takes every device value's device copy, flushes the cache,
// wipes the heap, counts the fault, and runs the OnReset callback.
func TestDeviceResetUnit(t *testing.T) {
	cat := testCatalog(100)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	res := e.Heap.Reserve()
	if err := res.Grow(512); err != nil {
		t.Fatal(err)
	}
	v := &Value{res: res}
	e.Cache.Insert("fact.v", 64)
	called := false
	e.OnReset = func() { called = true }
	e.DeviceReset()
	if v.OnDevice() {
		t.Fatal("device value survived the reset")
	}
	if e.Heap.Used() != 0 || e.Cache.Len() != 0 {
		t.Fatalf("reset incomplete: heap=%d cacheLen=%d", e.Heap.Used(), e.Cache.Len())
	}
	if e.Metrics.DeviceResets.Load() != 1 || !called {
		t.Fatal("reset not recorded or OnReset not called")
	}
	v.dropDevice() // stale: must be a no-op
	if e.Heap.Used() != 0 {
		t.Fatal("stale release corrupted the heap")
	}
}

// Satellite regression: a query failed by its deadline releases every device
// reservation, including results of operators that finish after the failure.
func TestDeadlineFailsCleanly(t *testing.T) {
	L := faultFreeLatency(t, 10000)
	cat := testCatalog(10000)
	e := New(cat, Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		QueryDeadline: L / 4,
	})
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		_, _, err = e.RunQuery(p, testPlan(), fixedPlacer{cost.GPU})
	})
	e.Sim.Run()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if e.Metrics.QueriesFailed.Load() != 1 || e.Metrics.DeadlineFailures.Load() != 1 {
		t.Fatalf("failed=%d deadline=%d", e.Metrics.QueriesFailed.Load(), e.Metrics.DeadlineFailures.Load())
	}
	// The leak this guards against: an operator in flight at failure time
	// finishes afterwards and must drop its device-resident result.
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak after deadline failure: %d bytes", e.Heap.Used())
	}
}

// A deadline longer than the query leaves the run untouched — and does not
// stretch the makespan (the watchdog is canceled, not waited out).
func TestUnusedDeadlineIsFree(t *testing.T) {
	cat := testCatalog(10000)
	base := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30})
	runQueryOnce(t, base, testPlan(), fixedPlacer{cost.GPU})
	baseEnd := base.Sim.Now()

	guarded := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 1 << 30, QueryDeadline: time.Hour})
	v, _ := runQueryOnce(t, guarded, testPlan(), fixedPlacer{cost.GPU})
	if v == nil {
		t.Fatal("query failed under unused deadline")
	}
	if guarded.Sim.Now() != baseEnd {
		t.Fatalf("unused deadline stretched makespan: %v vs %v", guarded.Sim.Now(), baseEnd)
	}
	if guarded.Metrics.DeadlineFailures.Load() != 0 {
		t.Fatal("unused deadline recorded a failure")
	}
}

// A stuck kernel stalls far longer than the deadline: the query fails
// cleanly instead of hanging, and the stall is visible in the metrics.
func TestStuckOperatorHitsDeadline(t *testing.T) {
	cat := testCatalog(10000)
	e := New(cat, Config{
		CacheBytes: 1 << 30, HeapBytes: 1 << 30,
		Faults:        faults.New(faults.Config{Seed: 1, StuckRate: 1}),
		QueryDeadline: 5 * time.Millisecond,
	})
	var err error
	e.Sim.Spawn("session", func(p *sim.Proc) {
		_, _, err = e.RunQuery(p, testPlan(), fixedPlacer{cost.GPU})
	})
	e.Sim.Run()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if e.Metrics.StuckOps.Load() == 0 {
		t.Fatal("stuck operator not counted")
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("heap leak: %d", e.Heap.Used())
	}
}

// Capacity OOM aborts stay breaker-neutral: heavy contention alone must
// never demote the device (fault-free baseline preservation).
func TestOOMDoesNotTripBreaker(t *testing.T) {
	cat := testCatalog(10000)
	e := New(cat, Config{CacheBytes: 1 << 30, HeapBytes: 64})
	runQueryOnce(t, e, testPlan(), fixedPlacer{cost.GPU})
	if e.Metrics.Aborts.Load() == 0 {
		t.Fatal("expected OOM aborts")
	}
	if e.Health.Trips() != 0 || e.Health.State() != BreakerClosed {
		t.Fatalf("OOM aborts tripped the breaker (trips=%d)", e.Health.Trips())
	}
	if e.Metrics.Retries.Load() != 0 {
		t.Fatal("OOM aborts must not be retried")
	}
}

// NotePreloadError mirrors NoteCatalogError: a real error is counted, nil
// is not — the surfaced-error pattern robustlint's errdrop analyzer expects
// for survivable post-reset preload failures.
func TestNotePreloadError(t *testing.T) {
	cat := testCatalog(100)
	e := New(cat, Config{CacheBytes: 1 << 20, HeapBytes: 1 << 20})
	e.NotePreloadError(nil)
	if e.Metrics.PreloadErrors.Load() != 0 {
		t.Fatalf("nil error counted: PreloadErrors = %d", e.Metrics.PreloadErrors.Load())
	}
	e.NotePreloadError(errors.New("preload failed"))
	e.NotePreloadError(errors.New("preload failed again"))
	if e.Metrics.PreloadErrors.Load() != 2 {
		t.Fatalf("PreloadErrors = %d, want 2", e.Metrics.PreloadErrors.Load())
	}
}
