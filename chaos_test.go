package robustdb

import (
	"fmt"
	"testing"
	"time"

	"robustdb/internal/sim"
	"robustdb/internal/workload"
)

// chaosDB is the SSB database the chaos suite runs against — small enough
// that every schedule finishes fast, large enough that queries actually move
// data over the simulated bus.
func chaosDB() *DB {
	return OpenSSB(SSBConfig{SF: 1, RowsPerSF: 4000, Seed: 2})
}

// chaosSchedules is the fault matrix: allocator, transfer and reset faults
// alone, then all three combined (a stuck kernel only a deadline ends; its
// tests are internal/exec's). Every schedule is seeded, so a failure
// reproduces exactly.
func chaosSchedules() map[string]FaultConfig {
	return map[string]FaultConfig{
		"alloc-faults":    {Seed: 101, AllocFailRate: 0.3},
		"transfer-faults": {Seed: 102, TransferFailRate: 0.3},
		"device-resets":   {Seed: 103, ResetCount: 4},
		"combined":        {Seed: 105, AllocFailRate: 0.15, TransferFailRate: 0.15, ResetCount: 2},
	}
}

// The chaos schedules through the multi-user workload runner: the run drains
// and failures are counted rather than fatal (exactness and leaks: TestJudge).
func TestChaosWorkloadsDrainCleanly(t *testing.T) {
	db := chaosDB()
	queries := SSBQueries()
	dev := db.DeviceForWorkingSet(0.5)
	for name, cfg := range chaosSchedules() {
		t.Run(name, func(t *testing.T) {
			run := dev
			run.Faults = NewFaultInjector(cfg)
			run.QueryDeadline = 500 * time.Millisecond // rescue stuck queries
			_, res, err := db.RunWorkload(run, DataDrivenChopping(), Workload{
				Queries:         queries,
				Users:           4,
				TotalQueries:    26,
				ContinueOnError: true,
			})
			if err != nil {
				t.Fatalf("workload aborted: %v", err)
			}
			if res.QueriesRun+res.Failures != 26 {
				t.Fatalf("completed=%d failed=%d, want 26 total", res.QueriesRun, res.Failures)
			}
		})
	}
}

// Robustness bound: Data-Driven Chopping under a hostile fault schedule
// stays within a small factor of the fault-free CPU-only baseline — graceful
// degradation, not collapse.
func TestChaosDegradationBounded(t *testing.T) {
	db := chaosDB()
	queries := SSBQueries()
	dev := db.DeviceForWorkingSet(0.5)
	spec := Workload{Queries: queries, Users: 4, TotalQueries: 26}

	_, cpu, err := db.RunWorkload(dev, CPUOnly(), spec)
	if err != nil {
		t.Fatal(err)
	}

	chaosSpec := spec
	chaosSpec.ContinueOnError = true
	run := dev
	run.Faults = NewFaultInjector(FaultConfig{
		Seed: 7, AllocFailRate: 0.2, TransferFailRate: 0.2, ResetCount: 3,
	})
	_, ddc, err := db.RunWorkload(run, DataDrivenChopping(), chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	if ddc.QueriesRun+ddc.Failures != 26 {
		t.Fatalf("chaos run lost queries: %d+%d", ddc.QueriesRun, ddc.Failures)
	}
	// The bound: retry backoffs, re-uploads after resets, and breaker
	// cooldowns cost time, but the ladder must keep the workload within a
	// small constant of just staying on the CPU.
	if limit := 3 * cpu.WorkloadTime; ddc.WorkloadTime > limit {
		t.Fatalf("DDC under faults took %v, more than 3× the CPU-only %v",
			ddc.WorkloadTime, cpu.WorkloadTime)
	}
}

// Device resets against the data-driven strategies: the OnReset hook re-pins
// the placement-managed columns, so the strategy keeps using the device after
// recovery instead of silently degrading to CPU-only forever. The reset comes
// from a process of its own, mid-run, the way the fault schedule's does.
func TestChaosResetRepinsDataPlacement(t *testing.T) {
	db := chaosDB()
	queries, strat := SSBQueries(), DataDrivenChopping()
	e, err := workload.NewEngine(db.cat, db.DeviceForWorkingSet(1.0), strat, queries)
	if err != nil {
		t.Fatal(err)
	}
	const resetAt = 2 * time.Millisecond
	var gpuBefore int64
	e.Sim.Spawn("reset", func(p *sim.Proc) {
		p.Hold(resetAt)
		gpuBefore = e.Metrics.GPUOperators.Load()
		e.DeviceReset()
	})
	for u := range 2 {
		e.Sim.Spawn(fmt.Sprintf("user%02d", u), func(p *sim.Proc) {
			for i := u; i < 52; i += 2 { // long enough to straddle the reset
				_, _, _ = e.RunQuery(p, queries[i%len(queries)].Plan, strat.Placer)
			}
		})
	}
	if end := e.Sim.Run(); end <= resetAt {
		t.Fatalf("the run ended at %v, before the reset", end)
	}
	if e.Cache.Len() == 0 {
		t.Fatal("cache empty after reset: OnReset re-pin did not run")
	}
	if e.Metrics.GPUOperators.Load() == gpuBefore {
		t.Fatal("no GPU operators after reset: device never came back")
	}
}
