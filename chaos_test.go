package robustdb

import (
	"reflect"
	"testing"
	"time"

	"robustdb/internal/exec"
	"robustdb/internal/placer"
	"robustdb/internal/sim"
)

// chaosDB is the SSB database the chaos suite runs against — small enough
// that every schedule finishes fast, large enough that queries actually move
// data over the simulated bus.
func chaosDB() *DB {
	return OpenSSB(SSBConfig{SF: 1, RowsPerSF: 4000, Seed: 2})
}

// chaosSchedules is the fault matrix: each injector kind alone, then all of
// them combined. Every schedule is seeded, so a failure reproduces exactly.
func chaosSchedules() map[string]FaultConfig {
	return map[string]FaultConfig{
		"alloc-faults":    {Seed: 101, AllocFailRate: 0.3},
		"transfer-faults": {Seed: 102, TransferFailRate: 0.3},
		"device-resets":   {Seed: 103, ResetCount: 4, ResetMeanInterval: 500 * time.Microsecond},
		"slow-kernels":    {Seed: 104, SlowRate: 0.5, SlowFactor: 6},
		"combined": {
			Seed: 105, AllocFailRate: 0.15, TransferFailRate: 0.15,
			ResetCount: 2, ResetMeanInterval: time.Millisecond,
			SlowRate: 0.2,
		},
	}
}

// Under every fault schedule, every SSB query either completes with a result
// byte-identical to the fault-free reference or fails cleanly — and in both
// cases the device heap ends the run empty. The runs are traced, which adds
// span completeness to the matrix: a completed query's own record equals the
// ring's spans under its id, in order; a failed query's record is the prefix
// the ring held when it failed (operators still in flight emit after it).
func TestChaosQueriesExactOrFailClean(t *testing.T) {
	db := chaosDB()
	queries := SSBQueries()
	// Fault-free references from a CPU-only run (results are placement-
	// independent by construction; this pins that property under faults).
	refs := make(map[string]*Batch, len(queries))
	for _, q := range queries {
		ref, _, err := db.Query(Device{}, CPUOnly(), q.Plan)
		if err != nil {
			t.Fatalf("reference %s: %v", q.Name, err)
		}
		refs[q.Name] = ref
	}
	dev := db.DeviceForWorkingSet(0.5)
	for name, cfg := range chaosSchedules() {
		t.Run(name, func(t *testing.T) {
			e := exec.New(db.Catalog(), Device{
				CacheBytes: dev.CacheBytes,
				HeapBytes:  dev.HeapBytes,
				Faults:     NewFaultInjector(cfg),
				Tracer:     NewTracer(0),
			})
			completed, failed := 0, 0
			var records []exec.QueryStats
			e.Sim.Spawn("chaos", func(p *sim.Proc) {
				for _, q := range queries {
					v, st, err := e.RunQuery(p, q.Plan, placer.GPUPreferred{})
					records = append(records, st)
					if err != nil {
						failed++ // clean failure is acceptable; leaks are not
						continue
					}
					completed++
					if !reflect.DeepEqual(v.Batch, refs[q.Name]) {
						t.Errorf("%s: result diverged from fault-free reference", q.Name)
					}
				}
			})
			e.Sim.Run()
			if completed+failed != len(queries) {
				t.Fatalf("ran %d+%d of %d queries", completed, failed, len(queries))
			}
			ring := make(map[string][]TraceSpan)
			for _, s := range e.Tracer.Spans() {
				ring[s.Query] = append(ring[s.Query], s)
			}
			for _, st := range records {
				got, want := st.Spans, ring[st.QueryID]
				if n := len(got); n > 0 && got[n-1].Abort != "" && n < len(want) {
					want = want[:n] // failed: the ring kept receiving its in-flight operators
				}
				if len(got) == 0 || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: record (%d spans) differs from the ring's spans under its id (%d)",
						st.QueryID, len(got), len(ring[st.QueryID]))
				}
			}
			if completed == 0 {
				t.Fatal("every query failed — retry/degradation ladder broken")
			}
			if e.Heap.Used() != 0 {
				t.Fatalf("leaked %d device-heap bytes (completed=%d failed=%d)",
					e.Heap.Used(), completed, failed)
			}
		})
	}
}

// The same chaos matrix through the multi-user workload runner: the run
// drains, failures are counted rather than fatal, and nothing leaks.
func TestChaosWorkloadsDrainCleanly(t *testing.T) {
	db := chaosDB()
	queries := SSBQueries()
	dev := db.DeviceForWorkingSet(0.5)
	for name, cfg := range chaosSchedules() {
		t.Run(name, func(t *testing.T) {
			run := dev
			run.Faults = NewFaultInjector(cfg)
			run.QueryDeadline = 500 * time.Millisecond // rescue stuck queries
			e, res, err := db.RunWorkload(run, DataDrivenChopping(), Workload{
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
			if e.Heap.Used() != 0 {
				t.Fatalf("leaked %d device-heap bytes", e.Heap.Used())
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
		Seed: 7, AllocFailRate: 0.2, TransferFailRate: 0.2,
		ResetCount: 3, ResetMeanInterval: time.Millisecond,
	})
	e, ddc, err := db.RunWorkload(run, DataDrivenChopping(), chaosSpec)
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
	if e.Heap.Used() != 0 {
		t.Fatalf("leaked %d device-heap bytes", e.Heap.Used())
	}
}

// Chaos runs are reproducible: the same seed yields identical makespans and
// fault counters; the injector schedule is part of the deterministic sim.
func TestChaosDeterminism(t *testing.T) {
	db := chaosDB()
	dev := db.DeviceForWorkingSet(0.5)
	spec := Workload{
		Queries: SSBQueries(), Users: 4, TotalQueries: 26,
		ContinueOnError: true,
	}
	runOnce := func() Result {
		run := dev
		run.Faults = NewFaultInjector(FaultConfig{
			Seed: 99, AllocFailRate: 0.2, TransferFailRate: 0.2,
			ResetCount: 2, ResetMeanInterval: time.Millisecond,
		})
		_, res, err := db.RunWorkload(run, DataDrivenChopping(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.WorkloadTime != b.WorkloadTime {
		t.Fatalf("makespans diverged: %v vs %v", a.WorkloadTime, b.WorkloadTime)
	}
	if a.AllocFaults != b.AllocFaults || a.TransferFaults != b.TransferFaults ||
		a.DeviceResets != b.DeviceResets || a.Retries != b.Retries ||
		a.Failures != b.Failures || a.BreakerTrips != b.BreakerTrips {
		t.Fatalf("fault counters diverged:\n%+v\n%+v", a, b)
	}
}

// Device resets against the data-driven strategies: the OnReset hook re-pins
// the placement-managed columns, so the strategy keeps using the device after
// recovery instead of silently degrading to CPU-only forever.
func TestChaosResetRepinsDataPlacement(t *testing.T) {
	db := chaosDB()
	dev := db.DeviceForWorkingSet(1.0)
	run := dev
	run.Faults = NewFaultInjector(FaultConfig{
		Seed:    11,
		ResetAt: []time.Duration{2 * time.Millisecond},
	})
	e, res, err := db.RunWorkload(run, DataDrivenChopping(), Workload{
		Queries:         SSBQueries(),
		Users:           2,
		TotalQueries:    52, // long enough to straddle the reset
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceResets != 1 {
		t.Fatalf("resets = %d, want 1 (run too short to reach the reset?)", res.DeviceResets)
	}
	if e.Cache.Len() == 0 {
		t.Fatal("cache empty after reset: OnReset re-pin did not run")
	}
	if res.GPUOperators == 0 {
		t.Fatal("no GPU operators after reset: device never came back")
	}
	if e.Heap.Used() != 0 {
		t.Fatalf("leaked %d device-heap bytes", e.Heap.Used())
	}
}
