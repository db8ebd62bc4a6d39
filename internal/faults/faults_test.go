package faults

import (
	"errors"
	"testing"
	"time"
)

// Two injectors with the same config must produce identical decision
// sequences — chaos runs are reproducible bit for bit from the seed.
func TestSeedDeterminism(t *testing.T) {
	cfg := Config{
		Seed:              42,
		AllocFailRate:     0.3,
		TransferFailRate:  0.2,
		ResetCount:        3,
		ResetMeanInterval: time.Millisecond,
		SlowRate:          0.1,
		StuckRate:         0.05,
	}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * time.Microsecond
		ae, be := a.AllocFault(at), b.AllocFault(at)
		if (ae == nil) != (be == nil) {
			t.Fatalf("alloc decision diverged at step %d", i)
		}
		ae, be = a.TransferFault(at, 100), b.TransferFault(at, 100)
		if (ae == nil) != (be == nil) {
			t.Fatalf("transfer decision diverged at step %d", i)
		}
		af, as := a.OpDelay(at)
		bf, bs := b.OpDelay(at)
		if af != bf || as != bs {
			t.Fatalf("op delay diverged at step %d", i)
		}
		if a.TakeReset(at) != b.TakeReset(at) {
			t.Fatalf("reset schedule diverged at step %d", i)
		}
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", a.Counters(), b.Counters())
	}
}

// Different seeds must actually produce different schedules.
func TestSeedsDiffer(t *testing.T) {
	a := New(Config{Seed: 1, AllocFailRate: 0.5})
	b := New(Config{Seed: 2, AllocFailRate: 0.5})
	same := true
	for i := 0; i < 200; i++ {
		if (a.AllocFault(0) == nil) != (b.AllocFault(0) == nil) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 200-draw schedules")
	}
}

func TestFaultRates(t *testing.T) {
	i := New(Config{Seed: 7, AllocFailRate: 0.25, TransferFailRate: 0.1})
	const n = 10000
	var allocs, transfers int
	for k := 0; k < n; k++ {
		if i.AllocFault(0) != nil {
			allocs++
		}
		if i.TransferFault(0, 64) != nil {
			transfers++
		}
	}
	if f := float64(allocs) / n; f < 0.22 || f > 0.28 {
		t.Fatalf("alloc fault rate %.3f, want ≈0.25", f)
	}
	if f := float64(transfers) / n; f < 0.08 || f > 0.12 {
		t.Fatalf("transfer fault rate %.3f, want ≈0.10", f)
	}
	c := i.Counters()
	if c.AllocFaults != int64(allocs) || c.TransferFaults != int64(transfers) {
		t.Fatalf("counters %+v disagree with observed %d/%d", c, allocs, transfers)
	}
}

// Outside the [Start, Stop) window the injector must stay silent.
func TestInjectionWindow(t *testing.T) {
	i := New(Config{
		Seed:             3,
		AllocFailRate:    1.0,
		TransferFailRate: 1.0,
		StuckRate:        1.0,
		Start:            time.Millisecond,
		Stop:             2 * time.Millisecond,
	})
	for _, at := range []time.Duration{0, 999 * time.Microsecond, 2 * time.Millisecond, time.Second} {
		if i.AllocFault(at) != nil || i.TransferFault(at, 1) != nil {
			t.Fatalf("fault injected outside window at %v", at)
		}
		if _, stall := i.OpDelay(at); stall != 0 {
			t.Fatalf("op stall injected outside window at %v", at)
		}
	}
	inside := time.Millisecond + 500*time.Microsecond
	if i.AllocFault(inside) == nil {
		t.Fatal("rate-1.0 alloc fault missing inside window")
	}
	if i.TransferFault(inside, 1) == nil {
		t.Fatal("rate-1.0 transfer fault missing inside window")
	}
	if _, stall := i.OpDelay(inside); stall <= 0 {
		t.Fatal("rate-1.0 stuck op missing inside window")
	}
}

func TestErrorClassification(t *testing.T) {
	i := New(Config{Seed: 1, AllocFailRate: 1, TransferFailRate: 1})
	aerr := i.AllocFault(0)
	if !errors.Is(aerr, ErrInjectedAlloc) || !IsTransient(aerr) {
		t.Fatalf("alloc fault classification wrong: %v", aerr)
	}
	terr := i.TransferFault(0, 9)
	if !errors.Is(terr, ErrInjectedTransfer) || !IsTransient(terr) {
		t.Fatalf("transfer fault classification wrong: %v", terr)
	}
	if IsTransient(errors.New("other")) || IsTransient(nil) {
		t.Fatal("IsTransient must reject unrelated errors")
	}
}

func TestResetSchedule(t *testing.T) {
	i := New(Config{
		Seed:    5,
		ResetAt: []time.Duration{3 * time.Millisecond, time.Millisecond},
	})
	if i.PendingResets() != 2 {
		t.Fatalf("pending = %d, want 2", i.PendingResets())
	}
	if i.TakeReset(500 * time.Microsecond) {
		t.Fatal("reset fired before its time")
	}
	if !i.TakeReset(time.Millisecond) {
		t.Fatal("reset due at 1ms did not fire")
	}
	if i.PendingResets() != 1 {
		t.Fatalf("pending = %d after first reset, want 1", i.PendingResets())
	}
	// Several overdue resets coalesce into one observable reset per poll.
	j := New(Config{Seed: 5, ResetAt: []time.Duration{1, 2, 3}})
	if !j.TakeReset(time.Second) {
		t.Fatal("overdue resets did not fire")
	}
	if j.PendingResets() != 0 {
		t.Fatal("coalesced poll must consume every overdue reset")
	}
	if j.Counters().Resets != 3 {
		t.Fatalf("resets counter = %d, want 3", j.Counters().Resets)
	}
}

// ResetCount schedules exactly that many exponentially spaced resets, all
// inside the injection window's tail.
func TestResetCountGeneration(t *testing.T) {
	i := New(Config{
		Seed:              11,
		ResetCount:        5,
		ResetMeanInterval: time.Millisecond,
		Start:             time.Millisecond,
	})
	if i.PendingResets() != 5 {
		t.Fatalf("pending = %d, want 5", i.PendingResets())
	}
	if i.TakeReset(time.Millisecond) {
		t.Fatal("generated resets must start after Start")
	}
	if !i.TakeReset(time.Hour) {
		t.Fatal("resets never became due")
	}
	if got := i.Counters().Resets; got != 5 {
		t.Fatalf("fired %d resets, want 5", got)
	}
}

func TestOpDelayDefaults(t *testing.T) {
	slow := New(Config{Seed: 1, SlowRate: 1})
	factor, stall := slow.OpDelay(0)
	if factor != 8 || stall != 0 {
		t.Fatalf("slow op: factor=%v stall=%v, want default factor 8", factor, stall)
	}
	stuck := New(Config{Seed: 1, StuckRate: 1})
	factor, stall = stuck.OpDelay(0)
	if factor != 1 || stall != 50*time.Millisecond {
		t.Fatalf("stuck op: factor=%v stall=%v, want default stall 50ms", factor, stall)
	}
	if c := stuck.Counters(); c.StuckOps != 1 {
		t.Fatalf("stuck counter = %d", c.StuckOps)
	}
}
