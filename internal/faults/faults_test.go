package faults

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// Two injectors with the same config must produce identical decision
// sequences — chaos runs are reproducible bit for bit from the seed.
func TestSeedDeterminism(t *testing.T) {
	cfg := Config{
		Seed:             42,
		AllocFailRate:    0.3,
		TransferFailRate: 0.2,
		ResetCount:       3,
		StuckRate:        0.05,
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
		if a.OpDelay(at) != b.OpDelay(at) {
			t.Fatalf("op delay diverged at step %d", i)
		}
		if a.TakeReset(at) != b.TakeReset(at) {
			t.Fatalf("reset schedule diverged at step %d", i)
		}
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

// Resets fire in schedule order, and several overdue resets coalesce into
// one observable reset per poll that consumes all of them.
func TestResetSchedule(t *testing.T) {
	i := New(Config{Seed: 5, ResetCount: 3})
	first := i.resets[0]
	if i.TakeReset(first - 1) {
		t.Fatal("reset fired before its time")
	}
	if !i.TakeReset(first) || len(i.resets) != 2 {
		t.Fatalf("the first reset did not fire alone at %v: %d pending", first, len(i.resets))
	}
	if !i.TakeReset(time.Hour) || len(i.resets) != 0 {
		t.Fatalf("the overdue resets did not fire in one poll: %d pending", len(i.resets))
	}
	if i.TakeReset(2 * time.Hour) {
		t.Fatal("a consumed reset fired again")
	}
}

// ResetCount schedules exactly that many exponentially spaced resets, in
// ascending virtual time and 1ms apart on average.
func TestResetCountGeneration(t *testing.T) {
	const n = 2000
	i := New(Config{Seed: 11, ResetCount: n})
	if len(i.resets) != n || !slices.IsSorted(i.resets) || i.resets[0] <= 0 {
		t.Fatalf("%d resets, sorted %v, first at %v", len(i.resets), slices.IsSorted(i.resets), i.resets[0])
	}
	if mean := i.resets[n-1] / n; mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Fatalf("mean interval %v, want ≈1ms", mean)
	}
}

func TestOpDelayDefaults(t *testing.T) {
	if stall := New(Config{Seed: 1, StuckRate: 1}).OpDelay(0); stall != 50*time.Millisecond {
		t.Fatalf("stuck op: stall=%v, want 50ms", stall)
	}
	if stall := New(Config{Seed: 1}).OpDelay(0); stall != 0 {
		t.Fatalf("healthy op: stall=%v", stall)
	}
}
