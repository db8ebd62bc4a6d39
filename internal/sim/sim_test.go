package sim

import (
	"testing"
	"time"
)

func TestHoldAdvancesTime(t *testing.T) {
	s := New()
	var at time.Duration
	s.Spawn("p", func(p *Proc) {
		p.Hold(5 * time.Millisecond)
		at = p.Now()
	})
	end := s.Run()
	if at != 5*time.Millisecond || end != 5*time.Millisecond {
		t.Fatalf("times: at=%v end=%v", at, end)
	}
}

func TestProcAccessors(t *testing.T) {
	s := New()
	s.Spawn("worker", func(p *Proc) {
		if p.Name() != "worker" || p.Sim() != s || p.Now() != 0 {
			t.Error("accessors wrong")
		}
	})
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSequentialSpawnOrdering(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestInterleavedHolds(t *testing.T) {
	s := New()
	var trace []string
	s.Spawn("a", func(p *Proc) {
		p.Hold(2 * time.Millisecond)
		trace = append(trace, "a2")
		p.Hold(2 * time.Millisecond)
		trace = append(trace, "a4")
	})
	s.Spawn("b", func(p *Proc) {
		p.Hold(3 * time.Millisecond)
		trace = append(trace, "b3")
	})
	s.Run()
	want := []string{"a2", "b3", "a4"}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	s := New()
	var at time.Duration
	s.SpawnAt(7*time.Millisecond, "late", func(p *Proc) {
		at = p.Now()
	})
	s.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("at = %v", at)
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	s := New()
	var childTime time.Duration
	s.Spawn("parent", func(p *Proc) {
		p.Hold(time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Hold(time.Millisecond)
			childTime = c.Now()
		})
		p.Hold(5 * time.Millisecond)
	})
	s.Run()
	if childTime != 2*time.Millisecond {
		t.Fatalf("childTime = %v", childTime)
	}
}

func TestNegativeHoldPanics(t *testing.T) {
	s := New()
	var recovered interface{}
	s.Spawn("p", func(p *Proc) {
		defer func() { recovered = recover() }()
		p.Hold(-time.Millisecond)
	})
	s.Run()
	if recovered == nil {
		t.Fatal("expected panic for negative hold")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New()
	s.now = time.Second
	s.SpawnAt(0, "past", func(p *Proc) {})
}

func TestPoolFIFOAndCounts(t *testing.T) {
	s := New()
	pool := NewPool(s, "gpu", 2)
	if pool.Name() != "gpu" || pool.Capacity() != 2 {
		t.Fatal("pool metadata wrong")
	}
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("user", func(p *Proc) {
			pool.Acquire(p)
			order = append(order, i)
			p.Hold(time.Millisecond)
			pool.Release()
		})
	}
	end := s.Run()
	// 5 jobs of 1ms on 2 slots: finish at ceil(5/2)*1ms = 3ms.
	if end != 3*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("admission not FIFO: %v", order)
		}
	}
	if pool.InUse() != 0 || pool.Waiting() != 0 {
		t.Fatalf("pool not drained: inUse=%d waiting=%d", pool.InUse(), pool.Waiting())
	}
}

func TestPoolPanics(t *testing.T) {
	s := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for zero capacity")
			}
		}()
		NewPool(s, "bad", 0)
	}()
	pool := NewPool(s, "p", 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for over-release")
		}
	}()
	pool.Release()
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	pool := NewPool(s, "p", 1)
	s.Spawn("holder", func(p *Proc) {
		pool.Acquire(p) // never released
	})
	s.Spawn("waiter", func(p *Proc) {
		pool.Acquire(p) // parks forever
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s.Run()
}

func TestRunNotReentrant(t *testing.T) {
	s := New()
	var recovered interface{}
	s.Spawn("p", func(p *Proc) {
		defer func() { recovered = recover() }()
		s.Run()
	})
	s.Run()
	if recovered == nil {
		t.Fatal("expected reentrancy panic")
	}
}

// Determinism: the same program produces the identical event trace twice.
func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New()
		pool := NewPool(s, "gpu", 3)
		var completions []time.Duration
		for i := 0; i < 20; i++ {
			i := i
			s.Spawn("q", func(p *Proc) {
				p.Hold(time.Duration(i%4) * time.Millisecond)
				pool.Acquire(p)
				p.Hold(time.Duration(1+i%3) * time.Millisecond)
				pool.Release()
				completions = append(completions, p.Now())
			})
		}
		s.Run()
		return completions
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimerFires(t *testing.T) {
	s := New()
	var firedAt time.Duration = -1
	tm := s.After(5*time.Millisecond, func() { firedAt = s.Now() })
	s.Spawn("p", func(p *Proc) { p.Hold(time.Millisecond) })
	s.Run()
	if firedAt != 5*time.Millisecond || !tm.Fired() {
		t.Fatalf("firedAt=%v fired=%v", firedAt, tm.Fired())
	}
	if tm.Cancel() {
		t.Fatal("canceling a fired timer must report too-late")
	}
}

// A canceled timer neither runs its callback nor advances the clock: the
// makespan is exactly the real work, not the unused deadline.
func TestCanceledTimerDoesNotStretchMakespan(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(time.Hour, func() { fired = true })
	s.Spawn("p", func(p *Proc) {
		p.Hold(2 * time.Millisecond)
		if !tm.Cancel() {
			t.Error("cancel before firing must succeed")
		}
	})
	makespan := s.Run()
	if fired || tm.Fired() {
		t.Fatal("canceled timer fired")
	}
	if makespan != 2*time.Millisecond {
		t.Fatalf("makespan = %v, want 2ms (deadline must not stretch it)", makespan)
	}
}

func TestTimerOrderingWithProcesses(t *testing.T) {
	s := New()
	var order []string
	s.After(2*time.Millisecond, func() { order = append(order, "timer") })
	s.Spawn("p", func(p *Proc) {
		p.Hold(time.Millisecond)
		order = append(order, "hold1")
		p.Hold(2 * time.Millisecond)
		order = append(order, "hold3")
	})
	s.Run()
	if len(order) != 3 || order[0] != "hold1" || order[1] != "timer" || order[2] != "hold3" {
		t.Fatalf("order = %v", order)
	}
}

func TestNegativeTimerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().After(-1, func() {})
}
