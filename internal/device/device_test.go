package device

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryBasics(t *testing.T) {
	m := NewMemory("gpu", 100)
	if m.Name() != "gpu" || m.Capacity() != 100 || m.Used() != 0 || m.Available() != 100 {
		t.Fatal("metadata wrong")
	}
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 60 || m.Available() != 40 || m.HighWater() != 60 {
		t.Fatalf("state: used=%d avail=%d hw=%d", m.Used(), m.Available(), m.HighWater())
	}
	err := m.Alloc(41)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if m.Used() != 60 {
		t.Fatal("failed alloc must not change state")
	}
	if err := m.Alloc(40); err != nil {
		t.Fatal(err)
	}
	m.Release(100)
	if m.Used() != 0 || m.HighWater() != 100 {
		t.Fatal("release wrong")
	}
	if err := m.Alloc(0); err != nil {
		t.Fatal("zero alloc should succeed")
	}
}

func TestMemoryPanics(t *testing.T) {
	mustPanic(t, func() { NewMemory("bad", -1) })
	m := NewMemory("m", 10)
	mustPanic(t, func() { _ = m.Alloc(-1) })
	mustPanic(t, func() { m.Release(-1) })
	mustPanic(t, func() { m.Release(1) })
}

func TestReservation(t *testing.T) {
	m := NewMemory("gpu", 100)
	r := m.Reserve()
	if r.Held() != 0 {
		t.Fatal("fresh reservation should hold nothing")
	}
	if err := r.Grow(30); err != nil {
		t.Fatal(err)
	}
	if err := r.Grow(30); err != nil {
		t.Fatal(err)
	}
	if r.Held() != 60 || m.Used() != 60 {
		t.Fatal("grow accounting wrong")
	}
	// Failed grow keeps what is held (the engine aborts explicitly).
	if err := r.Grow(50); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if r.Held() != 60 {
		t.Fatal("failed grow must not change held bytes")
	}
	r.ReleasePartial(20)
	if r.Held() != 40 || m.Used() != 40 {
		t.Fatal("partial release wrong")
	}
	r.Release()
	if r.Held() != 0 || m.Used() != 0 {
		t.Fatal("release wrong")
	}
	r.Release() // idempotent
	if m.Used() != 0 {
		t.Fatal("double release changed state")
	}
	mustPanic(t, func() { r.ReleasePartial(1) })
	mustPanic(t, func() { r.ReleasePartial(-1) })
}

// Property: under any interleaving of alloc/release, 0 <= used <= capacity
// and highWater never decreases.
func TestMemoryInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory("m", 1000)
		var live []int64
		lastHW := int64(0)
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				n := rng.Int63n(300)
				if err := m.Alloc(n); err == nil {
					live = append(live, n)
				} else if !errors.Is(err, ErrOutOfMemory) {
					return false
				}
			} else if len(live) > 0 {
				k := rng.Intn(len(live))
				m.Release(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if m.Used() < 0 || m.Used() > m.Capacity() {
				return false
			}
			if m.HighWater() < lastHW {
				return false
			}
			lastHW = m.HighWater()
		}
		var want int64
		for _, n := range live {
			want += n
		}
		return m.Used() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// Satellite: Reservation error paths — Grow after a partial failure must
// keep the held bytes usable and releasable.
func TestReservationGrowAfterPartialFailure(t *testing.T) {
	m := NewMemory("gpu", 100)
	r := m.Reserve()
	if err := r.Grow(80); err != nil {
		t.Fatal(err)
	}
	if err := r.Grow(30); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	// The reservation is still usable after the failed grow.
	if err := r.Grow(20); err != nil {
		t.Fatalf("grow within capacity after failure: %v", err)
	}
	if r.Held() != 100 || m.Used() != 100 {
		t.Fatalf("held=%d used=%d, want 100/100", r.Held(), m.Used())
	}
	r.Release()
	if m.Used() != 0 {
		t.Fatal("release after failed grow leaked")
	}
}

// Satellite: ReleasePartial must reject out-of-bounds sizes without
// corrupting the allocator, and full Release must stay idempotent afterwards.
func TestReservationReleasePartialBounds(t *testing.T) {
	m := NewMemory("gpu", 100)
	r := m.Reserve()
	if err := r.Grow(50); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, func() { r.ReleasePartial(51) })
	mustPanic(t, func() { r.ReleasePartial(-1) })
	if r.Held() != 50 || m.Used() != 50 {
		t.Fatal("failed partial release changed state")
	}
	r.ReleasePartial(50) // releasing exactly everything is legal
	if r.Held() != 0 || m.Used() != 0 {
		t.Fatal("full partial release wrong")
	}
	r.Release()
	r.Release() // double release stays a no-op
	if m.Used() != 0 {
		t.Fatal("double release corrupted accounting")
	}
}

// A device reset invalidates outstanding reservations: stale releases are
// no-ops, stale grows return ErrReset, and new reservations work normally.
func TestResetInvalidatesReservations(t *testing.T) {
	m := NewMemory("gpu", 100)
	stale := m.Reserve()
	if err := stale.Grow(60); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Used() != 0 || m.Generation() != 1 {
		t.Fatalf("reset state: used=%d gen=%d", m.Used(), m.Generation())
	}
	if stale.Valid() {
		t.Fatal("reservation survived the reset")
	}
	if stale.Held() != 0 {
		t.Fatal("stale reservation reports held bytes")
	}
	if err := stale.Grow(10); !errors.Is(err, ErrReset) {
		t.Fatalf("stale grow: %v, want ErrReset", err)
	}
	stale.Release()         // must not underflow the fresh accounting
	stale.ReleasePartial(1) // no-op on a stale reservation, not a panic
	fresh := m.Reserve()
	if err := fresh.Grow(100); err != nil {
		t.Fatalf("post-reset reservation: %v", err)
	}
	if m.Used() != 100 {
		t.Fatal("post-reset accounting wrong")
	}
	// High-water survives resets (diagnostics keep the pre-reset peak).
	if m.HighWater() != 100 {
		t.Fatalf("high water = %d", m.HighWater())
	}
}

// The alloc hook fails allocations without touching accounting, and both
// Alloc and Reservation.Grow observe it.
func TestAllocHook(t *testing.T) {
	m := NewMemory("gpu", 100)
	boom := errors.New("boom")
	calls := 0
	m.SetAllocHook(func(n int64) error {
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	})
	if err := m.Alloc(10); !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if m.Used() != 0 {
		t.Fatal("hook failure must not allocate")
	}
	r := m.Reserve()
	if err := r.Grow(10); err != nil {
		t.Fatalf("hook pass-through: %v", err)
	}
	m.SetAllocHook(nil)
	if err := m.Alloc(10); err != nil {
		t.Fatalf("removed hook still failing: %v", err)
	}
}
