package par

import (
	"errors"
	"fmt"
	"robustdb/internal/column"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMorsels(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {DefaultMorselRows, 1},
		{DefaultMorselRows + 1, 2}, {3 * DefaultMorselRows, 3},
		{3*DefaultMorselRows + 7, 4},
	}
	for _, c := range cases {
		if got := Morsels(c.n); got != c.want {
			t.Errorf("Morsels(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWorkersNilAndClamp(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	if got := New(0).Workers(); got != 1 {
		t.Errorf("New(0).Workers() = %d, want 1", got)
	}
	if got := New(-3).Workers(); got != 1 {
		t.Errorf("New(-3).Workers() = %d, want 1", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("New(7).Workers() = %d, want 7", got)
	}
	if (&Pool{}).Workers() != 1 {
		t.Error("zero-value pool should be serial")
	}
}

// TestForEachMorselCoversExactly checks every row is visited exactly once
// with correct bounds, at several worker counts and sizes.
func TestForEachMorselCoversExactly(t *testing.T) {
	sizes := []int{0, 1, 100, DefaultMorselRows, DefaultMorselRows + 1,
		5*DefaultMorselRows + 123}
	workers := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, n := range sizes {
		for _, w := range workers {
			p := New(w)
			seen := make([]int32, n)
			err := p.ForEachMorsel(n, func(m, lo, hi int) error {
				if lo != m*DefaultMorselRows {
					return fmt.Errorf("morsel %d: lo=%d", m, lo)
				}
				if hi <= lo || hi > n {
					return fmt.Errorf("morsel %d: bad range [%d,%d) for n=%d", m, lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: row %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestForEachNFirstError checks the lowest-index error wins at every worker
// count, even when higher-indexed tasks also fail.
func TestForEachNFirstError(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for _, w := range []int{1, 2, 7, 16} {
		p := New(w)
		for trial := 0; trial < 10; trial++ {
			err := p.ForEachN(50, func(i int) error {
				if i >= 13 {
					return errAt(i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 13 failed" {
				t.Fatalf("w=%d trial=%d: got %v, want task 13 failed", w, trial, err)
			}
		}
	}
}

func TestForEachNStopsClaiming(t *testing.T) {
	// After an error, tasks far beyond it should (mostly) be skipped; at
	// minimum the call must not run all of them when k is large. With one
	// worker the contract is exact: nothing after the failing index runs.
	var ran atomic.Int64
	err := New(1).ForEachN(1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("serial pool ran %d tasks after error at index 3, want 4", got)
	}
}

func TestForEachNZeroAndNegative(t *testing.T) {
	called := false
	if err := New(4).ForEachN(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := New(4).ForEachN(-5, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for k <= 0")
	}
}

func TestArenaRoundTrip(t *testing.T) {
	f := Get[float64](100)
	if len(f) != 0 || cap(f) < 100 {
		t.Fatalf("Get[float64]: len=%d cap=%d", len(f), cap(f))
	}
	f = append(f, 1, 2, 3)
	Put(f)
	f2 := Get[float64](10)
	if len(f2) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(f2))
	}

	i := Get[int32](77)
	if len(i) != 0 || cap(i) < 77 {
		t.Fatalf("Get[int32]: len=%d cap=%d", len(i), cap(i))
	}
	Put(i)

	// A list's buffer comes back through PutPos; a range has none to give.
	p := append(Get[int32](DefaultMorselRows*2), 5, 3)
	PutPos(column.Positions(p))
	PutPos(column.Range(0, 1<<30))

	// Puts of foreign or empty slices must be harmless.
	Put[float64](nil)
	Put[int32](nil)
	PutPos(column.PosList{})
	PutPos(column.Positions(make([]int32, 0)))
}
