package column

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bruteCmp is the value-at-a-time reference for ScanCmp.
func bruteCmp(vals []int64, op ScanOp, v int64) []int32 {
	var out []int32
	for i, x := range vals {
		if cmpMatches(op, x, v) {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestScanCmpAgainstBruteForce: every operator over a clustered distribution
// whose blocks hit all three classes (all-match, none-match, straddling).
func TestScanCmpAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 5*packBlockRows(t) + 77
	vals := make([]int64, n)
	for i := range vals {
		// Sorted-ish with noise: early blocks sit entirely below the
		// pivot values, late blocks entirely above, middles straddle.
		vals[i] = int64(i/3) + int64(rng.Intn(40)) - 20
	}
	c := CompressInt64(NewInt64("k", vals))
	pivots := []int64{math.MinInt64, -21, 0, int64(n / 6), int64(n / 3), math.MaxInt64}
	for _, v := range pivots {
		for op := ScanEQ; op <= ScanGE; op++ {
			want := bruteCmp(vals, op, v)
			got := c.ScanCmp(op, v, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ScanCmp(op=%d, v=%d): %d positions, want %d", op, v, len(got), len(want))
			}
		}
	}
}

// TestScanRangeAgainstBruteForce includes empty, inverted, and full-domain
// ranges.
func TestScanRangeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4*packBlockRows(t) + 31
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i >> 5 * 7)
		if rng.Intn(10) == 0 {
			vals[i] = -vals[i]
		}
	}
	c := CompressInt64(NewInt64("k", vals))
	ranges := [][2]int64{
		{0, int64(n)}, {100, 50}, {-5, 5}, {math.MinInt64, math.MaxInt64}, {7, 7},
	}
	for _, r := range ranges {
		var want []int32
		for i, x := range vals {
			if x >= r[0] && x <= r[1] {
				want = append(want, int32(i))
			}
		}
		got := c.ScanRange(r[0], r[1], nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanRange(%d, %d): %d positions, want %d", r[0], r[1], len(got), len(want))
		}
	}
}

// TestScanWidthZeroBlocks: constant blocks pack at width 0 and must classify
// whole-block (never straddle); the scan still returns exact positions.
func TestScanWidthZeroBlocks(t *testing.T) {
	n := 3 * packBlockRows(t)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / packBlockRows(t) * 100) // constant within each block
	}
	c := CompressInt64(NewInt64("k", vals))
	for _, v := range []int64{-1, 0, 100, 150, 200, 300} {
		for op := ScanEQ; op <= ScanGE; op++ {
			want := bruteCmp(vals, op, v)
			got := c.ScanCmp(op, v, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width-0 ScanCmp(op=%d, v=%d): %d positions, want %d", op, v, len(got), len(want))
			}
		}
	}
}

// TestScanWidth64Blocks: blocks spanning the full int64 domain are unbounded
// (no block skipping is sound) but must still scan correctly.
func TestScanWidth64Blocks(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1, 42}
	c := CompressInt64(NewInt64("k", vals))
	for _, v := range []int64{math.MinInt64, -1, 0, 42, math.MaxInt64} {
		for op := ScanEQ; op <= ScanGE; op++ {
			want := bruteCmp(vals, op, v)
			got := c.ScanCmp(op, v, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width-64 ScanCmp(op=%d, v=%d): %d positions, want %d", op, v, len(got), len(want))
			}
		}
	}
	want := bruteCmp(vals, ScanGE, 0) // every value is ≤ MaxInt64
	got := c.ScanRange(0, math.MaxInt64, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("width-64 ScanRange: %d positions, want %d", len(got), len(want))
	}
}

// TestScanThroughViews: Slice views at offsets that are not block-aligned
// return view-local positions identical to scanning the copied window.
func TestScanThroughViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4 * packBlockRows(t)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	c := CompressInt64(NewInt64("k", vals))
	windows := [][2]int{{0, n}, {1, n - 1}, {packBlockRows(t)/2 + 3, 3 * packBlockRows(t)}, {n - 2, n}}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		view := c.Slice(lo, hi)
		window := vals[lo:hi]
		for _, v := range []int64{0, 250, 500, 999} {
			for op := ScanEQ; op <= ScanGE; op++ {
				want := bruteCmp(window, op, v)
				got := view.ScanCmp(op, v, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("view [%d,%d): ScanCmp(op=%d, v=%d) differs from copied window", lo, hi, op, v)
				}
			}
		}
		want := []int32(nil)
		for i, x := range window {
			if x >= 100 && x <= 800 {
				want = append(want, int32(i))
			}
		}
		got := view.ScanRange(100, 800, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("view [%d,%d): ScanRange differs from copied window", lo, hi)
		}
	}
}

// TestScanDateColumns: the date scan kernels share the block machinery; the
// int64 constant domain must compare correctly against int32 dates.
func TestScanDateColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 2*packBlockRows(t) + 9
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(20200101 + rng.Intn(365))
	}
	c := CompressDate(NewDate("d", vals))
	for _, v := range []int64{20200101, 20200180, 20200465, 0} {
		for op := ScanEQ; op <= ScanGE; op++ {
			var want []int32
			for i, x := range vals {
				if cmpMatches(op, int64(x), v) {
					want = append(want, int32(i))
				}
			}
			got := c.ScanCmp(op, v, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("date ScanCmp(op=%d, v=%d): %d positions, want %d", op, v, len(got), len(want))
			}
		}
	}
}

// packBlockRows returns the packing block size by probing the encoder: the
// tests derive block-boundary cases from it instead of hard-coding the
// constant.
func packBlockRows(t *testing.T) int {
	t.Helper()
	return blockSize
}
