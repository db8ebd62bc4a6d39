package column

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// brute is the value-at-a-time reference for Scan: the rows of sel whose value
// lies in iv, tested the way the comparison reads.
func brute[T int64 | float64](vals []T, iv Interval[T], sel []int32) []int32 {
	out := []int32{}
	for _, p := range sel {
		if in := vals[p] >= iv.Lo && vals[p] <= iv.Hi; in != iv.Not {
			out = append(out, p)
		}
	}
	return out
}

// checkScanOver holds Scan over the rows sel of c to the reference over vals,
// the values c encodes.
func checkScanOver[T int64 | float64](t *testing.T, label string, c Column, vals []T, iv Interval[T], sel PosList) {
	t.Helper()
	got, ok := Scan(c, iv, sel, []int32{})
	if want := brute(vals, iv, sel.Explicit()); !ok || !slices.Equal(got, want) {
		lo, hi, isRange := sel.AsRange()
		t.Fatalf("%s: Scan(%T, %+v) over %d rows (range %v [%d,%d)) ok=%v: %d positions, want %d",
			label, c, iv, sel.Len(), isRange, lo, hi, ok, len(got), len(want))
	}
}

// patternList returns the rows lo+i of [lo, hi) for which bit i of pattern,
// repeated as often as needed, is set, as an explicit list: nothing for an
// empty pattern, every row for 0xff.
func patternList(lo, hi int, pattern []byte) PosList {
	var list []int32
	for i := 0; len(pattern) > 0 && lo+i < hi; i++ {
		if b := i % (8 * len(pattern)); pattern[b/8]>>(b%8)&1 == 1 {
			list = append(list, int32(lo+i))
		}
	}
	return Positions(list)
}

// checkScan holds Scan to the reference over the rows [lo, hi) as a range
// and over lists of them: all of them, every other row, sixty rows in a row
// out of every 192, and single rows far apart.
func checkScan[T int64 | float64](t *testing.T, label string, c Column, vals []T, iv Interval[T], lo, hi int) {
	t.Helper()
	checkScanOver(t, label, c, vals, iv, Range(lo, hi))
	stretch := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0}
	for _, pattern := range [][]byte{{0xff}, {0x55}, stretch, {0x01, 0, 0, 0, 0, 0, 0x20, 0, 0, 0, 0}} {
		checkScanOver(t, label+" (list)", c, vals, iv, patternList(lo, hi, pattern))
	}
}

// pivotIntervals returns the six comparisons against v in interval form, the
// complements of the ordered four, and the two degenerate intervals.
func pivotIntervals(v int64) []Interval[int64] {
	ivs := []Interval[int64]{
		{Lo: v, Hi: v}, {Lo: math.MinInt64, Hi: v}, {Lo: v, Hi: math.MaxInt64},
		{Lo: 1, Hi: 0}, {Lo: math.MinInt64, Hi: math.MaxInt64},
	}
	if v > math.MinInt64 {
		ivs = append(ivs, Interval[int64]{Lo: math.MinInt64, Hi: v - 1})
	}
	if v < math.MaxInt64 {
		ivs = append(ivs, Interval[int64]{Lo: v + 1, Hi: math.MaxInt64})
	}
	for _, iv := range slices.Clone(ivs) {
		iv.Not = true
		ivs = append(ivs, iv)
	}
	return ivs
}

// TestScanComparisonsAgainstBruteForce: every comparison over a clustered
// distribution whose blocks hit all three classes (inside, outside,
// straddling).
func TestScanComparisonsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 5*blockSize + 77
	vals := make([]int64, n)
	for i := range vals {
		// Sorted-ish with noise: early blocks sit entirely below the
		// pivot values, late blocks entirely above, middles straddle.
		vals[i] = int64(i/3) + int64(rng.Intn(40)) - 20
	}
	c := CompressInt64(NewInt64("k", vals))
	for _, v := range []int64{math.MinInt64, -21, 0, int64(n / 6), int64(n / 3), math.MaxInt64} {
		for _, iv := range pivotIntervals(v) {
			checkScan(t, "clustered", c, vals, iv, 0, n)
		}
	}
}

// TestScanRangeAgainstBruteForce includes empty, inverted, and full-domain
// ranges, and the complement of each.
func TestScanRangeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4*blockSize + 31
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i >> 5 * 7)
		if rng.Intn(10) == 0 {
			vals[i] = -vals[i]
		}
	}
	c := CompressInt64(NewInt64("k", vals))
	for _, r := range [][2]int64{{0, int64(n)}, {100, 50}, {-5, 5}, {math.MinInt64, math.MaxInt64}, {7, 7}} {
		for _, not := range []bool{false, true} {
			checkScan(t, "ranges", c, vals, Interval[int64]{Lo: r[0], Hi: r[1], Not: not}, 0, n)
		}
	}
}

// TestScanWidthZeroBlocks: constant blocks pack at width 0 and must classify
// whole-block (never straddle); the scan still returns exact positions.
func TestScanWidthZeroBlocks(t *testing.T) {
	n := 3 * blockSize
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / blockSize * 100) // constant within each block
	}
	c := CompressInt64(NewInt64("k", vals))
	for _, v := range []int64{-1, 0, 100, 150, 200, 300} {
		for _, iv := range pivotIntervals(v) {
			checkScan(t, "width 0", c, vals, iv, 0, n)
		}
	}
}

// TestScanWidth64Blocks: blocks spanning the full int64 domain have no
// bound below MaxInt64 to skip on but must still scan correctly.
func TestScanWidth64Blocks(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1, 42}
	c := CompressInt64(NewInt64("k", vals))
	for _, v := range []int64{math.MinInt64, -1, 0, 42, math.MaxInt64} {
		for _, iv := range pivotIntervals(v) {
			checkScan(t, "width 64", c, vals, iv, 0, len(vals))
		}
	}
}

// TestScanThroughViews: row windows that are not block-aligned select the
// rows the whole-column scan selects inside them, numbered as rows of the
// column.
func TestScanThroughViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4 * blockSize
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	c := CompressInt64(NewInt64("k", vals))
	for _, w := range [][2]int{{0, n}, {1, n - 1}, {blockSize/2 + 3, 3 * blockSize}, {n - 2, n}, {200, 200}} {
		for _, v := range []int64{0, 250, 500, 999} {
			for _, iv := range pivotIntervals(v) {
				checkScan(t, "window", c, vals, iv, w[0], w[1])
			}
		}
		checkScan(t, "window", c, vals, Interval[int64]{Lo: 100, Hi: 800}, w[0], w[1])
	}
}

// TestScanDateColumns: the date columns share the kernels; the int64
// constant domain must compare correctly against int32 dates, also where the
// constant is no int32.
func TestScanDateColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 2*blockSize + 9
	dates := make([]int32, n)
	vals := make([]int64, n)
	for i := range vals {
		dates[i] = int32(20200101 + rng.Intn(365))
		vals[i] = int64(dates[i])
	}
	plain := NewDate("d", dates)
	for _, c := range []Column{plain, CompressDate(plain)} {
		for _, v := range []int64{20200101, 20200180, 20200465, 0, math.MaxInt32 + 1, math.MinInt32 - 1} {
			for _, iv := range pivotIntervals(v) {
				checkScan(t, "dates", c, vals, iv, 0, n)
				checkScan(t, "dates", c, vals, iv, 5, n-3)
			}
		}
	}
}

// TestScanFloatColumn: IEEE comparison decides — a NaN lies in no interval
// and in every complement, the zeros are one value, the infinities are
// values like any other.
func TestScanFloatColumn(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{1.5, nan, -inf, math.Copysign(0, -1), 0, inf, -2, nan, 5}
	c := NewFloat64("f", vals)
	for _, iv := range []Interval[float64]{
		{Lo: 0, Hi: 0}, {Lo: -inf, Hi: inf}, {Lo: inf, Hi: inf}, {Lo: -inf, Hi: -inf},
		{Lo: 1, Hi: 0}, {Lo: nan, Hi: nan}, {Lo: -inf, Hi: nan}, {Lo: -2, Hi: 1.5},
	} {
		for _, not := range []bool{false, true} {
			iv.Not = not
			checkScan(t, "floats", c, vals, iv, 0, len(vals))
			checkScan(t, "floats", c, vals, iv, 1, 6)
		}
	}
	got, _ := Scan(c, Interval[float64]{Lo: 5, Hi: 5, Not: true}, All(len(vals)), nil)
	if want := []int32{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("x <> 5 selected %v, want %v (the NaN rows included)", got, want)
	}
	got, _ = Scan(c, Interval[float64]{Lo: 0, Hi: 0}, All(len(vals)), nil)
	if want := []int32{3, 4}; !slices.Equal(got, want) {
		t.Fatalf("x = 0 selected %v, want %v (both zeros)", got, want)
	}
}

// foreignColumn is a Column this package does not know the layout of.
type foreignColumn struct{ Column }

// TestScanRefusesMismatchedDomain: an interval of one domain does not scan
// a column of the other, nor an integer interval a column without an integer
// kernel — whether or not the interval needs a kernel to answer — and out
// comes back as it went in.
func TestScanRefusesMismatchedDomain(t *testing.T) {
	out := []int32{7}
	if got, ok := Scan(NewInt64("i", []int64{1}), Interval[float64]{Lo: 0, Hi: 9}, All(1), out); ok || !slices.Equal(got, out) {
		t.Fatalf("a float interval scanned an integer column: %v", got)
	}
	for _, c := range []Column{NewFloat64("f", []float64{1}), foreignColumn{NewInt64("i", []int64{1})}} {
		for _, iv := range []Interval[int64]{{Lo: 0, Hi: 9}, {Lo: 1, Hi: 0}, {Lo: 1, Hi: 0, Not: true}, {Lo: math.MinInt64, Hi: math.MaxInt64}} {
			if got, ok := Scan(c, iv, All(1), out); ok || !slices.Equal(got, out) {
				t.Fatalf("the integer interval %+v scanned a %T: %v", iv, c, got)
			}
		}
	}
}
