package column

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzScan holds the one scan entry point to the value-at-a-time reference
// (brute) over the decoded values, for every encoding — plain int64, dates,
// dictionary codes, floats, frame-of-reference blocks of every width from 0
// to 64 under both packed types and a view of packed blocks — against arbitrary
// intervals and their complements (points, ranges, empty, everything, bounds
// at both ends of int64) over both arms of a selection: an arbitrary row
// window, which as a rule starts and ends inside a block and inside a run of
// equal values, and an ascending explicit list of rows of that window, drawn
// by repeating a bit pattern over it — so empty, a single row, every row,
// sixty rows in a row inside one block and single rows blocks apart are each
// a few bytes.
func FuzzScan(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint8(12), int64(0), uint8(0), uint16(0), uint16(1000), int64(100), int64(900), false, []byte{0x55})
	f.Add(int64(2), uint16(700), uint8(64), int64(math.MinInt64), uint8(3), uint16(130), uint16(650), int64(math.MinInt64), int64(-1), true, []byte{0xff})
	f.Add(int64(3), uint16(640), uint8(0), int64(42), uint8(0), uint16(5), uint16(600), int64(42), int64(42), false, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(4), uint16(300), uint8(63), int64(math.MaxInt64), uint8(7), uint16(1), uint16(2), int64(5), int64(math.MaxInt64), true, []byte{1})
	f.Add(int64(5), uint16(0), uint8(9), int64(0), uint8(1), uint16(0), uint16(0), int64(1), int64(0), false, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxWidth uint8, base int64, runLen uint8, wlo, whi uint16, ilo, ihi int64, not bool, pattern []byte) {
		check := func(label string, c Column, vals any, iv Interval[int64], lo, hi int) {
			t.Helper()
			for _, sel := range []PosList{Range(lo, hi), patternList(lo, hi, pattern)} {
				switch vals := vals.(type) {
				case []int64:
					checkScanOver(t, label, c, vals, iv, sel)
				case []float64:
					checkScanOver(t, label, c, vals, Interval[float64]{Lo: float64(iv.Lo), Hi: float64(iv.Hi), Not: iv.Not}, sel)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		vals := fuzzValues(rng, int(n), maxWidth%65, base)
		if k := 1 + int(runLen)%9; k > 1 { // runs of k rows, out of step with the blocks
			for i := range vals {
				vals[i] = vals[i-i%k]
			}
		}
		lo, hi := 0, 0
		if n > 0 {
			lo, hi = int(wlo)%(int(n)+1), int(whi)%(int(n)+1)
			lo, hi = min(lo, hi), max(lo, hi)
		}

		ivs := []Interval[int64]{
			{Lo: ilo, Hi: ihi, Not: not}, {Lo: min(ilo, ihi), Hi: max(ilo, ihi), Not: not},
			{Lo: math.MinInt64, Hi: ihi, Not: not}, {Lo: ilo, Hi: math.MaxInt64, Not: not},
		}
		if lo < hi {
			ivs = append(ivs, pivotIntervals(vals[lo+rng.Intn(hi-lo)])...)
		}

		dates := make([]int32, len(vals))
		dateVals := make([]int64, len(vals))
		dict := make([]string, 1+int(maxWidth)%65)
		for i := range dict {
			dict[i] = string(rune('a' + i))
		}
		codes := make([]int32, len(vals))
		codeVals := make([]int64, len(vals))
		floats := make([]float64, len(vals))
		for i, v := range vals {
			dates[i] = int32(v)
			dateVals[i] = int64(dates[i])
			codes[i] = int32(uint64(v) % uint64(len(dict)))
			codeVals[i] = int64(codes[i])
			floats[i] = float64(v)
			switch uint64(v) % 11 {
			case 0:
				floats[i] = math.NaN()
			case 1:
				floats[i] = math.Inf(int(v))
			case 2:
				floats[i] = math.Copysign(0, -1)
			}
		}
		plain := NewInt64("x", vals)
		packed := CompressInt64(plain)
		ints := map[string]Column{"plain": plain, "packed": packed}
		days := map[string]Column{"dates": NewDate("d", dates), "packed dates": CompressDate(NewDate("d", dates))}
		strs, flts := NewStringFromDict("s", dict, codes), NewFloat64("f", floats)
		for _, iv := range ivs {
			for label, c := range ints {
				check(label, c, vals, iv, lo, hi)
			}
			for label, c := range days {
				check(label, c, dateVals, iv, lo, hi)
			}
			check("codes", strs, codeVals, iv, lo, hi)
			check("floats", flts, floats, iv, lo, hi)
			// A view of the blocks the window overlaps, and a window inside
			// the view.
			from := lo - lo%blockSize
			view, _ := GatherRange(packed, from, hi)
			a := rng.Intn(hi - from + 1)
			b := a + rng.Intn(hi-from-a+1)
			check("view of packed", view, vals[from:hi], iv, a, b)
		}
	})
}
