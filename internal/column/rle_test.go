package column

import (
	"math/rand"
	"reflect"
	"testing"
)

// rleTestValues builds a clustered value set with real runs plus some
// singleton runs at the edges.
func rleTestValues(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, 0, n)
	for len(vals) < n {
		v := int64(rng.Intn(9))
		k := 1 + rng.Intn(17)
		for j := 0; j < k && len(vals) < n; j++ {
			vals = append(vals, v)
		}
	}
	return vals
}

func TestCompressRLERoundtrip(t *testing.T) {
	vals := rleTestValues(1, 1000)
	c := CompressRLE("g", vals)
	if c.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(vals))
	}
	for i, want := range vals {
		if got := c.Value(i); got != want {
			t.Fatalf("Value(%d) = %d, want %d", i, got, want)
		}
	}
	dec := c.Decompress()
	if !reflect.DeepEqual(dec.Values, vals) {
		t.Fatal("Decompress does not round-trip")
	}
	if dec.Name() != "g" {
		t.Fatalf("decompressed name %q", dec.Name())
	}
}

func TestRLESliceViews(t *testing.T) {
	vals := rleTestValues(2, 800)
	c := CompressRLE("g", vals)
	// Slices at arbitrary offsets — including ones splitting runs — must
	// read the right window, and slices of slices must compose.
	for _, w := range [][2]int{{0, 800}, {0, 1}, {37, 41}, {100, 700}, {799, 800}, {250, 250}} {
		lo, hi := w[0], w[1]
		s := c.Slice(lo, hi)
		if s.Len() != hi-lo {
			t.Fatalf("slice [%d,%d): Len = %d", lo, hi, s.Len())
		}
		for i := 0; i < s.Len(); i++ {
			if got := s.Value(i); got != vals[lo+i] {
				t.Fatalf("slice [%d,%d): Value(%d) = %d, want %d", lo, hi, i, got, vals[lo+i])
			}
		}
	}
	ss := c.Slice(100, 700).Slice(50, 150)
	for i := 0; i < ss.Len(); i++ {
		if got := ss.Value(i); got != vals[150+i] {
			t.Fatalf("slice-of-slice: Value(%d) = %d, want %d", i, got, vals[150+i])
		}
	}
}

// TestRLERunsWindows: Runs visits each maximal run clipped to the window, in
// order, covering the window exactly.
func TestRLERunsWindows(t *testing.T) {
	vals := rleTestValues(3, 600)
	c := CompressRLE("g", vals)
	for _, w := range [][2]int{{0, 600}, {13, 587}, {100, 101}, {300, 300}} {
		lo, hi := w[0], w[1]
		next := lo
		c.Runs(lo, hi, func(v int64, rlo, rhi int) {
			if rlo != next || rhi <= rlo || rhi > hi {
				t.Fatalf("window [%d,%d): run [%d,%d) out of order or bounds", lo, hi, rlo, rhi)
			}
			for i := rlo; i < rhi; i++ {
				if vals[i] != v {
					t.Fatalf("window [%d,%d): run value %d at row %d, want %d", lo, hi, v, i, vals[i])
				}
			}
			next = rhi
		})
		if next != hi && lo < hi {
			t.Fatalf("window [%d,%d): runs stopped at %d", lo, hi, next)
		}
	}
}

// TestRLEGatherPreservesEncoding: Gather stays RLE, merges adjacent equal
// survivors, and reads back the addressed rows exactly — including through a
// view.
func TestRLEGatherPreservesEncoding(t *testing.T) {
	vals := rleTestValues(4, 500)
	c := CompressRLE("g", vals)
	rng := rand.New(rand.NewSource(5))
	pos := make([]int32, 300)
	for i := range pos {
		pos[i] = int32(rng.Intn(len(vals)))
	}
	g, ok := c.Gather(pos).(*RLEInt64Column)
	if !ok {
		t.Fatalf("Gather returned %T, want *RLEInt64Column", c.Gather(pos))
	}
	if g.Len() != len(pos) {
		t.Fatalf("gathered Len = %d, want %d", g.Len(), len(pos))
	}
	for i, p := range pos {
		if got := g.Value(i); got != vals[p] {
			t.Fatalf("gathered Value(%d) = %d, want %d", i, got, vals[p])
		}
	}
	// Through a view: positions are view-local.
	s := c.Slice(50, 450)
	vg := s.Gather([]int32{0, 0, 399, 200})
	want := []int64{vals[50], vals[50], vals[449], vals[250]}
	for i, wv := range want {
		if got := vg.(*RLEInt64Column).Value(i); got != wv {
			t.Fatalf("view gather Value(%d) = %d, want %d", i, got, wv)
		}
	}
}

// TestRLEScanAgainstBruteForce: the run-wise scan agrees with the
// value-at-a-time reference on every comparison, including through views
// and row windows that split runs.
func TestRLEScanAgainstBruteForce(t *testing.T) {
	vals := rleTestValues(6, 900)
	c := CompressRLE("g", vals)
	for _, v := range []int64{-1, 0, 3, 4, 8, 9} {
		for _, iv := range pivotIntervals(v) {
			checkScan(t, "whole", c, vals, iv, 0, len(vals))
			checkScan(t, "window", c, vals, iv, 33, 850)
			checkScan(t, "view", c.Slice(33, 850), vals[33:850], iv, 0, 817)
			checkScan(t, "view window", c.Slice(33, 850), vals[33:850], iv, 5, 700)
		}
	}
	for _, r := range [][2]int64{{0, 8}, {2, 5}, {5, 2}, {-10, -1}, {7, 7}} {
		checkScan(t, "range", c, vals, Interval[int64]{Lo: r[0], Hi: r[1]}, 0, len(vals))
		checkScan(t, "range view", c.Slice(33, 850), vals[33:850], Interval[int64]{Lo: r[0], Hi: r[1]}, 0, 817)
	}
}

func TestRLEBytes(t *testing.T) {
	vals := make([]int64, 1024) // one giant run
	c := CompressRLE("g", vals)
	if c.Bytes() != 12 {
		t.Fatalf("one-run Bytes = %d, want 12", c.Bytes())
	}
	// A view inside one run overlaps exactly that run.
	if b := c.Slice(10, 20).Bytes(); b != 12 {
		t.Fatalf("view Bytes = %d, want 12", b)
	}
	if b := CompressRLE("e", nil).Bytes(); b != 0 {
		t.Fatalf("empty Bytes = %d, want 0", b)
	}
}

func TestEncodingNames(t *testing.T) {
	i64 := NewInt64("a", []int64{1, 2})
	cases := []struct {
		col  Column
		want string
	}{
		{i64, "plain"},
		{NewFloat64("f", []float64{1}), "plain"},
		{NewDate("d", []int32{1}), "plain"},
		{NewString("s", []string{"x"}), "dict"},
		{CompressInt64(i64), "bitpack"},
		{CompressDate(NewDate("d", []int32{1, 2})), "bitpack"},
		{CompressInt64RLE(i64), "rle"},
	}
	for _, tc := range cases {
		if got := Encoding(tc.col); got != tc.want {
			t.Fatalf("Encoding(%T) = %q, want %q", tc.col, got, tc.want)
		}
	}
}

// TestDecompressedBytesMetering: every Decompress adds the materialized byte
// count to the process-wide counter; code-domain scans add nothing.
func TestDecompressedBytesMetering(t *testing.T) {
	vals := rleTestValues(7, 256)
	rle := CompressRLE("g", vals)
	bp := CompressInt64(NewInt64("k", vals))
	cd := CompressDate(NewDate("d", []int32{1, 2, 3, 4}))

	before := DecompressedBytes()
	dense, sparse := make([]int32, 100), []int32{3, 131, 140, 255}
	for i := range dense {
		dense[i] = int32(20 + i)
	}
	for _, sel := range []PosList{All(len(vals)), Positions(dense), Positions(sparse)} {
		Scan(rle, Interval[int64]{Lo: 3, Hi: 3}, sel, nil)
		Scan(bp, Interval[int64]{Lo: 2, Hi: 5}, sel, nil)
	}
	if got := DecompressedBytes(); got != before {
		t.Fatalf("code-domain scans metered %d bytes", got-before)
	}

	rle.Decompress()
	if got := DecompressedBytes() - before; got != 256*8 {
		t.Fatalf("RLE decompress metered %d bytes, want %d", got, 256*8)
	}
	before = DecompressedBytes()
	bp.Decompress()
	if got := DecompressedBytes() - before; got != 256*8 {
		t.Fatalf("bitpack decompress metered %d bytes, want %d", got, 256*8)
	}
	before = DecompressedBytes()
	cd.Decompress()
	if got := DecompressedBytes() - before; got != 4*4 {
		t.Fatalf("date decompress metered %d bytes, want %d", got, 4*4)
	}
}
