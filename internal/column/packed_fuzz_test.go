package column

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference codec: the value-at-a-time frame-of-reference packer and
// reader the block kernels replaced, kept here so the fuzz target can hold
// the kernels to it block for block.

type refBlock struct {
	min   int64
	width uint8
	words []uint64
	n     int
}

func refPutBits(words []uint64, off int, width uint8, v uint64) {
	word, bit := off/64, uint(off%64)
	words[word] |= v << bit
	if bit+uint(width) > 64 {
		words[word+1] |= v >> (64 - bit)
	}
}

func refGetBits(words []uint64, off int, width uint8) uint64 {
	word, bit := off/64, uint(off%64)
	v := words[word] >> bit
	if bit+uint(width) > 64 {
		v |= words[word+1] << (64 - bit)
	}
	if width == 64 {
		return v
	}
	return v & ((1 << width) - 1)
}

func refPack(values []int64) []refBlock {
	var blocks []refBlock
	for lo := 0; lo < len(values); lo += blockSize {
		chunk := values[lo:min(lo+blockSize, len(values))]
		mn, mx := chunk[0], chunk[0]
		for _, v := range chunk {
			mn, mx = min(mn, v), max(mx, v)
		}
		var width uint8
		for x := uint64(mx - mn); x > 0; x >>= 1 {
			width++
		}
		b := refBlock{min: mn, width: width, n: len(chunk)}
		if width > 0 {
			b.words = make([]uint64, (len(chunk)*int(width)+63)/64)
			for i, v := range chunk {
				refPutBits(b.words, i*int(width), width, uint64(v-mn))
			}
		}
		blocks = append(blocks, b)
	}
	return blocks
}

func refValue(blocks []refBlock, i int) int64 {
	b := &blocks[i/blockSize]
	if b.width == 0 {
		return b.min
	}
	return b.min + int64(refGetBits(b.words, (i%blockSize)*int(b.width), b.width))
}

func refBytes(blocks []refBlock) int64 {
	var n int64
	for _, b := range blocks {
		n += 8 + 1 + int64(len(b.words))*8
	}
	return n
}

// assertEncodes fails unless s is exactly the reference encoding of want:
// every block's min, width and words, the length and Bytes().
func assertEncodes(t *testing.T, label string, s *packed, want []int64) {
	t.Helper()
	ref := refPack(want)
	if s.rows != len(want) || len(s.hdr) != len(ref) {
		t.Fatalf("%s: rows %d, %d blocks; want %d, %d", label, s.rows, len(s.hdr), len(want), len(ref))
	}
	for bi, rb := range ref {
		h := s.hdr[bi]
		if h.min != rb.min || h.width != rb.width || s.blockLen(bi) != rb.n || !slices.Equal(s.blockWords(bi), rb.words) {
			t.Fatalf("%s: block %d = {min %d, width %d, n %d, words %x}, want {%d, %d, %d, %x}",
				label, bi, h.min, h.width, s.blockLen(bi), s.blockWords(bi), rb.min, rb.width, rb.n, rb.words)
		}
	}
	if s.Bytes() != refBytes(ref) {
		t.Fatalf("%s: Bytes() = %d, want %d", label, s.Bytes(), refBytes(ref))
	}
	for i := range want {
		if got := s.value(i); got != refValue(ref, i) {
			t.Fatalf("%s: value(%d) = %d, want %d", label, i, got, want[i])
		}
	}
}

// fuzzValues draws n values whose blocks take every width up to maxWidth:
// each block picks its own width and frame, so constant blocks, narrow
// blocks and blocks whose frame wraps int64 all occur.
func fuzzValues(rng *rand.Rand, n int, maxWidth uint8, base int64) []int64 {
	vals := make([]int64, n)
	var mask uint64
	var frame int64
	for i := range vals {
		if i%blockSize == 0 {
			w := uint(rng.Intn(int(maxWidth) + 1))
			mask = uint64(1)<<w - 1
			if w == 64 {
				mask = math.MaxUint64
			}
			frame = base + int64(rng.Intn(3)-1)*int64(mask>>1)
		}
		vals[i] = frame + int64(rng.Uint64()&mask)
	}
	return vals
}

// fuzzPositions builds a position list over n rows: the explicit one in data
// (two bytes per position: unsorted, repeated) or, by mode, an empty,
// selective ascending, dense ascending, contiguous or shuffled list.
func fuzzPositions(rng *rand.Rand, n int, mode uint8, data []byte) []int32 {
	var pos []int32
	if n == 0 {
		return pos
	}
	if len(data) >= 2 {
		for i := 0; i+1 < len(data); i += 2 {
			pos = append(pos, int32((int(data[i])<<8|int(data[i+1]))%n))
		}
		return pos
	}
	switch mode % 6 {
	case 0: // empty
	case 1, 2: // ascending: 10 % or 90 % of the rows
		keep := []int{1, 9}[mode%6-1]
		for i := 0; i < n; i++ {
			if rng.Intn(10) < keep {
				pos = append(pos, int32(i))
			}
		}
	case 3: // contiguous, starting on a block boundary when one is in reach
		lo := rng.Intn(n) / blockSize * blockSize
		for i, hi := lo, lo+rng.Intn(n-lo+1); i < hi; i++ {
			pos = append(pos, int32(i))
		}
	case 4: // contiguous, anywhere
		lo := rng.Intn(n)
		for i, hi := lo, lo+rng.Intn(n-lo+1); i < hi; i++ {
			pos = append(pos, int32(i))
		}
	case 5: // unsorted with repeats
		for i := rng.Intn(2 * n); i > 0; i-- {
			pos = append(pos, int32(rng.Intn(n)))
		}
	}
	return pos
}

// backwards runs gather tasks last to first: any schedule must give the
// serial result.
func backwards(k int, task func(i int)) {
	for i := k - 1; i >= 0; i-- {
		task(i)
	}
}

// FuzzPackedGather holds the block kernels — pack, Gather (serial and
// scheduled), GatherRange, Decompress, Reader, Scan — to the value-at-a-time
// reference above, over arbitrary values (all widths 0…64, frames at both
// ends of int64), an arbitrary row window [lo, hi) and an arbitrary position
// list inside it.
func FuzzPackedGather(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint8(12), int64(0), uint16(0), uint16(1000), uint8(1), int64(7), []byte(nil))
	f.Add(int64(2), uint16(1000), uint8(64), int64(math.MinInt64), uint16(130), uint16(900), uint8(2), int64(-5), []byte(nil))
	f.Add(int64(3), uint16(777), uint8(63), int64(math.MaxInt64), uint16(128), uint16(777), uint8(3), int64(math.MaxInt64), []byte(nil))
	f.Add(int64(4), uint16(640), uint8(0), int64(42), uint16(5), uint16(600), uint8(4), int64(42), []byte(nil))
	f.Add(int64(5), uint16(300), uint8(33), int64(-1), uint16(0), uint16(300), uint8(5), int64(0), []byte(nil))
	f.Add(int64(6), uint16(300), uint8(7), int64(100), uint16(0), uint16(300), uint8(0), int64(0), []byte{0, 9, 0, 9, 1, 0, 0, 1})
	f.Add(int64(7), uint16(20000), uint8(21), int64(1e9), uint16(256), uint16(19000), uint8(2), int64(1e9), []byte(nil))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxWidth uint8, base int64, wlo, whi uint16, mode uint8, probe int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		vals := fuzzValues(rng, int(n), maxWidth%65, base)
		c := CompressInt64(NewInt64("x", vals))
		assertEncodes(t, "pack", &c.packed, vals)

		lo, hi := 0, 0
		if n > 0 {
			lo, hi = int(wlo)%(int(n)+1), int(whi)%(int(n)+1)
			lo, hi = min(lo, hi), max(lo, hi)
		}
		window := vals[lo:hi]
		if got := c.Decompress().Values; !slices.Equal(got, vals) {
			t.Fatal("Decompress differs from the values")
		}

		// pos addresses rows of the window, rows the same as rows of c.
		pos := fuzzPositions(rng, len(window), mode, data)
		rows := make([]int32, len(pos))
		want := make([]int64, len(pos))
		for i, p := range pos {
			rows[i], want[i] = p+int32(lo), window[p]
		}
		g := c.Gather(rows).(*CompressedInt64Column)
		assertEncodes(t, "Gather", &g.packed, want)
		gw := c.GatherWith(rows, backwards).(*CompressedInt64Column)
		assertEncodes(t, "GatherWith(backwards)", &gw.packed, want)
		contiguous := len(pos) > 0
		for i, p := range pos {
			contiguous = contiguous && p == pos[0]+int32(i)
		}
		if contiguous {
			p0 := int(rows[0])
			r, ok := GatherRange(c, p0, p0+len(pos))
			if aligned := p0%blockSize == 0; ok != aligned {
				t.Fatalf("GatherRange ok = %v for a range starting at row %d", ok, p0)
			}
			if ok {
				assertEncodes(t, "GatherRange", &r.(*CompressedInt64Column).packed, want)
			}
		}

		// Block reads of a sub-window, in both element types.
		if len(window) > 0 {
			a := lo + rng.Intn(len(window))
			b := a + rng.Intn(hi-a+1)
			ints, _ := Reader[int64](c)
			if got := ints(a, b, nil); !slices.Equal(got, vals[a:b]) {
				t.Fatalf("Reader[int64](%d,%d) differs from the values", a, b)
			}
			floats, _ := Reader[float64](c)
			for i, x := range floats(a, b, make([]float64, 3)) {
				if x != float64(vals[a+i]) {
					t.Fatalf("Reader[float64](%d,%d)[%d] = %v, want %v", a, b, i, x, float64(vals[a+i]))
				}
			}
		}

		// Scans of the window against brute force, at the probe and at a
		// value that occurs.
		probes := []int64{probe}
		if len(window) > 0 {
			probes = append(probes, window[rng.Intn(len(window))])
		}
		for _, v := range probes {
			for _, iv := range pivotIntervals(v) {
				checkScan(t, "window", c, vals, iv, lo, hi)
			}
			checkScan(t, "window", c, vals, Interval[int64]{Lo: min(v, probe), Hi: max(v, probe)}, lo, hi)
		}

		// The date twin packs the same sequence under another type.
		dates := make([]int32, len(window))
		wantDates := make([]int64, len(pos))
		for i, x := range window {
			dates[i] = int32(x)
		}
		for i, p := range pos {
			wantDates[i] = int64(dates[p])
		}
		gd := CompressDate(NewDate("d", dates)).Gather(pos).(*CompressedDateColumn)
		assertEncodes(t, "date Gather", &gd.packed, wantDates)
	})
}
