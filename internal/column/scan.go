package column

// The scan kernels. Every predicate that compares a column with constants is
// an Interval of the column's value domain, and Scan finds the rows of a row
// range whose stored value lies in it, reading the column's encoding in
// place: a dense array is compared value by value, a run-length column run by
// run, and a bit-packed column block by block — every frame-of-reference
// block knows its minimum and (from the bit width) a conservative maximum, so
// whole blocks are skipped or taken on their header and only straddling
// blocks are decoded, a block at a time into a stack buffer. This is what
// makes compressed filters faster than decompress-then-filter on clustered
// data, not merely equal.

import "sync/atomic"

// Interval is the set of values v with Lo ≤ v ≤ Hi or, when Not is set, its
// complement: the normal form of =, <>, <, ≤, >, ≥ and BETWEEN against
// constants. Lo > Hi is the empty interval, and its complement everything. A
// NaN lies in no interval and so in every complement — the IEEE answer, since
// of the six comparisons only <> is a complement.
type Interval[T int64 | float64] struct {
	Lo, Hi T
	Not    bool
}

// Scan appends to out, in ascending order, the rows of [lo, hi) whose value
// lies in iv, numbered as rows of c. Integer intervals scan the integer and
// date columns of every encoding and the codes of a string column; float
// intervals scan float columns. It reports false for any other pairing.
func Scan[T int64 | float64](c Column, iv Interval[T], lo, hi int, out []int32) ([]int32, bool) {
	checkSlice(lo, hi, c.Len())
	switch iv := any(iv).(type) {
	case Interval[float64]:
		if c, ok := c.(*Float64Column); ok {
			return scanDense(c.Values[lo:hi], iv, lo, out), true
		}
	case Interval[int64]:
		switch c := c.(type) {
		case *Int64Column:
			return scanDense(c.Values[lo:hi], iv, lo, out), true
		case *DateColumn:
			return scanDense(c.Values[lo:hi], iv, lo, out), true
		case *StringColumn:
			return scanDense(c.Codes[lo:hi], iv, lo, out), true
		case *CompressedInt64Column:
			return c.scan(iv, lo, hi, out), true
		case *CompressedDateColumn:
			return c.scan(iv, lo, hi, out), true
		case *RLEInt64Column:
			return c.scan(iv, lo, hi, out), true
		}
	}
	return out, false
}

// scanDense is the dense kernel: it appends base+i for every vals[i] in iv.
// The complement is written as a negation, not as "below or above", so that
// a NaN falls on its side.
func scanDense[S number, T int64 | float64](vals []S, iv Interval[T], base int, out []int32) []int32 {
	if iv.Not {
		for i, v := range vals {
			if x := T(v); !(x >= iv.Lo && x <= iv.Hi) {
				out = append(out, int32(base+i))
			}
		}
		return out
	}
	for i, v := range vals {
		if x := T(v); x >= iv.Lo && x <= iv.Hi {
			out = append(out, int32(base+i))
		}
	}
	return out
}

// appendRange appends the positions [lo, lo+n) to out.
func appendRange(out []int32, lo, n int) []int32 {
	for i := 0; i < n; i++ {
		out = append(out, int32(lo+i))
	}
	return out
}

// scan is the packed kernel. The values of a block lie between its minimum
// and minimum + 2^width − 1, a bound that is exact for blocks whose extremes
// realize the width and conservative otherwise; distances from the minimum
// are taken in uint64, which sidesteps int64 overflow for extreme frames and
// makes a 64-bit block span all of int64. A block inside the interval or
// outside it is taken or skipped whole without touching its packed words.
func (s *packed) scan(iv Interval[int64], lo, hi int, out []int32) []int32 {
	var vals [blockSize]int64
	for lo < hi {
		bi, j := lo/blockSize, lo%blockSize
		n := min(blockSize-j, hi-lo)
		h := &s.hdr[bi]
		span := uint64(1)<<h.width - 1
		outside := iv.Lo > iv.Hi || iv.Hi < h.min || (iv.Lo > h.min && uint64(iv.Lo)-uint64(h.min) > span)
		inside := iv.Lo <= h.min && iv.Hi >= h.min && uint64(iv.Hi)-uint64(h.min) >= span
		switch {
		case !outside && !inside:
			unpack(vals[:n], s.blockWords(bi), j, h.min, h.width)
			out = scanDense(vals[:n], iv, lo, out)
		case inside != iv.Not:
			out = appendRange(out, lo, n)
		}
		lo += n
	}
	return out
}

// decompressedBytes counts bytes materialized out of compressed columns by
// full decodes (Decompress/Materialized). Late-materialized plans keep this
// near zero; the exposition surfaces it as robustdb_decompress_bytes_total.
var decompressedBytes atomic.Int64

func noteDecompressed(n int64) { decompressedBytes.Add(n) }

// DecompressedBytes returns the process-wide total of bytes produced by
// decompressing columns. Monotonic; exported as a Prometheus counter.
func DecompressedBytes() int64 { return decompressedBytes.Load() }

// Encoding names the physical encoding of a column for plans and traces:
// "plain", "dict" (order-preserving string dictionary), "bitpack"
// (frame-of-reference bit packing), or "rle" (run-length encoding).
func Encoding(c Column) string {
	switch c.(type) {
	case *CompressedInt64Column, *CompressedDateColumn:
		return "bitpack"
	case *RLEInt64Column:
		return "rle"
	case *StringColumn:
		return "dict"
	default:
		return "plain"
	}
}
