package column

// The scan kernels. Every predicate that compares a column with constants is
// an Interval of the column's value domain, and Scan finds the rows of a
// selection — a row range or an ascending list — whose stored value lies in
// it, reading the column's encoding in place: a dense array is compared value
// by value and a bit-packed column block by block — every frame-of-reference
// block knows its minimum and (from the bit width) a conservative maximum, so
// whole blocks are skipped or taken on their header and only straddling
// blocks are decoded, into a stack buffer.
// This is what makes compressed filters faster than decompress-then-filter on
// clustered data, not merely equal. No kernel branches on a comparison: the
// candidate row is stored at the output cursor either way and the cursor
// moves on by the comparison's 0 or 1, so cost does not follow selectivity.

import (
	"math"
	"slices"
	"sync/atomic"
)

// Interval is the set of values v with Lo ≤ v ≤ Hi or, when Not is set, its
// complement: the normal form of =, <>, <, ≤, >, ≥ and BETWEEN against
// constants. Lo > Hi is the empty interval, and its complement everything. A
// NaN lies in no interval and so in every complement — the IEEE answer, since
// of the six comparisons only <> is a complement.
type Interval[T int64 | float64] struct {
	Lo, Hi T
	Not    bool
}

// Scan appends to out, in ascending order, the rows of sel whose value lies
// in iv, numbered as rows of c; sel must itself be ascending. Integer
// intervals scan the integer and date columns of every encoding and the codes
// of a string column; float intervals scan float columns. It reports false
// for any other pairing. out is grown, once, to hold every row of sel.
func Scan[T int64 | float64](c Column, iv Interval[T], sel PosList, out []int32) ([]int32, bool) {
	lo, hi, isRange := sel.AsRange()
	if !isRange {
		lo, hi = int(sel.list[0]), int(sel.list[len(sel.list)-1])+1
	}
	checkSlice(lo, hi, c.Len())
	out = slices.Grow(out, sel.Len())
	switch iv := any(iv).(type) {
	case Interval[float64]:
		if c, ok := c.(*Float64Column); ok {
			return scanFloats(c.Values, iv, sel, out), true
		}
	case Interval[int64]:
		c, ok := c.(interface {
			scan(a arc, sel PosList, out []int32) []int32
		})
		if !ok {
			break
		}
		switch a, proper := arcOf(iv); {
		case proper:
			out = c.scan(a, sel, out)
		case (iv.Lo > iv.Hi) == iv.Not: // every value lies in iv; otherwise none does
			out = sel.AppendTo(out)
		}
		return out, true
	}
	return out, false
}

// B2I is 1 for true and 0 for false — a flag move, not a branch: what a
// kernel moves its output cursor on by.
func B2I(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// arc is an integer interval, or the complement of one, in circular form: the
// values v with uint64(v) − start ≤ span, distances taken modulo 2^64. For
// Lo ≤ Hi the arc from uint64(Lo) of span uint64(Hi) − uint64(Lo) is exactly
// [Lo, Hi] at any signs and bounds: a v inside lies v − Lo ≤ Hi − Lo places
// past start, any other wraps beyond the span. What an arc leaves out is the
// arc that starts one past its end, so the integer kernels know no Not.
type arc struct{ start, span uint64 }

// arcOf puts iv in circular form; the empty interval and all of int64 have no
// proper arc (neither has a complement that is one).
func arcOf(iv Interval[int64]) (a arc, proper bool) {
	a = arc{uint64(iv.Lo), uint64(iv.Hi) - uint64(iv.Lo)}
	proper = iv.Lo <= iv.Hi && a.span != math.MaxUint64
	if iv.Not {
		a = a.rest()
	}
	return a, proper
}

// rest returns the arc of the values a leaves out.
func (a arc) rest() arc { return arc{a.start + a.span + 1, ^a.span - 1} }

// hit is 1 when v lies on the arc and otherwise 0.
func (a arc) hit(v int64) int { return B2I(uint64(v)-a.start <= a.span) }

// holds reports whether every value of b lies on a.
func (a arc) holds(b arc) bool {
	off := b.start - a.start
	return off <= a.span && b.span <= a.span-off
}

// scan, on each column type whose stored values are integers, is the kernel of
// its layout; Scan refuses a column without one whatever the interval.
func (c *Int64Column) scan(a arc, sel PosList, out []int32) []int32 {
	return scanInts(c.Values, a, sel, out)
}
func (c *DateColumn) scan(a arc, sel PosList, out []int32) []int32 {
	return scanInts(c.Values, a, sel, out)
}
func (c *StringColumn) scan(a arc, sel PosList, out []int32) []int32 {
	return scanInts(c.Codes, a, sel, out)
}

// scanInts is the dense integer layout — plain integers, dates, dictionary
// codes. Like every kernel, it has one loop for each arm of a selection and
// writes into capacity out already has. (The range arm returns rather than
// fall into an empty list loop: sharing registers with it costs two reloads
// a row.)
func scanInts[S int32 | int64](vals []S, a arc, sel PosList, out []int32) []int32 {
	k := len(out)
	out = out[:k+sel.Len()]
	if sel.list == nil {
		for i, v := range vals[sel.lo : sel.lo+sel.n] {
			out[k] = sel.lo + int32(i)
			k += a.hit(int64(v))
		}
		return out[:k]
	}
	for _, p := range sel.list {
		out[k] = p
		k += a.hit(int64(vals[p]))
	}
	return out[:k]
}

// scanFloats is the dense float layout. An interval of floats is two
// comparisons, both false for a NaN, and the complement is the negation of
// their conjunction, not "below or above", so that a NaN falls on its side.
func scanFloats(vals []float64, iv Interval[float64], sel PosList, out []int32) []int32 {
	k, not := len(out), B2I(iv.Not)
	out = out[:k+sel.Len()]
	if sel.list == nil {
		for i, v := range vals[sel.lo : sel.lo+sel.n] {
			out[k] = sel.lo + int32(i)
			k += (B2I(v >= iv.Lo) & B2I(v <= iv.Hi)) ^ not
		}
		return out[:k]
	}
	for _, p := range sel.list {
		out[k] = p
		k += (B2I(vals[p] >= iv.Lo) & B2I(vals[p] <= iv.Hi)) ^ not
	}
	return out[:k]
}

// appendRange appends the positions [lo, lo+n) to out, which has the capacity.
func appendRange(out []int32, lo, n int) []int32 {
	k := len(out)
	out = out[:k+n]
	for i := range out[k:] {
		out[k+i] = int32(lo + i)
	}
	return out
}

// arc returns the arc the values of the block lie on: from its minimum, of
// span 2^width − 1 — exact for blocks whose extremes realize the width and
// conservative otherwise; a 64-bit block spans the circle.
func (h *blockHdr) arc() arc { return arc{uint64(h.min), uint64(1)<<h.width - 1} }

// scan is the packed layout. A block on the arc asked for, or on the rest of
// it, is taken or skipped whole without touching its packed words. Of a
// straddling block the range arm decodes its rows into a stack buffer; the
// list arm, which walks the list source block by source block, extracts the
// listed rows one by one.
func (s *packed) scan(a arc, sel PosList, out []int32) []int32 {
	var vals [blockSize]int64
	rest, k := a.rest(), len(out)
	out = out[:k+sel.Len()]
	for lo, hi := int(sel.lo), int(sel.lo+sel.n); lo < hi; {
		bi, j := lo/blockSize, lo%blockSize
		n, h := min(blockSize-j, hi-lo), &s.hdr[bi]
		switch frame := h.arc(); {
		case a.holds(frame):
			appendRange(out[:k], lo, n)
			k += n
		case !rest.holds(frame):
			unpack(vals[:n], s.blockWords(bi), j, h.min, h.width)
			for i, v := range vals[:n] {
				out[k] = int32(lo + i)
				k += a.hit(v)
			}
		}
		lo += n
	}
	for list := sel.list; len(list) > 0; {
		var in []int32
		in, list = HeadBlock(list)
		h := &s.hdr[in[0]/blockSize]
		switch frame := h.arc(); {
		case a.holds(frame):
			k += copy(out[k:], in)
		case !rest.holds(frame):
			words := s.words[h.off:]
			for _, p := range in {
				out[k] = p
				k += a.hit(h.min + int64(delta(words, uint(p)%blockSize, h.width)))
			}
		}
	}
	return out[:k]
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
// "plain", "dict" (order-preserving string dictionary) or "bitpack"
// (frame-of-reference bit packing).
func Encoding(c Column) string {
	switch c.(type) {
	case *CompressedInt64Column, *CompressedDateColumn:
		return "bitpack"
	case *StringColumn:
		return "dict"
	default:
		return "plain"
	}
}
