package column

// Code-domain scan kernels: predicates evaluate directly on the packed
// representation. Every frame-of-reference block knows its minimum and (from
// the bit width) a conservative maximum, so whole blocks are skipped or
// taken with two comparisons; only straddling blocks are decoded, a block at
// a time into a stack buffer. This is what makes compressed filters faster
// than decompress-then-filter on clustered data, not merely equal.

import "sync/atomic"

// ScanOp enumerates the comparison kinds of the code-domain kernels.
// internal/expr translates its operators to these once per predicate.
type ScanOp uint8

const (
	// ScanEQ selects values equal to the constant.
	ScanEQ ScanOp = iota
	// ScanNE selects values not equal to the constant.
	ScanNE
	// ScanLT selects values less than the constant.
	ScanLT
	// ScanLE selects values at most the constant.
	ScanLE
	// ScanGT selects values greater than the constant.
	ScanGT
	// ScanGE selects values at least the constant.
	ScanGE
)

// cmpMatches reports whether (a op b) holds.
func cmpMatches(op ScanOp, a, b int64) bool {
	switch op {
	case ScanEQ:
		return a == b
	case ScanNE:
		return a != b
	case ScanLT:
		return a < b
	case ScanLE:
		return a <= b
	case ScanGT:
		return a > b
	default:
		return a >= b
	}
}

// blockBounds returns the value range a block can contain. The maximum is
// the width-implied bound (min + 2^width − 1), which is exact for blocks
// whose extremes realize the width and conservative otherwise. bounded is
// false for 64-bit blocks, whose delta range wraps int64.
func blockBounds(b *blockHdr) (mn int64, maxDelta uint64, bounded bool) {
	if b.width >= 64 {
		return b.min, 0, false
	}
	return b.min, (uint64(1) << b.width) - 1, true
}

// blockClass classifies a block against (value op v): every row matches,
// no row matches, or the block straddles and must be scanned.
type blockClass uint8

const (
	classNone blockClass = iota
	classAll
	classMixed
)

func classifyCmp(b *blockHdr, op ScanOp, v int64) blockClass {
	mn, maxDelta, bounded := blockBounds(b)
	// dv is the unsigned distance v − mn, meaningful only when v ≥ mn;
	// computing it in uint64 sidesteps int64 overflow for extreme frames.
	var dv uint64
	if v >= mn {
		dv = uint64(v) - uint64(mn)
	}
	above := bounded && v >= mn && dv > maxDelta // v exceeds the block maximum
	below := v < mn                              // v is under the block minimum
	switch op {
	case ScanEQ:
		if below || above {
			return classNone
		}
		if b.width == 0 && mn == v {
			return classAll
		}
	case ScanNE:
		if below || above {
			return classAll
		}
		if b.width == 0 && mn == v {
			return classNone
		}
	case ScanLT:
		if above {
			return classAll
		}
		if v <= mn {
			return classNone
		}
	case ScanLE:
		if above || (bounded && v >= mn && dv == maxDelta) {
			return classAll
		}
		if below {
			return classNone
		}
	case ScanGT:
		if below {
			return classAll
		}
		if above || (bounded && v >= mn && dv == maxDelta) {
			return classNone
		}
	case ScanGE:
		if v <= mn {
			return classAll
		}
		if above {
			return classNone
		}
	}
	return classMixed
}

// spans calls fn for each block the view overlaps, with the block's index,
// the first row of interest inside it, the local row that is, and the
// number of rows of interest.
func (s *packed) spans(fn func(bi, j, local, span int)) {
	for local := 0; local < s.length; {
		at := s.off + local
		bi, j := at/blockSize, at%blockSize
		span := min(blockSize-j, s.length-local)
		fn(bi, j, local, span)
		local += span
	}
}

// appendRange appends the positions [lo, lo+n) to out.
func appendRange(out []int32, lo, n int) []int32 {
	for i := 0; i < n; i++ {
		out = append(out, int32(lo+i))
	}
	return out
}

// ScanCmp appends the local positions satisfying (value op v) to out. Blocks
// classified all/none are emitted or skipped without touching their packed
// words.
func (s *packed) ScanCmp(op ScanOp, v int64, out []int32) []int32 {
	var vals [blockSize]int64
	s.spans(func(bi, j, local, span int) {
		h := &s.hdr[bi]
		switch classifyCmp(h, op, v) {
		case classAll:
			out = appendRange(out, local, span)
		case classMixed:
			unpack(vals[:span], s.blockWords(bi), j, h.min, h.width)
			for i, x := range vals[:span] {
				if cmpMatches(op, x, v) {
					out = append(out, int32(local+i))
				}
			}
		}
	})
	return out
}

// ScanRange appends the local positions with lo ≤ value ≤ hi to out.
func (s *packed) ScanRange(lo, hi int64, out []int32) []int32 {
	if lo > hi {
		return out
	}
	var vals [blockSize]int64
	s.spans(func(bi, j, local, span int) {
		h := &s.hdr[bi]
		mn, maxDelta, bounded := blockBounds(h)
		switch {
		case hi < mn || (bounded && lo >= mn && uint64(lo)-uint64(mn) > maxDelta):
			// disjoint: skip the block
		case lo <= mn && bounded && hi >= mn && uint64(hi)-uint64(mn) >= maxDelta:
			out = appendRange(out, local, span)
		default:
			unpack(vals[:span], s.blockWords(bi), j, h.min, h.width)
			for i, x := range vals[:span] {
				if x >= lo && x <= hi {
					out = append(out, int32(local+i))
				}
			}
		}
	})
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
