package column

// Compression support (paper §6.3: "We can improve the scalability by
// compressing the database, which shifts the point where performance breaks
// down to a larger scale factor or number of users. Thus, compression
// neither solves the cache thrashing nor the heap contention problem.").
//
// Integer columns are compressed block-wise with frame-of-reference +
// bit-packing: each block of blockSize values stores its minimum and the
// per-value deltas packed at the block's required bit width. The encoding
// is real — Bytes() reports the actual packed size, so caching, transfers,
// and footprints all shrink by the true compression ratio, which is exactly
// the mechanism that moves the knees of Figures 2/3/14.
//
// Kernels do not decompress to operate: predicates scan the packed blocks
// directly, over whatever row range a morsel worker is handed (see scan.go),
// and Gather re-packs the surviving rows a block at a time (sharing the
// source's packed words outright when the rows are a contiguous range). Full
// decodes still happen at well-defined seams (Decompress/Materialized) and
// are metered through DecompressedBytes so late materialization is
// observable, not just asserted.

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// blockSize is the number of values per compression block.
const blockSize = 128

// BlockRows is blockSize for readers outside the package: fetching listed
// rows within one block at a time decodes no block the list does not touch.
const BlockRows = blockSize

// HeadBlock splits an ascending, non-empty list after its rows of the block
// that its first row lies in.
func HeadBlock(list []int32) (in, rest []int32) {
	e, end := 1, (int(list[0])/blockSize+1)*blockSize
	for e < len(list) && int(list[e]) < end {
		e++
	}
	return list[:e], list[e:]
}

// gatherChunk is the number of output rows one gather task packs: a multiple
// of blockSize, so the blocks of the output are the same however many
// workers run the tasks.
const gatherChunk = 64 * blockSize

// denseRun is how many consecutive positions of a list must fall into one
// source block before gather decodes that whole block instead of extracting
// the values one by one.
const denseRun = 48

// blockHdr is the header of one frame-of-reference block. The block's packed
// deltas are the wordsFor(n, width) words of the column's arena from off on.
type blockHdr struct {
	min   int64
	off   uint32
	width uint8 // bits per delta, 0..64
}

// packed is a frame-of-reference bit-packed integer sequence: one header per
// 128 rows and the packed deltas of all blocks back to back in one arena,
// which a sequence cut from another on a block boundary shares (gatherRange).
// Both compressed column types embed it, so every kernel below is written
// once.
type packed struct {
	name  string
	hdr   []blockHdr
	words []uint64
	rows  int // only the last block may be short
}

// bitsFor returns the number of bits needed to represent x.
func bitsFor(x uint64) uint8 { return uint8(bits.Len64(x)) }

// wordsFor returns the number of words n deltas of the given width occupy.
func wordsFor(n int, width uint8) int { return (n*int(width) + 63) / 64 }

// frame returns the minimum of vals and the bit width of their largest delta.
func frame(vals []int64) (int64, uint8) {
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, bitsFor(uint64(mx) - uint64(mn))
}

// appendBlock packs vals (at most blockSize of them) as one block at the end
// of buf. The bit cursor and the word being filled stay in registers; every
// word is stored once, so buf's spare capacity need not be zero.
func appendBlock(buf []uint64, vals []int64) (blockHdr, []uint64) {
	mn, width := frame(vals)
	h := blockHdr{min: mn, off: uint32(len(buf)), width: width}
	nw := wordsFor(len(vals), width)
	buf = slices.Grow(buf, nw)[:len(buf)+nw]
	dst := buf[h.off:]
	switch width {
	case 0:
	case 64:
		for i, v := range vals {
			dst[i] = uint64(v) - uint64(mn)
		}
	default:
		var cur uint64
		bit, wi := uint(0), 0
		for _, v := range vals {
			d := uint64(v) - uint64(mn)
			cur |= d << (bit & 63)
			bit += uint(width)
			if bit >= 64 {
				dst[wi] = cur
				wi++
				bit -= 64
				cur = d >> ((uint(width) - bit) & 63) // the bits that did not fit; 0 when bit is 0
			}
		}
		if bit > 0 {
			dst[wi] = cur
		}
	}
	return h, buf
}

// pack encodes values into an exact-sized arena: one pass for the widths,
// one to pack.
func pack(name string, values []int64) packed {
	s := packed{name: name, rows: len(values)}
	if len(values) == 0 {
		return s
	}
	total := 0
	for lo := 0; lo < len(values); lo += blockSize {
		chunk := values[lo:min(lo+blockSize, len(values))]
		_, width := frame(chunk)
		total += wordsFor(len(chunk), width)
	}
	s.hdr = make([]blockHdr, 0, (len(values)+blockSize-1)/blockSize)
	s.words = make([]uint64, 0, total)
	for lo := 0; lo < len(values); lo += blockSize {
		var h blockHdr
		h, s.words = appendBlock(s.words, values[lo:min(lo+blockSize, len(values))])
		s.hdr = append(s.hdr, h)
	}
	return s
}

// Number is the set of element types a packed sequence decodes into and a
// Reader reads as.
type Number interface{ ~int32 | ~int64 | ~float64 }

// unpack decodes len(dst) consecutive values of a block, starting at the
// block's j-th, with the bit cursor and the current word in registers.
func unpack[T Number](dst []T, words []uint64, j int, mn int64, width uint8) {
	switch width {
	case 0:
		for i := range dst {
			dst[i] = T(mn)
		}
	case 64:
		for i := range dst {
			dst[i] = T(mn + int64(words[j+i]))
		}
	default:
		w := uint(width)
		mask := uint64(1)<<w - 1
		wi, bit := j*int(width)>>6, uint(j*int(width))&63
		cur := words[wi]
		for i := range dst {
			v := cur >> (bit & 63)
			bit += w
			if bit >= 64 {
				bit -= 64
				if wi++; wi < len(words) {
					cur = words[wi]
					v |= cur << ((w - bit) & 63) // lands above the mask when bit is 0
				}
			}
			dst[i] = T(mn + int64(v&mask))
		}
	}
}

// delta extracts the j-th delta of a block of nonzero width whose words
// begin at words[0]; words may run on past the block. Branch-free: the word
// after the delta's first is read whether or not the delta straddles (the
// last word again at the end of the arena) — shifted in, its bits land at or
// above the width unless they belong to the delta, and the mask drops them.
func delta(words []uint64, j uint, width uint8) uint64 {
	at := j * uint(width)
	word, sh := at>>6, at&63
	next := words[min(word+1, uint(len(words)-1))]
	return (words[word]>>sh | next<<(64-sh)) & (math.MaxUint64 >> (64 - width))
}

// blockLen returns the number of rows encoded in block bi.
func (s *packed) blockLen(bi int) int { return min(blockSize, s.rows-bi*blockSize) }

// blockWords returns the packed deltas of block bi.
func (s *packed) blockWords(bi int) []uint64 {
	h := &s.hdr[bi]
	return s.words[h.off : int(h.off)+wordsFor(s.blockLen(bi), h.width)]
}

// Name returns the attribute name.
func (s *packed) Name() string { return s.name }

// Len returns the number of rows.
func (s *packed) Len() int { return s.rows }

// Bytes returns the real encoded size: per block the minimum (8 B), the
// width byte, and the packed words. Blocks lie back to back in the arena,
// which makes this O(1).
func (s *packed) Bytes() int64 {
	if s.rows == 0 {
		return 0
	}
	last := len(s.hdr) - 1
	end := int(s.hdr[last].off) + wordsFor(s.blockLen(last), s.hdr[last].width)
	return int64(len(s.hdr))*9 + int64(end-int(s.hdr[0].off))*8
}

// value returns the i-th value: the random-access path of the wire edge and
// the sort comparator. Kernels read blocks (decode, gather, the scan).
func (s *packed) value(i int) int64 {
	h := &s.hdr[i/blockSize]
	if h.width == 0 {
		return h.min
	}
	return h.min + int64(delta(s.words[h.off:], uint(i%blockSize), h.width))
}

// checkSlice panics like a slice expression does on bounds outside [0, n].
func checkSlice(lo, hi, n int) {
	if lo < 0 || hi < lo || hi > n {
		panic("column: slice bounds out of range")
	}
}

// decode writes rows [lo, hi) to dst, one source block at a time.
func decode[T Number](s *packed, lo, hi int, dst []T) {
	for lo < hi {
		bi, j := lo/blockSize, lo%blockSize
		n := min(blockSize-j, hi-lo)
		unpack(dst[:n], s.blockWords(bi), j, s.hdr[bi].min, s.hdr[bi].width)
		dst, lo = dst[n:], lo+n
	}
}

// wordPool recycles the buffers gather tasks pack into before the size of
// the arena is known. A task packs at most gatherChunk rows and so at most
// as many words (64-bit deltas throughout).
var wordPool = sync.Pool{New: func() any { return new([gatherChunk]uint64) }}

// serially runs the tasks of a gather on the calling goroutine.
func serially(k int, task func(i int)) {
	for i := 0; i < k; i++ {
		task(i)
	}
}

// gather re-packs the addressed rows into a new sequence. The output is cut
// into tasks of gatherChunk rows, which run schedules (any order, any number
// at once); each packs its blocks into a pooled buffer, and the buffers are
// then copied into one exact-sized arena. Late materialization
// keeps survivors encoded; decoding happens only at the Decompress seam.
func (s *packed) gather(pos []int32, run func(k int, task func(i int))) packed {
	n := len(pos)
	out := packed{name: s.name, rows: n}
	if n == 0 {
		return out
	}
	out.hdr = make([]blockHdr, (n+blockSize-1)/blockSize)
	bufs := make([][]uint64, (n+gatherChunk-1)/gatherChunk)
	run(len(bufs), func(i int) {
		lo := i * gatherChunk
		hi := min(lo+gatherChunk, n)
		bufs[i] = s.gatherChunk(pos[lo:hi], out.hdr[lo/blockSize:], wordPool.Get().(*[gatherChunk]uint64)[:0])
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out.words = make([]uint64, total)
	base := 0
	for i, b := range bufs {
		copy(out.words[base:], b)
		first := i * (gatherChunk / blockSize)
		for bi := first; bi < min(first+gatherChunk/blockSize, len(out.hdr)); bi++ {
			out.hdr[bi].off += uint32(base)
		}
		base += len(b)
		wordPool.Put((*[gatherChunk]uint64)(b[:gatherChunk]))
	}
	return out
}

// gatherChunk packs the rows at pos into buf, one header per output block.
// Each output block collects its values in a stack buffer, source block by
// source block. A source block is decoded whole when the position denseRun
// places ahead still lies in it (a dense stretch of an ascending list) and
// then serves every later position that hits it, so a dense ascending list
// decodes each source block once; otherwise the values are extracted one by
// one with the block's header and words hoisted.
func (s *packed) gatherChunk(pos []int32, hdr []blockHdr, buf []uint64) []uint64 {
	var vals, src [blockSize]int64
	decoded := -1 // source block held in src
	at := func(p int32) (block int, j uint) { return int(p) / blockSize, uint(p) % blockSize }
	for b := 0; b*blockSize < len(pos); b++ {
		p := pos[b*blockSize : min((b+1)*blockSize, len(pos))]
		for i := 0; i < len(p); {
			bi, _ := at(p[i])
			h := &s.hdr[bi]
			if bi != decoded && h.width != 0 && i+denseRun <= len(p) {
				if ahead, _ := at(p[i+denseRun-1]); ahead == bi {
					unpack(src[:s.blockLen(bi)], s.blockWords(bi), 0, h.min, h.width)
					decoded = bi
				}
			}
			words := s.words[h.off:]
			for ; i < len(p); i++ {
				block, j := at(p[i])
				if block != bi {
					break
				}
				switch {
				case h.width == 0:
					vals[i] = h.min
				case bi == decoded:
					vals[i] = src[j]
				default:
					vals[i] = h.min + int64(delta(words, j, h.width))
				}
			}
		}
		hdr[b], buf = appendBlock(buf, vals[:len(p)])
	}
	return buf
}

// gatherRange returns what gather would produce for the contiguous positions
// [lo, hi) without decoding them, when the range starts on a block boundary:
// its blocks are the source's blocks, so headers and words are shared. Only
// a final block the range cuts short is packed again (its frame may be
// narrower than the source block's), behind a copy of the shared words.
func (s *packed) gatherRange(lo, hi int) (packed, bool) {
	checkSlice(lo, hi, s.rows)
	n := hi - lo
	out := packed{name: s.name, rows: n}
	if n == 0 {
		return out, true
	}
	if lo%blockSize != 0 {
		return out, false
	}
	fb, lb := lo/blockSize, (hi-1)/blockSize
	out.hdr, out.words = s.hdr[fb:lb+1:lb+1], s.words
	if hi%blockSize == 0 || hi == s.rows {
		return out, true
	}
	out.hdr = slices.Clone(out.hdr)
	base, tail := out.hdr[0].off, out.hdr[lb-fb].off
	for i := range out.hdr {
		out.hdr[i].off -= base
	}
	var vals [blockSize]int64
	cut := vals[:hi%blockSize]
	unpack(cut, s.blockWords(lb), 0, s.hdr[lb].min, s.hdr[lb].width)
	_, width := frame(cut)
	words := make([]uint64, tail-base, int(tail-base)+wordsFor(len(cut), width))
	copy(words, s.words[base:tail])
	out.hdr[lb-fb], out.words = appendBlock(words, cut)
	return out, true
}

// CompressedInt64Column is a bit-packed integer column. It satisfies Column;
// predicates evaluate directly on the packed blocks (Scan), Gather re-packs
// the addressed rows so late-materialized paths stay compressed, and
// Decompress is the single (metered) full-decode seam.
type CompressedInt64Column struct{ packed }

// CompressInt64 encodes a plain integer column.
func CompressInt64(c *Int64Column) *CompressedInt64Column {
	return &CompressedInt64Column{pack(c.Name(), c.Values)}
}

// Type returns Int64: the logical type is unchanged by compression.
func (c *CompressedInt64Column) Type() Type { return Int64 }

// Value returns the i-th value.
func (c *CompressedInt64Column) Value(i int) int64 { return c.value(i) }

// Gather re-packs the addressed rows into a new compressed column.
func (c *CompressedInt64Column) Gather(pos []int32) Column { return c.GatherWith(pos, serially) }

// GatherWith is Gather with the packing of the output's 8192-row chunks
// handed to run as k independent tasks; the result does not depend on how
// run schedules them.
func (c *CompressedInt64Column) GatherWith(pos []int32, run func(k int, task func(i int))) Column {
	return &CompressedInt64Column{c.gather(pos, run)}
}

// Decompress materializes the whole column (metered; see DecompressedBytes).
func (c *CompressedInt64Column) Decompress() *Int64Column {
	out := make([]int64, c.rows)
	decode(&c.packed, 0, c.rows, out)
	noteDecompressed(int64(c.rows) * 8)
	return NewInt64(c.name, out)
}

// CompressedDateColumn is a bit-packed date column (the same packed
// sequence as CompressedInt64Column under a Date type).
type CompressedDateColumn struct{ packed }

// CompressDate encodes a plain date column.
func CompressDate(c *DateColumn) *CompressedDateColumn {
	vals := make([]int64, len(c.Values))
	for i, v := range c.Values {
		vals[i] = int64(v)
	}
	return &CompressedDateColumn{pack(c.Name(), vals)}
}

// Type returns Date.
func (c *CompressedDateColumn) Type() Type { return Date }

// Value returns the i-th value as days since epoch.
func (c *CompressedDateColumn) Value(i int) int32 { return int32(c.value(i)) }

// Gather re-packs the addressed rows into a new compressed date column.
func (c *CompressedDateColumn) Gather(pos []int32) Column { return c.GatherWith(pos, serially) }

// GatherWith is Gather with the chunk tasks handed to run (see
// CompressedInt64Column.GatherWith).
func (c *CompressedDateColumn) GatherWith(pos []int32, run func(k int, task func(i int))) Column {
	return &CompressedDateColumn{c.gather(pos, run)}
}

// Decompress materializes the whole column (metered; see DecompressedBytes).
func (c *CompressedDateColumn) Decompress() *DateColumn {
	out := make([]int32, c.rows)
	decode(&c.packed, 0, c.rows, out)
	noteDecompressed(int64(c.rows) * 4)
	return NewDate(c.name, out)
}

// Materialized returns a flat (kernel-ready) view of the column:
// compressed columns decompress, everything else passes through.
func Materialized(c Column) Column {
	switch c := c.(type) {
	case *CompressedInt64Column:
		return c.Decompress()
	case *CompressedDateColumn:
		return c.Decompress()
	default:
		return c
	}
}

// Compress returns the best-effort compressed form of a column: integer and
// date columns bit-pack; dictionary-encoded strings are already compressed
// and pass through, as do float columns (no lossless packing applies).
func Compress(c Column) Column {
	switch c := c.(type) {
	case *Int64Column:
		return CompressInt64(c)
	case *DateColumn:
		return CompressDate(c)
	default:
		return c
	}
}
