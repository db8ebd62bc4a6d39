package column

import "sort"

// RLEInt64Column is a run-length-encoded integer column: maximal runs of
// equal values stored as one (value, cumulative end) pair each. RLE is the
// natural encoding for sorted or clustered attributes (order keys, group
// ids): predicates decide a run with one comparison, so a scan's work scales
// with the number of runs, not the number of rows; every other kernel reads
// it a block at a time (Reader). A contiguous gather is a zero-copy Slice
// view (GatherRange); any other Gather re-encodes.
type RLEInt64Column struct {
	name   string
	vals   []int64 // one value per run
	ends   []int32 // cumulative exclusive end of each run, ascending
	off    int     // first logical row, in run coordinates
	length int
}

// CompressRLE run-length-encodes values into an RLEInt64Column.
func CompressRLE(name string, values []int64) *RLEInt64Column {
	c := &RLEInt64Column{name: name, length: len(values)}
	for i, v := range values {
		if len(c.vals) == 0 || c.vals[len(c.vals)-1] != v {
			c.vals = append(c.vals, v)
			c.ends = append(c.ends, int32(i))
		}
		c.ends[len(c.ends)-1] = int32(i + 1)
	}
	return c
}

// CompressInt64RLE run-length-encodes a plain integer column.
func CompressInt64RLE(c *Int64Column) *RLEInt64Column { return CompressRLE(c.Name(), c.Values) }

// Name returns the attribute name.
func (c *RLEInt64Column) Name() string { return c.name }

// Type returns Int64: the logical type is unchanged by the encoding.
func (c *RLEInt64Column) Type() Type { return Int64 }

// Len returns the number of rows.
func (c *RLEInt64Column) Len() int { return c.length }

// Bytes returns the real encoded size of the runs this view overlaps:
// 8 bytes of value plus 4 bytes of end offset per run.
func (c *RLEInt64Column) Bytes() int64 {
	if c.length == 0 {
		return 0
	}
	first := c.run(0)
	last := c.run(c.length - 1)
	return int64(last-first+1) * 12
}

// run returns the index of the run containing local row i.
func (c *RLEInt64Column) run(i int) int {
	base := c.off + i
	return sort.Search(len(c.ends), func(k int) bool { return int(c.ends[k]) > base })
}

// Value returns the i-th value.
func (c *RLEInt64Column) Value(i int) int64 { return c.vals[c.run(i)] }

// Runs calls fn(value, lo, hi) for each maximal run overlapping local rows
// [lo, hi), clipped to that window, in ascending row order.
func (c *RLEInt64Column) Runs(lo, hi int, fn func(v int64, lo, hi int)) {
	if lo >= hi {
		return
	}
	for r := c.run(lo); lo < hi; r++ {
		end := int(c.ends[r]) - c.off
		if end > hi {
			end = hi
		}
		fn(c.vals[r], lo, end)
		lo = end
	}
}

// Slice returns a zero-copy view of rows [lo, hi).
func (c *RLEInt64Column) Slice(lo, hi int) *RLEInt64Column {
	checkSlice(lo, hi, c.length)
	return &RLEInt64Column{name: c.name, vals: c.vals, ends: c.ends, off: c.off + lo, length: hi - lo}
}

// Gather re-encodes the addressed rows as runs, preserving the encoding on
// late-materialized paths. Adjacent equal survivors merge into one run.
func (c *RLEInt64Column) Gather(pos []int32) Column {
	out := &RLEInt64Column{name: c.name, length: len(pos)}
	for i, p := range pos {
		v := c.Value(int(p))
		if len(out.vals) == 0 || out.vals[len(out.vals)-1] != v {
			out.vals = append(out.vals, v)
			out.ends = append(out.ends, int32(i))
		}
		out.ends[len(out.ends)-1] = int32(i + 1)
	}
	return out
}

// Decompress materializes the whole column (metered; see DecompressedBytes).
func (c *RLEInt64Column) Decompress() *Int64Column {
	out := make([]int64, c.length)
	c.Runs(0, c.length, func(v int64, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = v
		}
	})
	noteDecompressed(int64(c.length) * 8)
	return NewInt64(c.name, out)
}

// scan is the run layout: one comparison decides a run of a range, and a
// cursor over the runs follows an ascending list.
func (c *RLEInt64Column) scan(a arc, sel PosList, out []int32) []int32 {
	c.Runs(int(sel.lo), int(sel.lo+sel.n), func(v int64, from, to int) {
		if a.hit(v) == 1 {
			out = appendRange(out, from, to-from)
		}
	})
	if sel.list == nil {
		return out
	}
	k, r := len(out), c.run(int(sel.list[0]))
	out = out[:k+len(sel.list)]
	for _, p := range sel.list {
		for int(c.ends[r])-c.off <= int(p) {
			r++
		}
		out[k] = p
		k += a.hit(c.vals[r])
	}
	return out[:k]
}
