package column

// Block access for the kernels: a contiguous run of rows is read — or handed
// on — as a block, never value by value. GatherRange is the zero-copy form
// of Gather for a contiguous position list; Reader is the one place a
// numeric column of any encoding turns into a slice a kernel can loop over.

// GatherRange returns the column c.Gather would build for the positions
// lo, lo+1, …, hi−1 — the same Len, values and Bytes — without copying the
// rows, as a view that aliases c's storage (see the immutability rule in the
// package comment). It reports false where only a copy can give that result:
// a bit-packed column whose range starts inside a block.
func GatherRange(c Column, lo, hi int) (Column, bool) {
	switch c := c.(type) {
	case *Int64Column:
		return NewInt64(c.name, c.Values[lo:hi:hi]), true
	case *Float64Column:
		return NewFloat64(c.name, c.Values[lo:hi:hi]), true
	case *DateColumn:
		return NewDate(c.name, c.Values[lo:hi:hi]), true
	case *StringColumn:
		return NewStringFromDict(c.name, c.Dict, c.Codes[lo:hi:hi]), true
	case *CompressedInt64Column:
		s, ok := c.gatherRange(lo, hi)
		return &CompressedInt64Column{s}, ok
	case *CompressedDateColumn:
		s, ok := c.gatherRange(lo, hi)
		return &CompressedDateColumn{s}, ok
	default:
		return nil, false
	}
}

// Reader returns a function reading rows [lo, hi) of a numeric column as
// []T: a view of the column's own storage where it already holds Ts, and
// otherwise the rows decoded (a block at a time) or converted into scratch,
// which is grown if its capacity is short. The result must not be written
// to. Integer-valued columns of every encoding read as int64 or float64;
// float columns read only as float64; ok is false for anything else.
func Reader[T int64 | float64](c Column) (read func(lo, hi int, scratch []T) []T, ok bool) {
	switch c := c.(type) {
	case *Int64Column:
		return plainReader[T](c.Values), true
	case *DateColumn:
		return plainReader[T](c.Values), true
	case *Float64Column:
		if _, ints := any(T(0)).(int64); ints {
			return nil, false
		}
		return plainReader[T](c.Values), true
	case *CompressedInt64Column:
		return packedReader[T](&c.packed), true
	case *CompressedDateColumn:
		return packedReader[T](&c.packed), true
	default:
		return nil, false
	}
}

// grown returns scratch resized to n elements, reallocated if too small.
func grown[T any](scratch []T, n int) []T {
	if cap(scratch) < n {
		return make([]T, n)
	}
	return scratch[:n]
}

func packedReader[T number](s *packed) func(lo, hi int, scratch []T) []T {
	return func(lo, hi int, scratch []T) []T {
		dst := grown(scratch, hi-lo)
		decode(s, lo, hi, dst)
		return dst
	}
}

func plainReader[T, S number](vals []S) func(lo, hi int, scratch []T) []T {
	if same, ok := any(vals).([]T); ok {
		return func(lo, hi int, _ []T) []T { return same[lo:hi] }
	}
	return func(lo, hi int, scratch []T) []T {
		dst := grown(scratch, hi-lo)
		for i, v := range vals[lo:hi] {
			dst[i] = T(v)
		}
		return dst
	}
}
