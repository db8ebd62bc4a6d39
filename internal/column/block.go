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
// []T — or, given positions, the rows pos[lo:hi] of a plain one: a view of
// the column's own storage where it holds Ts row for row, and otherwise the
// rows gathered, decoded (a block at a time) or converted into scratch, in
// one pass, which is grown if its capacity is short. The result must not be
// written to. Integer-valued columns of every encoding read as int64 or
// float64, and dates, stored as int32s, as int32 too; float columns read
// only as float64; ok is false for anything else.
func Reader[T Number](c Column, pos []int32) (read func(lo, hi int, scratch []T) []T, ok bool) {
	_, narrow := any(T(0)).(int32)
	_, float := any(T(0)).(float64)
	switch c := c.(type) {
	case *DateColumn:
		return ValueReader[T](c.Values, pos), true
	case *Int64Column:
		return ValueReader[T](c.Values, pos), !narrow
	case *Float64Column:
		return ValueReader[T](c.Values, pos), float
	case *CompressedInt64Column:
		return packedReader[T](&c.packed), pos == nil && !narrow
	case *CompressedDateColumn:
		return packedReader[T](&c.packed), pos == nil && !narrow
	default:
		return nil, false
	}
}

// Grown returns scratch resized to n elements, reallocated if too small.
func Grown[T any](scratch []T, n int) []T {
	if cap(scratch) < n {
		return make([]T, n)
	}
	return scratch[:n]
}

func packedReader[T Number](s *packed) func(lo, hi int, scratch []T) []T {
	return func(lo, hi int, scratch []T) []T {
		dst := Grown(scratch, hi-lo)
		decode(s, lo, hi, dst)
		return dst
	}
}

// ValueReader is Reader over the stored values of a plain column — or a
// string column's codes — row for row where pos is nil.
func ValueReader[T, S Number](vals []S, pos []int32) func(lo, hi int, scratch []T) []T {
	if pos != nil {
		return func(lo, hi int, scratch []T) []T {
			dst := Grown(scratch, hi-lo)
			for i, p := range pos[lo:hi] {
				dst[i] = T(vals[p])
			}
			return dst
		}
	}
	if same, ok := any(vals).([]T); ok {
		return func(lo, hi int, _ []T) []T { return same[lo:hi] }
	}
	return func(lo, hi int, scratch []T) []T {
		dst := Grown(scratch, hi-lo)
		for i, v := range vals[lo:hi] {
			dst[i] = T(v)
		}
		return dst
	}
}
