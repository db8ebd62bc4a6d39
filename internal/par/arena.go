package par

import (
	"slices"
	"sync"

	"robustdb/internal/column"
)

// Buffer arena: sync.Pool-backed recycling for the scratch slices the
// kernels burn through (per-morsel position lists, partial accumulator
// arrays, typed gather buffers).
//
// Lifetime rules (DESIGN.md §12):
//
//   - A Get'd buffer is owned by exactly one morsel/worker until it is
//     either Put back or its ownership is transferred into a result (in
//     which case it is simply never Put — the arena tolerates loss).
//   - Buffers are returned with length zero and capacity at least the
//     requested hint; contents are unspecified beyond the length.
//   - Put is safe on slices that did not come from Get, and never retains
//     zero-capacity slices.
//   - The arena is global and lock-free (sync.Pool); it never appears in
//     heap Reservation accounting because reservations model the simulated
//     device, not host scratch.

// bufPool keeps buffers boxed (a sync.Pool holds pointers) and the boxes
// get empties for put to fill again, so that a round trip allocates nothing.
type bufPool[T any] struct {
	pool, boxes sync.Pool
}

func (b *bufPool[T]) get(capHint int) []T {
	if box, _ := b.pool.Get().(*[]T); box != nil {
		s := *box
		*box = nil
		b.boxes.Put(box)
		if cap(s) >= capHint {
			return s[:0]
		}
		// Too small for this request: drop it rather than grow-and-copy.
	}
	if capHint < DefaultMorselRows {
		capHint = DefaultMorselRows
	}
	return make([]T, 0, capHint)
}

func (b *bufPool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	box, _ := b.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	b.pool.Put(box)
}

var (
	f64Arena bufPool[float64]
	i64Arena bufPool[int64]
	i32Arena bufPool[int32]
)

// GetFloat64 returns a zero-length []float64 with capacity >= capHint.
func GetFloat64(capHint int) []float64 { return f64Arena.get(capHint) }

// PutFloat64 recycles a buffer obtained from GetFloat64.
func PutFloat64(s []float64) { f64Arena.put(s) }

// GetInt64 returns a zero-length []int64 with capacity >= capHint.
func GetInt64(capHint int) []int64 { return i64Arena.get(capHint) }

// PutInt64 recycles a buffer obtained from GetInt64.
func PutInt64(s []int64) { i64Arena.put(s) }

// GetInt32 returns a zero-length []int32 with capacity >= capHint.
func GetInt32(capHint int) []int32 { return i32Arena.get(capHint) }

// PutInt32 recycles a buffer obtained from GetInt32.
func PutInt32(s []int32) { i32Arena.put(s) }

// PutPos recycles the buffer behind an explicit position list whose
// positions were collected in a GetInt32 buffer. A range holds no buffer.
func PutPos(pos column.PosList) {
	if _, _, isRange := pos.AsRange(); !isRange {
		PutInt32(pos.Explicit())
	}
}

// TakePos is the way out of a GetInt32 buffer for a selection kernel, which
// stores every candidate row and so needs a place for each: out holds the
// ascending positions that qualified. The selection returned keeps a copy
// the size of what qualified — none at all when that is a run of rows, which
// is a range — and the buffer is recycled.
func TakePos(out []int32) column.PosList {
	pos := column.Ascending(out)
	if _, _, isRange := pos.AsRange(); !isRange {
		pos = column.Positions(slices.Clone(out))
	}
	PutInt32(out)
	return pos
}
