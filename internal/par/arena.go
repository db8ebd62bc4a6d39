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

// Get returns a zero-length []T with capacity >= capHint.
func Get[T float64 | int64 | int32](capHint int) []T { return arena[T]().get(capHint) }

// Put recycles a buffer obtained from Get.
func Put[T float64 | int64 | int32](s []T) { arena[T]().put(s) }

func arena[T float64 | int64 | int32]() *bufPool[T] {
	var a any
	switch any(T(0)).(type) {
	case float64:
		a = &f64Arena
	case int64:
		a = &i64Arena
	default:
		a = &i32Arena
	}
	return a.(*bufPool[T])
}

// PutPos recycles the buffer behind an explicit position list whose
// positions were collected in a Get[int32] buffer. A range holds no buffer.
func PutPos(pos column.PosList) {
	if _, _, isRange := pos.AsRange(); !isRange {
		Put(pos.Explicit())
	}
}

// TakePos is the way out of a Get[int32] buffer for a selection kernel, which
// stores every candidate row and so needs a place for each: out holds the
// ascending positions that qualified. The selection returned keeps a copy
// the size of what qualified — none at all when that is a run of rows, which
// is a range — and the buffer is recycled.
func TakePos(out []int32) column.PosList {
	pos := column.Ascending(out)
	if _, _, isRange := pos.AsRange(); !isRange {
		pos = column.Positions(slices.Clone(out))
	}
	Put(out)
	return pos
}
