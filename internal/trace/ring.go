package trace

import "sync"

// Ring is a bounded, mutex-guarded record buffer: Put overwrites the oldest
// entry once the ring is full and counts it as dropped, so memory stays fixed
// on long runs. It holds the tracer's spans and events and the slow-query
// journal's entries. Construct with NewRing.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int // slot the next Put writes
	count   int
	dropped int64
}

// NewRing creates a ring holding up to capacity entries (capacity > 0).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Put appends v, overwriting the oldest entry when the ring is full.
func (r *Ring[T]) Put(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Tail returns a copy of the newest n entries (all of them when fewer are
// held), oldest first. It copies only what it returns.
func (r *Ring[T]) Tail(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n = max(min(n, r.count), 0)
	out := make([]T, n)
	first := (r.next - n + len(r.buf)) % len(r.buf)
	k := copy(out, r.buf[first:min(first+n, len(r.buf))])
	copy(out[k:], r.buf)
	return out
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns how many entries Put overwrote.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset empties the ring and its dropped count.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	r.next, r.count, r.dropped = 0, 0, 0
	r.mu.Unlock()
}
