// Package device simulates the co-processor of the paper: a processor with
// a small dedicated memory, split into a data cache for base columns and a
// heap for operator intermediates and results.
//
// The heap is a byte-accurate accounting allocator that fails exactly like
// a real device allocator does when capacity is exhausted — the mechanism
// behind the paper's operator aborts and heap contention. (Fragmentation is
// not modelled; CUDA's allocator is a sub-allocating pool for which a pure
// capacity model is the accepted abstraction.)
package device

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an allocation exceeds the free capacity.
// The execution engine reacts to it by aborting the operator and restarting
// it on the CPU (paper §2.5.1).
var ErrOutOfMemory = errors.New("device: out of memory")

// ErrReset is returned when a reservation created before a device reset is
// grown afterwards: the reset wiped the device heap, so everything the
// reservation held is gone and the operator must abort.
var ErrReset = errors.New("device: reservation invalidated by device reset")

// AllocHook is consulted before every allocation attempt. Returning a
// non-nil error fails the allocation with that error without touching the
// accounting state. Fault injectors install hooks to produce transient
// allocator failures (cudaMalloc returning spurious errors under driver
// stress).
type AllocHook func(n int64) error

// Memory is an accounting allocator over a fixed capacity.
type Memory struct {
	name       string
	capacity   int64
	used       int64
	highWater  int64
	generation int64
	hook       AllocHook
}

// NewMemory creates an allocator of the given capacity in bytes.
func NewMemory(name string, capacity int64) *Memory {
	if capacity < 0 {
		panic(fmt.Sprintf("device: negative capacity %d for %s", capacity, name))
	}
	return &Memory{name: name, capacity: capacity}
}

// Name returns the allocator name.
func (m *Memory) Name() string { return m.name }

// Capacity returns the total capacity in bytes.
func (m *Memory) Capacity() int64 { return m.capacity }

// Used returns the currently allocated bytes.
func (m *Memory) Used() int64 { return m.used }

// Available returns the remaining free bytes.
func (m *Memory) Available() int64 { return m.capacity - m.used }

// HighWater returns the maximum allocation level observed.
func (m *Memory) HighWater() int64 { return m.highWater }

// SetAllocHook installs (or, with nil, removes) the allocation fault hook.
func (m *Memory) SetAllocHook(h AllocHook) { m.hook = h }

// Generation returns the reset generation: how many times the device was
// reset.
func (m *Memory) Generation() int64 { return m.generation }

// Reset models a full device reset: every allocation is wiped instantly and
// all outstanding reservations become invalid (their holders observe ErrReset
// on the next Grow, and their releases turn into no-ops). Capacity and the
// high-water mark survive the reset.
func (m *Memory) Reset() {
	m.used = 0
	m.generation++
}

// Alloc reserves n bytes or returns ErrOutOfMemory (leaving state unchanged).
// Zero-byte allocations always succeed; negative sizes are a caller bug.
// An installed AllocHook may fail the allocation with its own error first.
func (m *Memory) Alloc(n int64) error {
	if n < 0 {
		panic(fmt.Sprintf("device: negative allocation %d on %s", n, m.name))
	}
	if m.hook != nil {
		if err := m.hook(n); err != nil {
			return err
		}
	}
	if m.used+n > m.capacity {
		return fmt.Errorf("%w: %s needs %d bytes, %d free of %d",
			ErrOutOfMemory, m.name, n, m.Available(), m.capacity)
	}
	m.used += n
	if m.used > m.highWater {
		m.highWater = m.used
	}
	return nil
}

// Release frees n bytes. Releasing more than allocated is a caller bug.
func (m *Memory) Release(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("device: negative free %d on %s", n, m.name))
	}
	if n > m.used {
		panic(fmt.Sprintf("device: %s freeing %d bytes with only %d allocated", m.name, n, m.used))
	}
	m.used -= n
}

// Reservation is a tracked allocation that can grow in steps and releases
// everything it holds at once. Operators allocate in several steps and hold
// onto already allocated memory (the reason the paper's engine cannot use
// wait-and-admit without deadlocks, §2.5.1); a Reservation mirrors that.
type Reservation struct {
	mem     *Memory
	held    int64
	maxHeld int64 // peak held bytes, kept across Release for diagnostics
	gen     int64 // reset generation the reservation belongs to
}

// Reserve starts an empty reservation on m.
func (m *Memory) Reserve() *Reservation {
	return &Reservation{mem: m, gen: m.generation}
}

// Valid reports whether the reservation survived every device reset since it
// was created. An invalid reservation holds nothing: its device memory was
// wiped by the reset.
func (r *Reservation) Valid() bool { return r.gen == r.mem.generation }

// Grow adds n bytes to the reservation or returns ErrOutOfMemory. On error
// previously held bytes remain held (the caller decides whether to abort).
// Growing a reservation invalidated by a device reset returns ErrReset.
func (r *Reservation) Grow(n int64) error {
	if !r.Valid() {
		r.held = 0
		return fmt.Errorf("%w: %s reset while %s held memory", ErrReset, r.mem.name, r.mem.name)
	}
	if err := r.mem.Alloc(n); err != nil {
		return err
	}
	r.held += n
	if r.held > r.maxHeld {
		r.maxHeld = r.held
	}
	return nil
}

// MaxHeld returns the peak bytes the reservation ever held — the operator's
// heap high-water mark. Unlike Held it survives Release and device resets,
// so tracing can report the footprint of aborted attempts.
func (r *Reservation) MaxHeld() int64 { return r.maxHeld }

// Held returns the bytes currently held by the reservation (0 after a device
// reset invalidated it).
func (r *Reservation) Held() int64 {
	if !r.Valid() {
		return 0
	}
	return r.held
}

// Release frees everything the reservation holds. It is idempotent, and a
// no-op on a reservation invalidated by a device reset (the reset already
// freed the memory).
func (r *Reservation) Release() {
	if !r.Valid() {
		r.held = 0
		return
	}
	if r.held > 0 {
		r.mem.Release(r.held)
		r.held = 0
	}
}

// ReleasePartial frees n of the reservation's bytes (an operator freeing its
// inputs while keeping its result, for example). On a reset-invalidated
// reservation it is a no-op.
func (r *Reservation) ReleasePartial(n int64) {
	if !r.Valid() {
		r.held = 0
		return
	}
	if n < 0 || n > r.held {
		panic(fmt.Sprintf("device: invalid partial release %d of %d held", n, r.held))
	}
	r.mem.Release(n)
	r.held -= n
}
