package sim

import "fmt"

// Pool is a counted resource with FIFO admission: worker slots of a
// processor, the transfer slot of a bus direction. A process acquires a
// token, holds it for some virtual time, and releases it; when no token is
// free the process parks in a FIFO queue.
type Pool struct {
	sim      *Sim
	name     string
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewPool creates a pool of capacity tokens. Capacity must be positive.
func NewPool(s *Sim, name string, capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: pool %s needs positive capacity, got %d", name, capacity))
	}
	return &Pool{sim: s, name: name, capacity: capacity}
}

// Name returns the pool name.
func (r *Pool) Name() string { return r.name }

// Capacity returns the total number of tokens.
func (r *Pool) Capacity() int { return r.capacity }

// InUse returns the number of tokens currently held.
func (r *Pool) InUse() int { return r.inUse }

// Waiting returns the number of parked processes.
func (r *Pool) Waiting() int { return len(r.waiters) }

// Acquire takes a token, parking the process FIFO until one is free.
func (r *Pool) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.parkBlocked()
	// Token was transferred by Release; inUse is unchanged.
}

// Release returns a token. If processes are waiting, the token transfers to
// the head of the queue, which resumes at the current virtual time.
func (r *Pool) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: pool %s released more than acquired", r.name))
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.sim.unblocked()
		r.sim.schedule(r.sim.now, func() {
			r.sim.wake(w)
		})
		return
	}
	r.inUse--
}
