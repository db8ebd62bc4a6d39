// Package bus simulates the PCIe link between host and co-processor: a pair
// of directed channels with latency and bandwidth, FIFO arbitration, and
// transfer accounting into the meters its owner installs.
//
// The paper identifies this link as the central bottleneck of co-processor
// query processing (§1, [11]); Figures 6, 15 and 19 plot exactly the
// per-direction transfer times this package meters.
package bus

import (
	"fmt"
	"time"

	"robustdb/internal/sim"
)

// Direction names a transfer direction.
type Direction uint8

// Transfer directions.
const (
	// HostToDevice is CPU → co-processor (input columns, re-uploads).
	HostToDevice Direction = iota
	// DeviceToHost is co-processor → CPU (results, aborted intermediates).
	DeviceToHost
)

// String returns a short direction label.
func (d Direction) String() string {
	switch d {
	case HostToDevice:
		return "H2D"
	case DeviceToHost:
		return "D2H"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// Link is one direction of the bus.
type Link struct {
	dir       Direction
	bandwidth float64 // bytes per second
	latency   time.Duration
	slot      *sim.Pool // serializes transfers FIFO
	meters    Meters
}

// ByteMeter and TimeMeter are the minimal sinks a link counts into. They are
// satisfied by *trace.Counter and *trace.DurationCounter without making this
// package depend on the metrics layer; implementations must be safe for
// concurrent reads (the observability surface scrapes them while the
// simulator moves data).
type (
	ByteMeter interface{ Add(n int64) }
	TimeMeter interface{ Add(d time.Duration) }
)

// Meters is where one link counts: each quantity in the meter installed for
// it, the moment a transfer ends, and nowhere else. Nil fields are skipped.
type Meters struct {
	// Bytes counts the payload of every successful transfer.
	Bytes ByteMeter
	// Busy counts the time the link served transfers, queueing excluded: the
	// whole service time of a successful transfer, the setup latency of a
	// failed one. The slot serves one transfer at a time, so these never
	// overlap.
	Busy TimeMeter
}

// TransferHook is consulted before a transfer moves data. Returning a non-nil
// error fails the transfer with that error after charging only the setup
// latency (the DMA was programmed but the payload never arrived). Fault
// injectors install hooks to produce PCIe transfer errors.
type TransferHook func(d Direction, n int64) error

// Bus is the full-duplex interconnect: independent links per direction, the
// standard model for PCIe with separate DMA engines per direction (and the
// reason CoGaDB uses CUDA streams, §2.5.3).
type Bus struct {
	links [2]*Link
	hook  TransferHook
}

// Config holds the physical parameters of the bus.
type Config struct {
	// Bandwidth is the effective per-direction bandwidth in bytes/second.
	Bandwidth float64
	// Latency is the fixed per-transfer setup latency.
	Latency time.Duration
}

// New creates a bus inside the simulation s whose links count into meters,
// indexed by Direction.
func New(s *sim.Sim, cfg Config, meters [2]Meters) *Bus {
	if cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("bus: bandwidth must be positive, got %v", cfg.Bandwidth))
	}
	b := &Bus{}
	for _, d := range []Direction{HostToDevice, DeviceToHost} {
		b.links[d] = &Link{
			dir:       d,
			bandwidth: cfg.Bandwidth,
			latency:   cfg.Latency,
			slot:      sim.NewPool(s, "bus-"+d.String(), 1),
			meters:    meters[d],
		}
	}
	return b
}

// Link returns the link of the given direction.
func (b *Bus) Link(d Direction) *Link { return b.links[d] }

// SetTransferHook installs (or, with nil, removes) the transfer fault hook.
func (b *Bus) SetTransferHook(h TransferHook) { b.hook = h }

// TryTransfer moves n bytes in direction d on behalf of process p, blocking
// in virtual time for queueing + latency + n/bandwidth. Zero-byte transfers
// are free and do not touch the link. An installed TransferHook may fail the
// transfer: it then occupies the link for its setup latency only and moves no
// payload bytes.
func (b *Bus) TryTransfer(p *sim.Proc, d Direction, n int64) error {
	if n < 0 {
		panic(fmt.Sprintf("bus: negative transfer %d", n))
	}
	if n == 0 {
		return nil
	}
	l := b.links[d]
	l.slot.Acquire(p)
	defer l.slot.Release()
	if b.hook != nil {
		if err := b.hook(d, n); err != nil {
			p.Hold(l.latency)
			l.busy(l.latency)
			return err
		}
	}
	dur := b.Duration(d, n)
	p.Hold(dur)
	l.busy(dur)
	if l.meters.Bytes != nil {
		l.meters.Bytes.Add(n)
	}
	return nil
}

// busy counts service time on the link's busy meter.
func (l *Link) busy(d time.Duration) {
	if l.meters.Busy != nil {
		l.meters.Busy.Add(d)
	}
}

// Duration returns the service time (excluding queueing) of an n-byte
// transfer in direction d.
func (b *Bus) Duration(d Direction, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	l := b.links[d]
	return l.latency + time.Duration(float64(n)/l.bandwidth*float64(time.Second))
}

// InFlight returns the number of transfers currently in service on the link.
func (l *Link) InFlight() int { return l.slot.InUse() }

// Waiting returns the number of transfers queued on the link's FIFO slot.
func (l *Link) Waiting() int { return l.slot.Waiting() }

// Direction returns the link's direction.
func (l *Link) Direction() Direction { return l.dir }
