package faults

import (
	"robustdb/internal/bus"
	"robustdb/internal/device"
	"robustdb/internal/sim"
)

// WrapMemory installs the injector's transient-allocation fault hook on a
// device allocator. The hook reads the simulation clock to stamp the fault.
func (i *Injector) WrapMemory(s *sim.Sim, m *device.Memory) {
	m.SetAllocHook(func(n int64) error {
		return i.AllocFault(s.Now())
	})
}

// WrapBus installs the injector's transfer fault hook on a bus: every
// transfer consults it. (The data placement manager fills the cache without
// the bus, so its preloads are never injected.)
func (i *Injector) WrapBus(s *sim.Sim, b *bus.Bus) {
	b.SetTransferHook(func(d bus.Direction, n int64) error {
		return i.TransferFault(s.Now(), n)
	})
}
