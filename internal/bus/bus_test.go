package bus

import (
	"fmt"
	"testing"
	"time"

	"robustdb/internal/sim"
	"robustdb/internal/trace"
)

// meters is one link's installed meters, read back by the tests.
type meters struct {
	bytes *trace.Counter
	busy  *trace.DurationCounter
}

// newMetered builds a bus whose links count into fresh registry series.
func newMetered(s *sim.Sim, cfg Config) (*Bus, [2]meters) {
	reg := trace.NewRegistry()
	var m [2]meters
	var installed [2]Meters
	for _, d := range []Direction{HostToDevice, DeviceToHost} {
		m[d] = meters{reg.Counter(d.String() + "Bytes"), reg.Duration(d.String() + "Busy")}
		installed[d] = Meters{Bytes: m[d].bytes, Busy: m[d].busy}
	}
	return New(s, cfg, installed), m
}

// transfer is TryTransfer for a test that installs no hook.
func transfer(t *testing.T, b *Bus, p *sim.Proc, d Direction, n int64) {
	t.Helper()
	if err := b.TryTransfer(p, d, n); err != nil {
		t.Errorf("hookless transfer failed: %v", err)
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Fatal("direction labels wrong")
	}
	if Direction(9).String() != "dir(9)" {
		t.Fatal("unknown direction label wrong")
	}
}

func TestTransferTiming(t *testing.T) {
	s := sim.New()
	b, m := newMetered(s, Config{Bandwidth: 1000, Latency: 10 * time.Millisecond}) // 1000 B/s
	var done time.Duration
	s.Spawn("t", func(p *sim.Proc) {
		transfer(t, b, p, HostToDevice, 500)
		done = p.Now()
	})
	s.Run()
	want := 10*time.Millisecond + 500*time.Millisecond
	if done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
	l := b.Link(HostToDevice)
	if bytes, busy := m[HostToDevice].bytes.Load(), m[HostToDevice].busy.Load(); bytes != 500 || busy != want {
		t.Fatalf("accounting: bytes=%d busy=%v", bytes, busy)
	}
	if l.Direction() != HostToDevice || l.InFlight() != 0 || l.Waiting() != 0 {
		t.Fatal("direction or slot state wrong")
	}
	if m[DeviceToHost].bytes.Load() != 0 || m[DeviceToHost].busy.Load() != 0 {
		t.Fatal("other direction must be untouched")
	}
}

// Transfers on one link queue FIFO, and its busy meter sums their service
// times: the slot never serves two at once.
func TestTransferFIFOQueueing(t *testing.T) {
	s := sim.New()
	b, m := newMetered(s, Config{Bandwidth: 1000, Latency: 0})
	var first, second time.Duration
	var inFlight, waiting int
	s.Spawn("a", func(p *sim.Proc) {
		transfer(t, b, p, HostToDevice, 1000) // 1s
		first = p.Now()
	})
	s.Spawn("b", func(p *sim.Proc) {
		transfer(t, b, p, HostToDevice, 1000) // queued behind a
		second = p.Now()
	})
	s.Spawn("probe", func(p *sim.Proc) {
		p.Hold(time.Second / 2)
		inFlight, waiting = b.Link(HostToDevice).InFlight(), b.Link(HostToDevice).Waiting()
	})
	s.Run()
	if first != time.Second || second != 2*time.Second {
		t.Fatalf("first=%v second=%v", first, second)
	}
	if inFlight != 1 || waiting != 1 {
		t.Fatalf("mid-transfer: %d in flight, %d waiting, want 1 and 1", inFlight, waiting)
	}
	if busy := m[HostToDevice].busy.Load(); busy != 2*time.Second {
		t.Fatalf("busy = %v, want 2s", busy)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	s := sim.New()
	b, m := newMetered(s, Config{Bandwidth: 1000, Latency: 0})
	var up, down time.Duration
	s.Spawn("up", func(p *sim.Proc) {
		transfer(t, b, p, HostToDevice, 1000)
		up = p.Now()
	})
	s.Spawn("down", func(p *sim.Proc) {
		transfer(t, b, p, DeviceToHost, 1000)
		down = p.Now()
	})
	s.Run()
	// Full duplex: both finish at 1s.
	if up != time.Second || down != time.Second {
		t.Fatalf("up=%v down=%v, want 1s both", up, down)
	}
	for _, d := range []Direction{HostToDevice, DeviceToHost} {
		if m[d].bytes.Load() != 1000 || m[d].busy.Load() != time.Second {
			t.Fatalf("%v: bytes=%d busy=%v", d, m[d].bytes.Load(), m[d].busy.Load())
		}
	}
}

func TestZeroAndNegativeTransfers(t *testing.T) {
	s := sim.New()
	b, m := newMetered(s, Config{Bandwidth: 1000, Latency: time.Second})
	var done time.Duration
	var recovered interface{}
	s.Spawn("t", func(p *sim.Proc) {
		transfer(t, b, p, HostToDevice, 0)
		done = p.Now()
		defer func() { recovered = recover() }()
		_ = b.TryTransfer(p, HostToDevice, -1)
	})
	s.Run()
	if done != 0 {
		t.Fatal("zero transfer should be free")
	}
	if recovered == nil {
		t.Fatal("negative transfer should panic")
	}
	if m[HostToDevice].bytes.Load() != 0 || m[HostToDevice].busy.Load() != 0 {
		t.Fatal("zero transfer must not be counted")
	}
}

// Without a hook no transfer fails, and without meters a bus moves data all
// the same.
func TestTryTransferWithoutHook(t *testing.T) {
	s := sim.New()
	b := New(s, Config{Bandwidth: 1000, Latency: 0}, [2]Meters{})
	s.Spawn("t", func(p *sim.Proc) { transfer(t, b, p, DeviceToHost, 1000) })
	if end := s.Run(); end != time.Second {
		t.Fatalf("unmetered transfer ended at %v", end)
	}
}

func TestDuration(t *testing.T) {
	s := sim.New()
	b, _ := newMetered(s, Config{Bandwidth: 2000, Latency: 5 * time.Millisecond})
	if d := b.Duration(HostToDevice, 1000); d != 5*time.Millisecond+500*time.Millisecond {
		t.Fatalf("Duration = %v", d)
	}
	if d := b.Duration(DeviceToHost, 0); d != 0 {
		t.Fatalf("zero Duration = %v", d)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.New(), Config{Bandwidth: 0}, [2]Meters{})
}

// A hook failure charges only the setup latency and moves no payload bytes;
// once the hook passes, the transfer runs in full.
func TestTransferHookFault(t *testing.T) {
	s := sim.New()
	b, m := newMetered(s, Config{Bandwidth: 1000, Latency: 10 * time.Millisecond})
	fail := true
	var hookCalls int
	b.SetTransferHook(func(d Direction, n int64) error {
		hookCalls++
		if d != HostToDevice || n != 500 {
			t.Errorf("hook saw d=%v n=%d", d, n)
		}
		if fail {
			return fmt.Errorf("injected")
		}
		return nil
	})
	var failAt, okAt time.Duration
	var failedBytes int64
	s.Spawn("t", func(p *sim.Proc) {
		if err := b.TryTransfer(p, HostToDevice, 500); err == nil {
			t.Error("hook failure not surfaced")
		}
		failAt, failedBytes = p.Now(), m[HostToDevice].bytes.Load()
		fail = false
		if err := b.TryTransfer(p, HostToDevice, 500); err != nil {
			t.Errorf("passing hook failed transfer: %v", err)
		}
		okAt = p.Now()
	})
	s.Run()
	if failAt != 10*time.Millisecond || failedBytes != 0 {
		t.Fatalf("failed transfer took %v and counted %d bytes, want latency only and none", failAt, failedBytes)
	}
	if okAt != failAt+10*time.Millisecond+500*time.Millisecond {
		t.Fatalf("retry finished at %v", okAt)
	}
	if hookCalls != 2 {
		t.Fatalf("hook consulted %d times, want 2", hookCalls)
	}
	if bytes := m[HostToDevice].bytes.Load(); bytes != 500 {
		t.Fatalf("accounting: bytes=%d, want the retry's 500 only", bytes)
	}
	if busy := m[HostToDevice].busy.Load(); busy != okAt {
		t.Fatalf("busy time %v, want %v: the failed transfer's latency and the retry's service", busy, okAt)
	}
}
