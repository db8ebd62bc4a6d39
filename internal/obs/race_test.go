package obs

import (
	"sync"
	"testing"
	"time"

	"robustdb/internal/trace"
)

// TestDetectorWritebackRacesReaders drives the full observability hot path
// concurrently — sampler ticks writing detector gauges back into the
// registry, engine-side counter writes, and Snapshot/Delta readers (the
// /metrics and /debug handlers) plus detector State() reads (the /healthz
// handler and the admission backpressure loop) — so the race detector can
// prove the contract: Tick is single-goroutine, everything else is safe
// from any goroutine at any time.
func TestDetectorWritebackRacesReaders(t *testing.T) {
	reg := trace.NewRegistry()
	queries := reg.Counter("QueriesCompleted")
	readmits := reg.Counter("CacheReadmits")
	h2d := reg.Counter("H2DPayloadBytes")
	d2h := reg.Counter("D2HPayloadBytes")
	queueWait := reg.Histogram("GPUQueueWait", trace.Durations)
	busy := reg.Duration("GPUBusyTime")

	detectors := []*Detector{
		NewThrashingDetector(),
		NewContentionDetector(),
	}
	sampler := NewSampler(reg, detectors, nil)

	const (
		writers = 4
		readers = 4
		rounds  = 300
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Single ticker goroutine: the sampler's documented threading model.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			sampler.Tick()
		}
		close(stop)
	}()

	// Engine-side metric writeback racing the ticks.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				queries.Inc()
				readmits.Add(2)
				h2d.Add(1 << 16)
				d2h.Add(1 << 12)
				queueWait.ObserveDuration(50 * time.Microsecond)
				busy.Add(10 * time.Microsecond)
			}
		}()
	}

	// Handler-side readers racing both.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := reg.Snapshot()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				delta := snap.Delta(prev)
				prev = snap
				if delta.Counters["QueriesCompleted"] < 0 {
					t.Error("counter delta went negative")
					return
				}
				for _, d := range detectors {
					_ = d.State()
				}
			}
		}()
	}
	wg.Wait()

	// The detector gauges the ticks wrote back must be present in the final
	// snapshot (0 or 1, set every window).
	final := reg.Snapshot()
	for _, name := range []string{"DetectorThrashing", "DetectorContention"} {
		if v, ok := final.Gauges[name]; !ok || v < 0 || v > 1 {
			t.Fatalf("detector gauge %s = %d (present %v), want 0/1", name, v, ok)
		}
	}
}
