package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
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
	hits := reg.Counter("CacheHits")
	misses := reg.Counter("CacheMisses")
	h2d := reg.Counter("H2DBytes")
	d2h := reg.Counter("D2HBytes")
	aborts := reg.Counter("Aborts")
	runTime := reg.Histogram("GPURunTime", trace.Durations)
	wasted := reg.Duration("WastedTime")

	detectors := []*Detector{
		NewThrashingDetector(),
		NewContentionDetector(),
	}
	sampler := NewSampler(reg, detectors, nil)

	const (
		writers = 4
		readers = 4
		rounds  = 300
		phase   = 10 // windows a phase: degraded, then healthy, then degraded, …
	)
	var wg sync.WaitGroup
	var degraded atomic.Bool
	stop := make(chan struct{})
	completed := make(chan struct{}, 1) // a writer finished a query

	// Single ticker goroutine: the sampler's documented threading model. It
	// closes a window only once a writer has completed a query in it, so no
	// window is idle and every phase flips both detectors. Writers and
	// readers yield after each turn, so the parked ticker gets a processor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			degraded.Store(i/phase%2 == 0)
			select {
			case <-completed: // a query of the window just closed
			default:
			}
			<-completed
			sampler.Tick()
		}
		close(stop)
	}()

	// Engine-side metric writeback racing the ticks: a degraded query
	// misses the cache, re-admits and re-stages 16 MiB and aborts twice; a
	// healthy one hits.
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
				if degraded.Load() {
					misses.Inc()
					readmits.Add(2)
					h2d.Add(1 << 24)
					d2h.Add(1 << 12)
					aborts.Add(2)
				} else {
					hits.Inc()
				}
				runTime.ObserveDuration(50 * time.Microsecond)
				wasted.Add(10 * time.Microsecond)
				queries.Inc()
				select {
				case completed <- struct{}{}:
				default:
				}
				runtime.Gosched()
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
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	// The detector gauges the ticks wrote back must be present in the final
	// snapshot (0 or 1), and every detector must have flipped: otherwise the
	// writeback this test races never ran.
	final := reg.Snapshot()
	for _, name := range []string{"Thrashing", "Contention"} {
		if v, ok := final.Gauges["Detector"+name]; !ok || v < 0 || v > 1 {
			t.Fatalf("detector gauge Detector%s = %d (present %v), want 0/1", name, v, ok)
		}
		if n := final.Counters["Detector"+name+"Transitions"]; n < 1 {
			t.Errorf("detector %s made %d transitions over %d windows, want at least 1", name, n, rounds)
		}
	}
}
