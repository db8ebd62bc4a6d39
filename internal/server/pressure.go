package server

import (
	"time"

	"robustdb/internal/obs"
)

// StartPressureLoop wires the observability detectors into the admission
// controller as the backpressure signal: every interval it ticks the
// sampler (closing one detector window over the registry delta) and feeds
// the number of currently degraded detectors to the controller. Under the
// Detector admission policy each degraded detector halves the admitted
// concurrency and the queue bound — thrashing or contention inside the
// engine therefore sheds load at the front door instead of degrading every
// tenant together. interval must be above 0.
//
// The returned stop function halts the loop and resets the pressure to
// zero; it is safe to call once.
func StartPressureLoop(s *Server, sampler *obs.Sampler, interval time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				sampler.Tick() // single-goroutine contract: only this loop ticks
				level := 0
				for _, d := range sampler.Detectors() {
					if d.State().Degraded {
						level++
					}
				}
				s.ctrl.SetPressure(level)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		s.ctrl.SetPressure(0)
	}
}
