package obs

import (
	"fmt"
	"sync"

	"robustdb/internal/trace"
)

// Verdict is one window's classification.
type Verdict struct {
	// Degraded reports whether the window, taken alone, looks unhealthy.
	Degraded bool
	// Detail explains the classification (thresholds vs. observed rates).
	Detail string
}

// Classifier inspects one metrics window — a Snapshot.Delta between two
// consecutive registry snapshots — and classifies it in isolation; the
// Detector's hysteresis decides what the stream of verdicts means.
type Classifier func(delta trace.Snapshot) Verdict

// hysteresis is every detector's width in windows, on both edges.
const hysteresis = 2

// Detector turns a per-window Classifier into a stable health state with
// hysteresis: that many consecutive degraded windows flip it degraded, as
// many consecutive healthy windows flip it back. A single outlier window — in
// either direction — never changes the state, so a flapping signal cannot
// flap the health endpoint.
//
// Observe is called from one sampling goroutine; State (and the bound
// registry gauge) may be read concurrently from HTTP handlers.
type Detector struct {
	name     string
	classify Classifier

	gauge       *trace.Gauge   // 1 degraded / 0 healthy; nil until Bind
	transitions *trace.Counter // state flips; nil until Bind

	mu       sync.Mutex
	degraded bool
	streak   int // consecutive windows contradicting the current state
	windows  int64
	flips    int64
	detail   string
}

// NewDetector creates a detector.
func NewDetector(name string, classify Classifier) *Detector {
	return &Detector{name: name, classify: classify, detail: "no windows observed"}
}

// Name returns the detector name ("Thrashing", "Contention").
func (d *Detector) Name() string { return d.name }

// Bind registers the detector's registry series: a gauge Detector<Name>
// (1 = degraded) and a counter Detector<Name>Transitions. The gauge makes
// detector state scrapeable from /metrics alongside the raw series it is
// derived from.
func (d *Detector) Bind(reg *trace.Registry) {
	d.gauge = reg.Gauge("Detector" + d.name)
	d.transitions = reg.Counter("Detector" + d.name + "Transitions")
	d.gauge.Set(0)
}

// Observe classifies one window and advances the hysteresis state machine.
// It reports whether the health state flipped in this window.
func (d *Detector) Observe(delta trace.Snapshot) (changed bool) {
	v := d.classify(delta)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.windows++
	d.detail = v.Detail
	if v.Degraded == d.degraded {
		d.streak = 0
		return false
	}
	d.streak++
	if d.streak < hysteresis {
		return false
	}
	d.degraded = !d.degraded
	d.streak = 0
	d.flips++
	if d.gauge != nil {
		g := int64(0)
		if d.degraded {
			g = 1
		}
		d.gauge.Set(g)
	}
	if d.transitions != nil {
		d.transitions.Inc()
	}
	return true
}

// DetectorState is a frozen view of one detector for /healthz.
type DetectorState struct {
	Name        string `json:"name"`
	Degraded    bool   `json:"degraded"`
	Detail      string `json:"detail"`
	Windows     int64  `json:"windows"`
	Transitions int64  `json:"transitions"`
}

// State returns the current state (safe from any goroutine).
func (d *Detector) State() DetectorState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DetectorState{
		Name:        d.name,
		Degraded:    d.degraded,
		Detail:      d.detail,
		Windows:     d.windows,
		Transitions: d.flips,
	}
}

// The detectors' thresholds.
const (
	// minWindowQueries guards against idle or near-idle windows: below it a
	// window classifies healthy regardless of rates.
	minWindowQueries = 1
	// thrashReadmitsPerQuery is the evict-then-readmit churn threshold: a
	// window whose CacheReadmits / queries reaches it is thrashing-suspect.
	thrashReadmitsPerQuery = 0.5
	// thrashBytesPerQuery is the transfer-volume threshold (H2D + D2H
	// payload bytes per query). Thrashing shows up as repeated re-staging of
	// the same columns, i.e. high transfer volume per unit of work.
	thrashBytesPerQuery float64 = 256 << 10
	// thrashMaxHitRate is the cache hit-rate ceiling: a window is only
	// thrashing-suspect while the hit rate is at or below it.
	thrashMaxHitRate = 0.5
	// contentionFailuresPerQuery is the degraded threshold on (Aborts +
	// AllocFaults + TransferFaults) / queries: device memory pressure and
	// injected fault pressure both surface as operators failing to hold
	// their allocations.
	contentionFailuresPerQuery = 1.0
)

// idleVerdict classifies a window with fewer than minWindowQueries queries.
func idleVerdict(queries int64) Verdict {
	return Verdict{Detail: fmt.Sprintf("idle window (%d queries < %d)", queries, minWindowQueries)}
}

// NewThrashingDetector builds the online cache-thrashing detector of the
// paper's §2.3 failure mode: operator-driven data placement evicting and
// re-admitting the same columns query after query. A window is degraded
// when readmit churn AND transfer volume per query exceed their thresholds
// while the cache hit rate has fallen to thrashMaxHitRate or below.
func NewThrashingDetector() *Detector {
	return NewDetector("Thrashing", func(delta trace.Snapshot) Verdict {
		queries := delta.Counters["QueriesCompleted"] + delta.Counters["QueriesFailed"]
		if queries < minWindowQueries {
			return idleVerdict(queries)
		}
		readmits := delta.Counters["CacheReadmits"]
		bytes := delta.Counters["H2DBytes"] + delta.Counters["D2HBytes"]
		hits := delta.Counters["CacheHits"]
		lookups := hits + delta.Counters["CacheMisses"]
		hitRate := 1.0
		if lookups > 0 {
			hitRate = float64(hits) / float64(lookups)
		}
		readmitRate := float64(readmits) / float64(queries)
		bytesRate := float64(bytes) / float64(queries)
		degraded := readmitRate >= thrashReadmitsPerQuery &&
			bytesRate >= thrashBytesPerQuery &&
			hitRate <= thrashMaxHitRate
		return Verdict{
			Degraded: degraded,
			Detail: fmt.Sprintf(
				"readmits/query=%.2f (≥%.2f) bytes/query=%.0f (≥%.0f) hit-rate=%.2f (≤%.2f) queries=%d",
				readmitRate, thrashReadmitsPerQuery, bytesRate, thrashBytesPerQuery,
				hitRate, thrashMaxHitRate, queries),
		}
	})
}

// NewContentionDetector builds the device-contention detector: a window is
// degraded when operator aborts plus injected allocation/transfer faults
// per query reach the threshold — the heap-contention regime of Figure 13,
// where concurrent operators evict and abort each other.
func NewContentionDetector() *Detector {
	return NewDetector("Contention", func(delta trace.Snapshot) Verdict {
		queries := delta.Counters["QueriesCompleted"] + delta.Counters["QueriesFailed"]
		if queries < minWindowQueries {
			return idleVerdict(queries)
		}
		failures := delta.Counters["Aborts"] + delta.Counters["AllocFaults"] + delta.Counters["TransferFaults"]
		rate := float64(failures) / float64(queries)
		return Verdict{
			Degraded: rate >= contentionFailuresPerQuery,
			Detail: fmt.Sprintf("failures/query=%.2f (≥%.2f) queries=%d",
				rate, contentionFailuresPerQuery, queries),
		}
	})
}
